//! Timing model of the shared data cache.
//!
//! The paper's cache (Section 4, Table 2; studied in Section 5.3):
//!
//! * 8 KB, 32-byte lines, LRU replacement,
//! * uniform (not partitioned) and shared by all threads,
//! * 4-way set-associative by default, direct-mapped as the alternative,
//! * non-blocking to depth one: "the cache is capable of servicing one line
//!   refill while simultaneously providing data. A second miss renders the
//!   cache incapable of servicing data requests."
//!
//! This is a *tag-only* timing model: it decides hit/miss/blocked and tracks
//! replacement state, while data always moves through
//! [`MainMemory`](crate::memory::MainMemory). A perfect instruction cache is
//! assumed (Table 2), so no I-cache model exists.

use std::fmt;

/// Cache organization: the two alternatives the paper compares.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CacheKind {
    /// 4-way set-associative with perfect LRU (the default model).
    #[default]
    SetAssociative,
    /// Direct-mapped, same capacity.
    DirectMapped,
}

impl CacheKind {
    /// Every organization, in declaration order (sweep-axis iteration).
    pub const ALL: [CacheKind; 2] = [CacheKind::SetAssociative, CacheKind::DirectMapped];

    /// Short stable identifier for cell ids and exports.
    #[must_use]
    pub fn abbrev(self) -> &'static str {
        match self {
            CacheKind::SetAssociative => "sa",
            CacheKind::DirectMapped => "dm",
        }
    }
}

impl fmt::Display for CacheKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheKind::SetAssociative => f.write_str("4-way set associative"),
            CacheKind::DirectMapped => f.write_str("direct-mapped"),
        }
    }
}

/// Geometry and timing of a data cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (1 = direct-mapped).
    pub ways: usize,
    /// Extra cycles a miss needs before its data is available.
    pub miss_penalty: u64,
    /// Simultaneously outstanding line refills. The paper's cache services
    /// exactly one ("a second miss renders the cache incapable of servicing
    /// data requests"); larger values implement its Section 6 suggestion to
    /// "employ more cache ports".
    pub mshrs: usize,
}

impl CacheConfig {
    /// The paper's 8 KB / 32 B-line cache in the given organization, with
    /// the reconstructed 12-cycle miss penalty (see DESIGN.md).
    #[must_use]
    pub fn paper(kind: CacheKind) -> Self {
        CacheConfig {
            size_bytes: 8 * 1024,
            line_bytes: 32,
            ways: match kind {
                CacheKind::SetAssociative => 4,
                CacheKind::DirectMapped => 1,
            },
            miss_penalty: 12,
            mshrs: 1,
        }
    }

    /// The same cache with `n` outstanding-refill slots (Section 6
    /// extension).
    #[must_use]
    pub fn with_mshrs(mut self, n: usize) -> Self {
        self.mshrs = n;
        self
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (non-power-of-two line size,
    /// capacity not divisible into `ways` lines per set, or zero anywhere).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(
            self.line_bytes.is_power_of_two() && self.line_bytes > 0,
            "bad line size"
        );
        assert!(self.ways > 0, "zero ways");
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines > 0 && lines.is_multiple_of(self.ways as u64),
            "capacity {} not divisible into {}-way sets of {}-byte lines",
            self.size_bytes,
            self.ways,
            self.line_bytes
        );
        let sets = (lines / self.ways as u64) as usize;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        sets
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::paper(CacheKind::SetAssociative)
    }
}

/// Result of presenting an access to the cache at some cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// The line is resident: data available at hit latency.
    Hit,
    /// The line missed and a refill was started; data available at
    /// `ready_at` (inclusive). The refill slot is busy until then.
    Miss {
        /// Cycle at which the refilled data may be used.
        ready_at: u64,
    },
    /// The line is the one currently being refilled; data available when
    /// that refill lands. Counted as a hit (no new memory traffic).
    PendingHit {
        /// Cycle at which the in-flight refill lands.
        ready_at: u64,
    },
    /// A different line missed while the refill slot is busy: the cache
    /// cannot service this request. Retry at `retry_at`.
    Blocked {
        /// First cycle at which the request may be retried.
        retry_at: u64,
    },
}

/// Hit/miss counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Accesses that were resolved (hit, pending hit, or refill start).
    /// Blocked retries are not counted.
    pub accesses: u64,
    /// Resolved accesses that found their line resident or in flight.
    pub hits: u64,
    /// Resolved accesses that started a refill.
    pub misses: u64,
    /// Requests rejected because the refill slot was busy.
    pub blocked: u64,
}

impl CacheStats {
    /// Hit rate in percent (100 × hits / accesses); 0 when idle.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / self.accesses as f64
        }
    }
}

#[derive(Clone, Debug)]
struct Set {
    /// Tags ordered most-recently-used first; length ≤ ways.
    lru: Vec<u64>,
}

/// An in-flight line refill.
#[derive(Clone, Copy, Debug)]
struct Refill {
    set: usize,
    tag: u64,
    done: u64,
}

/// The data-cache timing model. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct DataCache {
    config: CacheConfig,
    sets: Vec<Set>,
    set_shift: u32,
    set_mask: u64,
    /// In-flight refills, at most `config.mshrs` of them.
    refills: Vec<Refill>,
    stats: CacheStats,
}

impl DataCache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (see [`CacheConfig::sets`]) or a zero
    /// MSHR count.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(config.mshrs > 0, "cache needs at least one refill slot");
        DataCache {
            config,
            // Not `vec![template; sets]`: cloning a Vec copies only its
            // elements, so the clones would start at capacity zero and each
            // set would heap-allocate on its first fill mid-simulation.
            sets: (0..sets)
                .map(|_| Set {
                    lru: Vec::with_capacity(config.ways),
                })
                .collect(),
            set_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            refills: Vec::with_capacity(config.mshrs),
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn split(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.set_shift;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    /// Lands completed refills, installing their lines as MRU.
    fn settle(&mut self, now: u64) {
        let mut i = 0;
        while i < self.refills.len() {
            let Refill { set, tag, done } = self.refills[i];
            if now >= done {
                let s = &mut self.sets[set];
                // The line may already be present if it was re-fetched after
                // an eviction race; dedupe defensively.
                s.lru.retain(|&t| t != tag);
                if s.lru.len() == self.config.ways {
                    s.lru.pop();
                }
                s.lru.insert(0, tag);
                self.refills.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Presents an access (load or store — the paper's cache is unified for
    /// timing purposes) for the line containing `addr`, at cycle `now`.
    ///
    /// The caller is responsible for retrying [`Outcome::Blocked`] requests
    /// and for delaying data use until `ready_at` on misses.
    pub fn access(&mut self, addr: u64, now: u64) -> Outcome {
        self.settle(now);
        let (set, tag) = self.split(addr);
        // Hit on a resident line?
        if let Some(pos) = self.sets[set].lru.iter().position(|&t| t == tag) {
            let t = self.sets[set].lru.remove(pos);
            self.sets[set].lru.insert(0, t);
            self.stats.accesses += 1;
            self.stats.hits += 1;
            return Outcome::Hit;
        }
        // Hit on a line currently in flight?
        if let Some(r) = self.refills.iter().find(|r| r.set == set && r.tag == tag) {
            self.stats.accesses += 1;
            self.stats.hits += 1;
            return Outcome::PendingHit { ready_at: r.done };
        }
        // Miss: start a refill if an MSHR is free, otherwise reject until
        // the earliest outstanding refill lands.
        if self.refills.len() == self.config.mshrs {
            let retry_at = self
                .refills
                .iter()
                .map(|r| r.done)
                .min()
                .expect("non-empty");
            self.stats.blocked += 1;
            return Outcome::Blocked { retry_at };
        }
        let done = now + self.config.miss_penalty;
        self.refills.push(Refill { set, tag, done });
        self.stats.accesses += 1;
        self.stats.misses += 1;
        Outcome::Miss { ready_at: done }
    }

    /// Whether every refill slot is occupied at cycle `now`.
    #[must_use]
    pub fn refill_busy(&self, now: u64) -> bool {
        self.outstanding_refills(now) == self.config.mshrs
    }

    /// Number of line refills still in flight at cycle `now` (occupied
    /// MSHRs) — the occupancy telemetry's "outstanding misses" gauge.
    #[must_use]
    pub fn outstanding_refills(&self, now: u64) -> usize {
        self.refills.iter().filter(|r| now < r.done).count()
    }

    /// Serializes replacement state, in-flight refills (in slot order —
    /// [`settle`](Self::settle) installs same-set lines in `refills` order,
    /// so the order is architecturally visible through LRU state), and
    /// statistics. Geometry is not serialized; it comes from the config at
    /// restore time.
    pub fn save(&self, w: &mut smt_checkpoint::Writer) {
        w.put_usize(self.sets.len());
        for s in &self.sets {
            w.put_usize(s.lru.len());
            for &tag in &s.lru {
                w.put_u64(tag);
            }
        }
        w.put_usize(self.refills.len());
        for r in &self.refills {
            w.put_usize(r.set);
            w.put_u64(r.tag);
            w.put_u64(r.done);
        }
        w.put_u64(self.stats.accesses);
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.blocked);
    }

    /// Rebuilds a cache for `config` from [`save`](Self::save)d state.
    pub fn restore(
        config: CacheConfig,
        r: &mut smt_checkpoint::Reader<'_>,
    ) -> Result<Self, smt_checkpoint::DecodeError> {
        let mut cache = DataCache::new(config);
        let n_sets = r.take_usize()?;
        if n_sets != cache.sets.len() {
            return Err(smt_checkpoint::DecodeError::Malformed(format!(
                "cache: {n_sets} serialized sets, geometry has {}",
                cache.sets.len()
            )));
        }
        for s in &mut cache.sets {
            let ways = r.take_usize()?;
            if ways > config.ways {
                return Err(smt_checkpoint::DecodeError::Malformed(format!(
                    "cache: set holds {ways} lines, geometry allows {}",
                    config.ways
                )));
            }
            for _ in 0..ways {
                s.lru.push(r.take_u64()?);
            }
        }
        let n_refills = r.take_usize()?;
        if n_refills > config.mshrs {
            return Err(smt_checkpoint::DecodeError::Malformed(format!(
                "cache: {n_refills} in-flight refills, {} MSHRs",
                config.mshrs
            )));
        }
        for _ in 0..n_refills {
            cache.refills.push(Refill {
                set: r.take_usize()?,
                tag: r.take_u64()?,
                done: r.take_u64()?,
            });
        }
        cache.stats.accesses = r.take_u64()?;
        cache.stats.hits = r.take_u64()?;
        cache.stats.misses = r.take_u64()?;
        cache.stats.blocked = r.take_u64()?;
        Ok(cache)
    }

    /// Invalidates all lines and cancels any refill. Statistics survive.
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.lru.clear();
        }
        self.refills.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(ways: usize) -> DataCache {
        // 4 sets × `ways` lines of 32 B.
        DataCache::new(CacheConfig {
            size_bytes: 32 * 4 * ways as u64,
            line_bytes: 32,
            ways,
            miss_penalty: 10,
            mshrs: 1,
        })
    }

    #[test]
    fn paper_geometry() {
        let assoc = CacheConfig::paper(CacheKind::SetAssociative);
        assert_eq!(assoc.sets(), 64);
        let direct = CacheConfig::paper(CacheKind::DirectMapped);
        assert_eq!(direct.sets(), 256);
    }

    #[test]
    fn miss_then_hit_after_refill() {
        let mut c = small(2);
        assert_eq!(c.access(0, 0), Outcome::Miss { ready_at: 10 });
        // Same line once the refill has landed: hit.
        assert_eq!(c.access(8, 10), Outcome::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn pending_hit_on_inflight_line() {
        let mut c = small(2);
        assert_eq!(c.access(0, 0), Outcome::Miss { ready_at: 10 });
        assert_eq!(c.access(24, 3), Outcome::PendingHit { ready_at: 10 });
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn second_miss_blocks_until_refill_lands() {
        let mut c = small(2);
        assert_eq!(c.access(0, 0), Outcome::Miss { ready_at: 10 });
        // Different line, refill slot busy.
        assert_eq!(c.access(4096, 5), Outcome::Blocked { retry_at: 10 });
        assert_eq!(c.stats().blocked, 1);
        // After the refill lands the retry succeeds (as a new miss).
        assert_eq!(c.access(4096, 10), Outcome::Miss { ready_at: 20 });
    }

    #[test]
    fn hit_under_miss_is_serviced() {
        let mut c = small(2);
        assert_eq!(c.access(0, 0), Outcome::Miss { ready_at: 10 });
        assert_eq!(c.access(0, 10), Outcome::Hit);
        // New miss at cycle 10…
        assert_eq!(c.access(4096, 10), Outcome::Miss { ready_at: 20 });
        // …while it is in flight, the resident line still hits.
        assert_eq!(c.access(0, 12), Outcome::Hit);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small(2); // 2-way, 4 sets; lines map to set (addr/32)%4
        let line = |n: u64| n * 32 * 4; // all in set 0
        let mut t = 0;
        for n in [0u64, 1, 0, 2] {
            // touch 0, 1, 0, 2 → evicts 1 (LRU), keeps 0 and 2
            loop {
                match c.access(line(n), t) {
                    Outcome::Hit => break,
                    Outcome::Miss { ready_at } | Outcome::PendingHit { ready_at } => {
                        t = ready_at;
                        break;
                    }
                    Outcome::Blocked { retry_at } => t = retry_at,
                }
            }
            t += 1;
        }
        assert_eq!(c.access(line(0), t), Outcome::Hit);
        t += 1;
        assert_eq!(c.access(line(2), t), Outcome::Hit);
        t += 1;
        assert!(
            matches!(c.access(line(1), t), Outcome::Miss { .. }),
            "line 1 was evicted"
        );
    }

    #[test]
    fn direct_mapped_conflicts_where_associative_fits() {
        // Two lines mapping to the same direct-mapped set ping-pong, while a
        // 2-way cache holds both.
        let mut direct = small(1);
        let mut assoc = small(2);
        let a = 0u64;
        let b = 32 * 4; // same set index in the 4-set direct cache
        let mut t = 1000;
        for c in [&mut direct, &mut assoc] {
            t += 1000;
            for _ in 0..4 {
                for addr in [a, b] {
                    loop {
                        match c.access(addr, t) {
                            Outcome::Hit => break,
                            Outcome::Miss { ready_at } | Outcome::PendingHit { ready_at } => {
                                t = ready_at;
                                break;
                            }
                            Outcome::Blocked { retry_at } => t = retry_at,
                        }
                    }
                    t += 1;
                }
            }
        }
        assert!(direct.stats().misses > assoc.stats().misses);
        assert!(direct.stats().hit_rate() < assoc.stats().hit_rate());
    }

    #[test]
    fn extra_mshrs_overlap_refills() {
        // Two MSHRs: a second (different-line) miss starts immediately
        // instead of blocking; a third blocks until the earliest lands.
        let mut c = DataCache::new(CacheConfig {
            size_bytes: 32 * 4 * 2,
            line_bytes: 32,
            ways: 2,
            miss_penalty: 10,
            mshrs: 2,
        });
        assert_eq!(c.access(0, 0), Outcome::Miss { ready_at: 10 });
        assert_eq!(c.access(4096, 2), Outcome::Miss { ready_at: 12 });
        assert_eq!(c.access(8192, 4), Outcome::Blocked { retry_at: 10 });
        // Pending hits on both in-flight lines are serviced.
        assert_eq!(c.access(8, 5), Outcome::PendingHit { ready_at: 10 });
        // After the first lands, the third miss gets the freed slot.
        assert_eq!(c.access(8192, 10), Outcome::Miss { ready_at: 20 });
        // Both early lines are resident once their refills land.
        assert_eq!(c.access(0, 12), Outcome::Hit);
        assert_eq!(c.access(4096, 12), Outcome::Hit);
    }

    #[test]
    fn flush_invalidates_but_keeps_stats() {
        let mut c = small(2);
        let _ = c.access(0, 0);
        c.flush();
        assert!(matches!(c.access(0, 100), Outcome::Miss { .. }));
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn hit_rate_formula() {
        let s = CacheStats {
            accesses: 200,
            hits: 150,
            misses: 50,
            blocked: 3,
        };
        assert!((s.hit_rate() - 75.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn degenerate_geometry_rejected() {
        let _ = DataCache::new(CacheConfig {
            size_bytes: 100,
            line_bytes: 32,
            ways: 4,
            miss_penalty: 1,
            mshrs: 1,
        });
    }
}
