//! The branch-predictor families selectable by `SimConfig`.
//!
//! The paper's predictor is [`BranchPredictor`]: one 2-bit BTB serving
//! every thread — the paper exploits homogeneous multitasking (all threads
//! run the same text) so a shared BTB even *benefits* from cross-thread
//! training: "Branch instructions of all threads update the same history
//! after execution. While this may seem too simplistic, it yielded
//! prediction accuracies upwards of 85% for all applications."
//!
//! Each direct-mapped BTB entry holds a PC tag, the branch target, and a
//! 2-bit saturating counter (`0,1` → predict not-taken; `2,3` → predict
//! taken). A PC that misses in the BTB predicts not-taken (fall through).
//! Updates happen at result commit, as in the paper (Section 5.4 notes the
//! delayed-update artifact this causes for very deep scheduling units).
//!
//! Two non-paper families let the front-end sweep quantify how much the
//! shared-BTB assumption costs (cf. Durbhakula, arXiv 1909.08999):
//!
//! * [`GsharePredictor`] — a shared untagged PHT of 2-bit counters indexed
//!   by `pc XOR per-thread global history`, with a shared tagged BTB for
//!   targets. History registers are per thread so one thread's outcomes
//!   never pollute another's *history* (the tables stay shared).
//! * [`PartitionedPredictor`] — the BTB budget statically partitioned into
//!   per-thread private 2-bit BTBs; no cross-thread training or
//!   interference at all.
//!
//! All families update at commit time and are dispatched through the
//! [`Predictor`] enum — enum dispatch, not `dyn Trait`, so the
//! default-config hot path stays monomorphic and branch-predictable.

/// Outcome of a prediction lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Prediction {
    /// Whether the control transfer is predicted taken.
    pub taken: bool,
    /// Predicted target (valid only when `taken`).
    pub target: usize,
}

impl Prediction {
    /// The fall-through prediction.
    #[must_use]
    pub fn not_taken() -> Self {
        Prediction {
            taken: false,
            target: 0,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    pc: usize,
    target: usize,
    counter: u8,
}

/// Counters accumulated by the predictor itself (lookup traffic); *accuracy*
/// is accounted by the pipeline, which knows actual outcomes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PredictorStats {
    /// Prediction lookups performed.
    pub lookups: u64,
    /// Lookups that found a matching BTB entry.
    pub btb_hits: u64,
    /// Commit-time updates applied.
    pub updates: u64,
}

/// A direct-mapped BTB of 2-bit saturating counters.
///
/// ```
/// use smt_uarch::BranchPredictor;
///
/// let mut p = BranchPredictor::new(16);
/// assert!(!p.predict(5).taken);      // cold: fall through
/// p.update(5, true, 42);
/// p.update(5, true, 42);
/// let pred = p.predict(5);
/// assert!(pred.taken);
/// assert_eq!(pred.target, 42);
/// ```
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    entries: Vec<Option<Entry>>,
    mask: usize,
    stats: PredictorStats,
}

/// Default BTB entry count (reconstructed parameter; see DESIGN.md).
pub const DEFAULT_BTB_ENTRIES: usize = 512;

impl Default for BranchPredictor {
    fn default() -> Self {
        BranchPredictor::new(DEFAULT_BTB_ENTRIES)
    }
}

impl BranchPredictor {
    /// Creates a predictor with `entries` BTB slots.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a nonzero power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two() && entries > 0,
            "BTB size must be a power of two"
        );
        let mut p = BranchPredictor {
            entries: Vec::new(),
            mask: entries - 1,
            stats: PredictorStats::default(),
        };
        p.reset();
        p
    }

    /// Returns the BTB to its cold state — every slot empty, zeroed
    /// counters — keeping its storage.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.entries.resize(self.mask + 1, None);
        self.stats = PredictorStats::default();
    }

    /// Looks up the prediction for the control-transfer at `pc`.
    pub fn predict(&mut self, pc: usize) -> Prediction {
        self.stats.lookups += 1;
        match self.entries[pc & self.mask] {
            Some(e) if e.pc == pc => {
                self.stats.btb_hits += 1;
                Prediction {
                    taken: e.counter >= 2,
                    target: e.target,
                }
            }
            _ => Prediction::not_taken(),
        }
    }

    /// Applies the resolved outcome of the control transfer at `pc`.
    ///
    /// Taken updates (including unconditional jumps) install/refresh the BTB
    /// entry; a not-taken update for a PC owned by a *different* branch
    /// leaves the entry alone (no displacement on aliasing misses).
    pub fn update(&mut self, pc: usize, taken: bool, target: usize) {
        self.stats.updates += 1;
        let slot = &mut self.entries[pc & self.mask];
        match slot {
            Some(e) if e.pc == pc => {
                if taken {
                    e.counter = (e.counter + 1).min(3);
                    e.target = target;
                } else {
                    e.counter = e.counter.saturating_sub(1);
                }
            }
            _ => {
                if taken {
                    // Install weakly taken, as classic 2-bit BTBs do.
                    *slot = Some(Entry {
                        pc,
                        target,
                        counter: 2,
                    });
                }
            }
        }
    }

    /// Lookup/update traffic counters.
    #[must_use]
    pub fn stats(&self) -> &PredictorStats {
        &self.stats
    }

    /// Serializes BTB contents and traffic counters.
    pub fn save(&self, w: &mut smt_checkpoint::Writer) {
        w.put_usize(self.entries.len());
        save_sparse(w, &self.entries, |w, e| {
            w.put_usize(e.pc);
            w.put_usize(e.target);
            w.put_u8(e.counter);
        });
        w.put_u64(self.stats.lookups);
        w.put_u64(self.stats.btb_hits);
        w.put_u64(self.stats.updates);
    }

    /// Replaces the state with [`save`](Self::save)d state, refusing a
    /// snapshot of any other size. Each slot is decoded once, straight
    /// over its old contents, so no reset need precede it.
    pub fn decode(
        &mut self,
        r: &mut smt_checkpoint::Reader<'_>,
    ) -> Result<(), smt_checkpoint::DecodeError> {
        expect_len(r, "BTB slots", self.entries.len())?;
        decode_sparse(r, &mut self.entries, |r| {
            Ok(Entry {
                pc: r.take_usize()?,
                target: r.take_usize()?,
                counter: take_counter(r)?,
            })
        })?;
        self.stats.lookups = r.take_u64()?;
        self.stats.btb_hits = r.take_u64()?;
        self.stats.updates = r.take_u64()?;
        Ok(())
    }

    /// Number of BTB slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the BTB has zero slots (never true — construction forbids it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Decodes a length word and requires it to equal `want`, the value the
/// configuration implies — so a snapshot can never size a table itself.
fn expect_len(
    r: &mut smt_checkpoint::Reader<'_>,
    what: &str,
    want: usize,
) -> Result<(), smt_checkpoint::DecodeError> {
    let len = r.take_usize()?;
    if len != want {
        return Err(smt_checkpoint::DecodeError::Malformed(format!(
            "predictor snapshot holds {len} {what}, configuration has {want}"
        )));
    }
    Ok(())
}

/// Writes a table of optional entries: per slot a 0 byte when it is empty,
/// else a 1 byte and what `put` writes for the entry. Runs of empty slots
/// go out in one write.
fn save_sparse<T>(
    w: &mut smt_checkpoint::Writer,
    slots: &[Option<T>],
    mut put: impl FnMut(&mut smt_checkpoint::Writer, &T),
) {
    let mut empty = 0;
    for slot in slots {
        let Some(entry) = slot else {
            empty += 1;
            continue;
        };
        w.put_zeros(std::mem::take(&mut empty));
        w.put_u8(1);
        put(w, entry);
    }
    w.put_zeros(empty);
}

/// Decodes a table [`save_sparse`] wrote over `slots`, writing each slot
/// once: runs of empty slots are read eight at a time, and an entry with
/// `take`.
fn decode_sparse<T>(
    r: &mut smt_checkpoint::Reader<'_>,
    slots: &mut [Option<T>],
    mut take: impl FnMut(&mut smt_checkpoint::Reader<'_>) -> Result<T, smt_checkpoint::DecodeError>,
) -> Result<(), smt_checkpoint::DecodeError> {
    let mut i = 0;
    while i < slots.len() {
        let empty = r.take_zeros(slots.len() - i);
        slots[i..i + empty].fill_with(|| None);
        i += empty;
        let Some(slot) = slots.get_mut(i) else {
            break;
        };
        *slot = match r.take_u8()? {
            1 => Some(take(r)?),
            v => {
                return Err(smt_checkpoint::DecodeError::Malformed(format!(
                    "BTB slot discriminant {v}"
                )))
            }
        };
        i += 1;
    }
    Ok(())
}

/// Decodes one 2-bit saturating counter, rejecting values that escape the
/// saturation range (a corrupted byte would otherwise overflow
/// `counter + 1` on the next taken update in debug builds).
fn take_counter(r: &mut smt_checkpoint::Reader<'_>) -> Result<u8, smt_checkpoint::DecodeError> {
    let c = r.take_u8()?;
    if c > 3 {
        return Err(smt_checkpoint::DecodeError::Malformed(format!(
            "2-bit counter out of range: {c}"
        )));
    }
    Ok(c)
}

/// Which predictor family the machine is built with.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PredictorKind {
    /// The paper's single 2-bit BTB shared by every thread.
    #[default]
    SharedBtb,
    /// Shared PHT indexed by `pc ^ per-thread global history`, shared
    /// tagged BTB for targets.
    Gshare,
    /// BTB budget statically partitioned into per-thread private tables.
    PartitionedBtb,
}

impl PredictorKind {
    /// Every family, in declaration order (sweep-axis iteration).
    pub const ALL: [PredictorKind; 3] = [
        PredictorKind::SharedBtb,
        PredictorKind::Gshare,
        PredictorKind::PartitionedBtb,
    ];

    /// Short stable identifier for cell ids and exports.
    #[must_use]
    pub fn abbrev(self) -> &'static str {
        match self {
            PredictorKind::SharedBtb => "btb",
            PredictorKind::Gshare => "gsh",
            PredictorKind::PartitionedBtb => "pbtb",
        }
    }
}

impl std::fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PredictorKind::SharedBtb => "Shared BTB",
            PredictorKind::Gshare => "Gshare",
            PredictorKind::PartitionedBtb => "Partitioned BTB",
        })
    }
}

/// Gshare: a shared untagged pattern-history table of 2-bit counters
/// indexed by `pc XOR thread-global-history`, plus a shared tagged BTB
/// (same geometry as the PHT) providing targets.
///
/// A branch predicts taken only when the PHT counter says taken *and* the
/// BTB has a matching target — without a target there is nothing to fetch,
/// so the machine falls through exactly like a cold shared-BTB lookup.
///
/// History registers advance at **commit time**, consistent with the
/// delayed-update discipline of the whole predictor layer: the index used
/// by a fetch-time lookup reflects the globally committed history, not
/// in-flight speculation. This makes the predictor state a pure function of
/// the commit stream, which is what lets it checkpoint bit-exactly.
#[derive(Clone, Debug)]
pub struct GsharePredictor {
    /// 2-bit counters, untagged (aliasing is constructive or destructive).
    pht: Vec<u8>,
    /// Tagged direct-mapped target store: `(pc, target)`.
    btb: Vec<Option<(usize, usize)>>,
    mask: usize,
    /// Per-thread global history, `log2(entries)` bits wide.
    history: Vec<u64>,
    hist_mask: u64,
    stats: PredictorStats,
}

impl GsharePredictor {
    /// Creates a gshare predictor with `entries` PHT/BTB slots serving
    /// `n_threads` history registers.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a nonzero power of two and
    /// `n_threads > 0`.
    #[must_use]
    pub fn new(entries: usize, n_threads: usize) -> Self {
        assert!(
            entries.is_power_of_two() && entries > 0,
            "PHT size must be a power of two"
        );
        assert!(n_threads > 0, "need at least one thread");
        let mut p = GsharePredictor {
            pht: Vec::new(),
            btb: Vec::new(),
            mask: entries - 1,
            history: vec![0; n_threads],
            hist_mask: (entries - 1) as u64,
            stats: PredictorStats::default(),
        };
        p.reset();
        p
    }

    /// Returns the tables and every history register to their cold
    /// state, keeping their storage.
    pub fn reset(&mut self) {
        let entries = self.mask + 1;
        self.pht.clear();
        self.pht.resize(entries, 0);
        self.btb.clear();
        self.btb.resize(entries, None);
        self.history.fill(0);
        self.stats = PredictorStats::default();
    }

    fn index(&self, tid: usize, pc: usize) -> usize {
        (pc ^ self.history[tid] as usize) & self.mask
    }

    /// Looks up the prediction for thread `tid`'s control transfer at `pc`.
    pub fn predict(&mut self, tid: usize, pc: usize) -> Prediction {
        self.stats.lookups += 1;
        let dir_taken = self.pht[self.index(tid, pc)] >= 2;
        match self.btb[pc & self.mask] {
            Some((tag, target)) if tag == pc => {
                self.stats.btb_hits += 1;
                Prediction {
                    taken: dir_taken,
                    target,
                }
            }
            _ => Prediction::not_taken(),
        }
    }

    /// Applies the resolved outcome of thread `tid`'s control transfer.
    pub fn update(&mut self, tid: usize, pc: usize, taken: bool, target: usize) {
        self.stats.updates += 1;
        let idx = self.index(tid, pc);
        let c = &mut self.pht[idx];
        if taken {
            *c = (*c + 1).min(3);
            self.btb[pc & self.mask] = Some((pc, target));
        } else {
            *c = c.saturating_sub(1);
        }
        self.history[tid] = ((self.history[tid] << 1) | u64::from(taken)) & self.hist_mask;
    }

    /// Lookup/update traffic counters.
    #[must_use]
    pub fn stats(&self) -> &PredictorStats {
        &self.stats
    }

    /// Serializes PHT, BTB, histories, and traffic counters.
    pub fn save(&self, w: &mut smt_checkpoint::Writer) {
        w.put_usize(self.pht.len());
        for &c in &self.pht {
            w.put_u8(c);
        }
        save_sparse(w, &self.btb, |w, &(pc, target)| {
            w.put_usize(pc);
            w.put_usize(target);
        });
        w.put_usize(self.history.len());
        for &h in &self.history {
            w.put_u64(h);
        }
        w.put_u64(self.stats.lookups);
        w.put_u64(self.stats.btb_hits);
        w.put_u64(self.stats.updates);
    }

    /// Replaces the state with [`save`](Self::save)d state, refusing a
    /// snapshot of any other shape. Each slot and register is decoded
    /// once, so no reset need precede it.
    pub fn decode(
        &mut self,
        r: &mut smt_checkpoint::Reader<'_>,
    ) -> Result<(), smt_checkpoint::DecodeError> {
        expect_len(r, "PHT slots", self.pht.len())?;
        let counters = r.take(self.pht.len())?;
        if let Some(&c) = counters.iter().find(|&&c| c > 3) {
            return Err(smt_checkpoint::DecodeError::Malformed(format!(
                "2-bit counter out of range: {c}"
            )));
        }
        self.pht.copy_from_slice(counters);
        decode_sparse(r, &mut self.btb, |r| Ok((r.take_usize()?, r.take_usize()?)))?;
        expect_len(r, "history registers", self.history.len())?;
        for slot in &mut self.history {
            let h = r.take_u64()?;
            if h > self.hist_mask {
                return Err(smt_checkpoint::DecodeError::Malformed(format!(
                    "history register {h:#x} wider than the PHT index"
                )));
            }
            *slot = h;
        }
        self.stats.lookups = r.take_u64()?;
        self.stats.btb_hits = r.take_u64()?;
        self.stats.updates = r.take_u64()?;
        Ok(())
    }

    /// Number of PHT (and BTB) slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pht.len()
    }

    /// Whether the PHT has zero slots (never true — construction forbids it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pht.is_empty()
    }
}

/// The per-thread-partitioned BTB: the entry budget split into private
/// 2-bit BTBs, one per thread, each `prev_pow2(entries / n_threads)` slots
/// (so a 512-entry budget across 6 threads yields 64-entry partitions —
/// the budget is never exceeded). No cross-thread training, no
/// cross-thread interference.
#[derive(Clone, Debug)]
pub struct PartitionedPredictor {
    tables: Vec<BranchPredictor>,
}

impl PartitionedPredictor {
    /// Creates per-thread partitions out of a total budget of `entries`.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a nonzero power of two and
    /// `n_threads > 0`.
    #[must_use]
    pub fn new(entries: usize, n_threads: usize) -> Self {
        assert!(
            entries.is_power_of_two() && entries > 0,
            "BTB budget must be a power of two"
        );
        assert!(n_threads > 0, "need at least one thread");
        let per = Self::partition_size(entries, n_threads);
        PartitionedPredictor {
            tables: (0..n_threads).map(|_| BranchPredictor::new(per)).collect(),
        }
    }

    /// Slots each thread's private table gets: the largest power of two
    /// that fits `n_threads` times into `entries`, floored at 1.
    #[must_use]
    pub fn partition_size(entries: usize, n_threads: usize) -> usize {
        let per = (entries / n_threads).max(1);
        // Largest power of two <= per.
        1 << (usize::BITS - 1 - per.leading_zeros())
    }

    /// Looks up the prediction in thread `tid`'s private table.
    pub fn predict(&mut self, tid: usize, pc: usize) -> Prediction {
        self.tables[tid].predict(pc)
    }

    /// Applies the resolved outcome in thread `tid`'s private table.
    pub fn update(&mut self, tid: usize, pc: usize, taken: bool, target: usize) {
        self.tables[tid].update(pc, taken, target);
    }

    /// Aggregate traffic counters over every partition.
    #[must_use]
    pub fn stats(&self) -> PredictorStats {
        let mut total = PredictorStats::default();
        for t in &self.tables {
            total.lookups += t.stats().lookups;
            total.btb_hits += t.stats().btb_hits;
            total.updates += t.stats().updates;
        }
        total
    }

    /// Serializes every partition.
    pub fn save(&self, w: &mut smt_checkpoint::Writer) {
        w.put_usize(self.tables.len());
        for t in &self.tables {
            t.save(w);
        }
    }

    /// Returns every partition to its cold state.
    pub fn reset(&mut self) {
        for t in &mut self.tables {
            t.reset();
        }
    }

    /// Replaces every partition with [`save`](Self::save)d state, refusing
    /// a snapshot of any other shape.
    pub fn decode(
        &mut self,
        r: &mut smt_checkpoint::Reader<'_>,
    ) -> Result<(), smt_checkpoint::DecodeError> {
        expect_len(r, "partitions", self.tables.len())?;
        for t in &mut self.tables {
            t.decode(r)?;
        }
        Ok(())
    }

    /// Number of per-thread partitions.
    #[must_use]
    pub fn n_threads(&self) -> usize {
        self.tables.len()
    }

    /// Slots in each partition.
    #[must_use]
    pub fn slots_per_thread(&self) -> usize {
        self.tables[0].len()
    }
}

/// The family dispatcher the pipeline holds: one concrete variant per
/// [`PredictorKind`], enum-dispatched so the default configuration's hot
/// path is a single statically predictable match.
#[derive(Clone, Debug)]
pub enum Predictor {
    /// The paper's shared 2-bit BTB.
    Shared(BranchPredictor),
    /// Gshare with per-thread history.
    Gshare(GsharePredictor),
    /// Per-thread-partitioned BTBs.
    Partitioned(PartitionedPredictor),
}

impl Predictor {
    /// Builds the family `kind` with a total budget of `entries` slots for
    /// a machine with `n_threads` hardware threads.
    #[must_use]
    pub fn build(kind: PredictorKind, entries: usize, n_threads: usize) -> Self {
        match kind {
            PredictorKind::SharedBtb => Predictor::Shared(BranchPredictor::new(entries)),
            PredictorKind::Gshare => Predictor::Gshare(GsharePredictor::new(entries, n_threads)),
            PredictorKind::PartitionedBtb => {
                Predictor::Partitioned(PartitionedPredictor::new(entries, n_threads))
            }
        }
    }

    /// Which family this is.
    #[must_use]
    pub fn kind(&self) -> PredictorKind {
        match self {
            Predictor::Shared(_) => PredictorKind::SharedBtb,
            Predictor::Gshare(_) => PredictorKind::Gshare,
            Predictor::Partitioned(_) => PredictorKind::PartitionedBtb,
        }
    }

    /// Looks up the prediction for thread `tid`'s control transfer at `pc`.
    #[inline]
    pub fn predict(&mut self, tid: usize, pc: usize) -> Prediction {
        match self {
            Predictor::Shared(p) => p.predict(pc),
            Predictor::Gshare(p) => p.predict(tid, pc),
            Predictor::Partitioned(p) => p.predict(tid, pc),
        }
    }

    /// Applies the resolved outcome of thread `tid`'s control transfer.
    #[inline]
    pub fn update(&mut self, tid: usize, pc: usize, taken: bool, target: usize) {
        match self {
            Predictor::Shared(p) => p.update(pc, taken, target),
            Predictor::Gshare(p) => p.update(tid, pc, taken, target),
            Predictor::Partitioned(p) => p.update(tid, pc, taken, target),
        }
    }

    /// Aggregate lookup/update traffic counters.
    #[must_use]
    pub fn stats(&self) -> PredictorStats {
        match self {
            Predictor::Shared(p) => *p.stats(),
            Predictor::Gshare(p) => *p.stats(),
            Predictor::Partitioned(p) => p.stats(),
        }
    }

    /// Serializes a family tag followed by the family payload.
    pub fn save(&self, w: &mut smt_checkpoint::Writer) {
        match self {
            Predictor::Shared(p) => {
                w.put_u8(0);
                p.save(w);
            }
            Predictor::Gshare(p) => {
                w.put_u8(1);
                p.save(w);
            }
            Predictor::Partitioned(p) => {
                w.put_u8(2);
                p.save(w);
            }
        }
    }

    /// Returns the predictor to its cold state, keeping its storage.
    pub fn reset(&mut self) {
        match self {
            Predictor::Shared(p) => p.reset(),
            Predictor::Gshare(p) => p.reset(),
            Predictor::Partitioned(p) => p.reset(),
        }
    }

    /// Replaces the state with [`save`](Self::save)d state, validating that
    /// the snapshot's family is this predictor's and that every table has
    /// this predictor's shape — so a length word in the snapshot never
    /// sizes a table.
    pub fn decode(
        &mut self,
        r: &mut smt_checkpoint::Reader<'_>,
    ) -> Result<(), smt_checkpoint::DecodeError> {
        let tag = r.take_u8()?;
        let kind = self.kind();
        let expect = match kind {
            PredictorKind::SharedBtb => 0,
            PredictorKind::Gshare => 1,
            PredictorKind::PartitionedBtb => 2,
        };
        if tag != expect {
            return Err(smt_checkpoint::DecodeError::Malformed(format!(
                "predictor family tag {tag} does not match configured {kind}"
            )));
        }
        match self {
            Predictor::Shared(p) => p.decode(r),
            Predictor::Gshare(p) => p.decode(r),
            Predictor::Partitioned(p) => p.decode(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_lookup_predicts_not_taken() {
        let mut p = BranchPredictor::new(8);
        assert_eq!(p.predict(3), Prediction::not_taken());
        assert_eq!(p.stats().lookups, 1);
        assert_eq!(p.stats().btb_hits, 0);
    }

    #[test]
    fn two_bit_hysteresis() {
        let mut p = BranchPredictor::new(8);
        p.update(1, true, 9); // install at 2 (weakly taken)
        assert!(p.predict(1).taken);
        p.update(1, true, 9); // 3 (strongly taken)
        p.update(1, false, 0); // 2 — still predicts taken
        assert!(p.predict(1).taken);
        p.update(1, false, 0); // 1 — now not taken
        assert!(!p.predict(1).taken);
        p.update(1, true, 9); // 2 — one taken flips it back
        assert!(p.predict(1).taken);
    }

    #[test]
    fn not_taken_history_never_installs() {
        let mut p = BranchPredictor::new(8);
        p.update(4, false, 0);
        p.update(4, false, 0);
        assert_eq!(p.stats().updates, 2);
        assert!(!p.predict(4).taken);
        assert_eq!(p.stats().btb_hits, 0);
    }

    #[test]
    fn aliasing_branches_share_a_slot() {
        let mut p = BranchPredictor::new(8);
        p.update(1, true, 100);
        // pc 9 aliases to the same slot; taken update displaces.
        p.update(9, true, 200);
        let pred = p.predict(9);
        assert!(pred.taken);
        assert_eq!(pred.target, 200);
        // pc 1 now misses (tag mismatch) → not taken.
        assert!(!p.predict(1).taken);
        // A not-taken update from the displaced branch must not clobber.
        p.update(1, false, 0);
        assert!(p.predict(9).taken);
    }

    #[test]
    fn target_refreshes_on_taken_update() {
        let mut p = BranchPredictor::new(8);
        p.update(2, true, 50);
        p.update(2, true, 60);
        assert_eq!(p.predict(2).target, 60);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = BranchPredictor::new(12);
    }

    /// Scalar reference model of a direct-mapped 2-bit BTB, written
    /// independently of the implementation (plain map of slot → entry).
    struct RefModel {
        slots: std::collections::HashMap<usize, (usize, usize, u8)>,
        size: usize,
    }

    impl RefModel {
        fn new(size: usize) -> Self {
            RefModel {
                slots: std::collections::HashMap::new(),
                size,
            }
        }

        /// (taken, target, btb_hit)
        fn predict(&self, pc: usize) -> (bool, usize, bool) {
            match self.slots.get(&(pc % self.size)) {
                Some(&(tag, target, counter)) if tag == pc => (counter >= 2, target, true),
                _ => (false, 0, false),
            }
        }

        fn update(&mut self, pc: usize, taken: bool, target: usize) {
            let slot = pc % self.size;
            match self.slots.get_mut(&slot) {
                Some(e) if e.0 == pc => {
                    if taken {
                        e.2 = if e.2 >= 3 { 3 } else { e.2 + 1 };
                        e.1 = target;
                    } else if e.2 > 0 {
                        e.2 -= 1;
                    }
                }
                _ if taken => {
                    self.slots.insert(slot, (pc, target, 2));
                }
                _ => {}
            }
        }
    }

    /// Property: over random predict/update streams (aliasing pcs, biased
    /// and anti-correlated outcomes), every 2-bit counter stays inside its
    /// saturation bounds and the predictor's predictions, hit/accuracy
    /// accounting, and traffic counters all equal the scalar reference
    /// model's recomputation.
    #[test]
    fn random_streams_match_scalar_reference_model() {
        smt_testkit::cases(40, |rng| {
            let size = 1usize << rng.range_usize(2, 6); // 4..32 slots
            let mut dut = BranchPredictor::new(size);
            let mut model = RefModel::new(size);
            // A few branch "sites", deliberately aliasing in small BTBs,
            // each with a per-site outcome behavior.
            let n_sites = rng.range_usize(2, 8);
            let sites: Vec<(usize, usize, u64)> = (0..n_sites)
                .map(|_| {
                    (
                        rng.range_usize(0, 4 * size), // pc
                        rng.range_usize(0, 1 << 20),  // target
                        rng.below(4),                 // behavior class
                    )
                })
                .collect();
            let mut correct = 0u64;
            let mut ref_correct = 0u64;
            let mut ref_hits = 0u64;
            let mut events = 0u64;
            for step in 0..400u64 {
                let &(pc, target, behavior) = rng.pick(&sites);
                let taken = match behavior {
                    0 => true,                // always taken
                    1 => false,               // never taken
                    2 => step % 2 == 0,       // alternating (worst case)
                    _ => rng.below(100) < 85, // biased taken
                };
                let pred = dut.predict(pc);
                let (ref_taken, ref_target, ref_hit) = model.predict(pc);
                assert_eq!(pred.taken, ref_taken, "prediction diverged at {pc}");
                if pred.taken {
                    assert_eq!(pred.target, ref_target, "target diverged at {pc}");
                }
                events += 1;
                ref_hits += u64::from(ref_hit);
                correct += u64::from(pred.taken == taken);
                ref_correct += u64::from(ref_taken == taken);
                dut.update(pc, taken, target);
                model.update(pc, taken, target);
                // Saturation bounds hold after every update, and every
                // resident counter agrees with the reference model's.
                for e in dut.entries.iter().flatten() {
                    assert!(e.counter <= 3, "counter escaped saturation: {}", e.counter);
                    let (tag, target, counter) = model.slots[&(e.pc % size)];
                    assert_eq!((tag, target, counter), (e.pc, e.target, e.counter));
                }
            }
            // Accuracy and traffic counters equal the scalar recomputation.
            assert_eq!(correct, ref_correct, "accuracy diverged from the model");
            assert_eq!(dut.stats().lookups, events);
            assert_eq!(dut.stats().updates, events);
            assert_eq!(dut.stats().btb_hits, ref_hits);
        });
    }

    /// Regression for the snapshot-hardening fix: a snapshot whose entry
    /// carries a counter outside the 2-bit saturation range must be
    /// rejected as malformed, not installed (an installed `counter > 3`
    /// overflows `counter + 1` in debug builds on the next taken update).
    #[test]
    fn restore_rejects_out_of_range_counter() {
        let mut good = BranchPredictor::new(4);
        good.update(1, true, 9);
        let mut w = smt_checkpoint::Writer::new();
        good.save(&mut w);
        let mut bytes = w.into_bytes();
        // Round-trips cleanly before corruption.
        assert!(BranchPredictor::new(4)
            .decode(&mut smt_checkpoint::Reader::new(&bytes))
            .is_ok());
        // Forge the counter byte: the stream holds `counter: u8 = 2` for
        // the single occupied slot; corrupt every byte equal to 2 that
        // follows an occupancy marker by scanning for the known layout is
        // brittle, so rebuild the stream by hand instead.
        let mut w = smt_checkpoint::Writer::new();
        w.put_usize(4); // BTB size
        w.put_u8(1); // slot 0 occupied
        w.put_usize(16); // pc (aliases to slot 0)
        w.put_usize(9); // target
        w.put_u8(7); // counter out of range
        for _ in 0..3 {
            w.put_u8(0); // slots 1..3 empty
        }
        w.put_u64(0);
        w.put_u64(0);
        w.put_u64(1);
        bytes = w.into_bytes();
        let err = BranchPredictor::new(4)
            .decode(&mut smt_checkpoint::Reader::new(&bytes))
            .unwrap_err();
        assert!(
            matches!(err, smt_checkpoint::DecodeError::Malformed(ref m) if m.contains("counter")),
            "expected a counter rejection, got {err:?}"
        );
    }

    /// Scalar reference model of gshare, written independently: maps for
    /// PHT and BTB, per-thread history recomputed by hand.
    struct RefGshare {
        pht: std::collections::HashMap<usize, u8>,
        btb: std::collections::HashMap<usize, (usize, usize)>,
        hist: Vec<u64>,
        size: usize,
    }

    impl RefGshare {
        fn new(size: usize, threads: usize) -> Self {
            RefGshare {
                pht: std::collections::HashMap::new(),
                btb: std::collections::HashMap::new(),
                hist: vec![0; threads],
                size,
            }
        }

        fn idx(&self, tid: usize, pc: usize) -> usize {
            (pc ^ self.hist[tid] as usize) % self.size
        }

        /// (taken, target, btb_hit)
        fn predict(&self, tid: usize, pc: usize) -> (bool, usize, bool) {
            let dir = self.pht.get(&self.idx(tid, pc)).copied().unwrap_or(0) >= 2;
            match self.btb.get(&(pc % self.size)) {
                Some(&(tag, target)) if tag == pc => (dir, target, true),
                _ => (false, 0, false),
            }
        }

        fn update(&mut self, tid: usize, pc: usize, taken: bool, target: usize) {
            let i = self.idx(tid, pc);
            let c = self.pht.entry(i).or_insert(0);
            if taken {
                *c = if *c >= 3 { 3 } else { *c + 1 };
                self.btb.insert(pc % self.size, (pc, target));
            } else if *c > 0 {
                *c -= 1;
            }
            self.hist[tid] = ((self.hist[tid] << 1) | u64::from(taken)) % self.size as u64;
        }
    }

    /// Property: gshare's predictions, traffic counters, and per-thread
    /// histories match the independent scalar model over random
    /// multi-thread branch streams.
    #[test]
    fn gshare_matches_scalar_reference_model() {
        smt_testkit::cases(40, |rng| {
            let size = 1usize << rng.range_usize(2, 6);
            let threads = rng.range_usize(1, 4);
            let mut dut = GsharePredictor::new(size, threads);
            let mut model = RefGshare::new(size, threads);
            let n_sites = rng.range_usize(2, 8);
            let sites: Vec<(usize, usize, u64)> = (0..n_sites)
                .map(|_| {
                    (
                        rng.range_usize(0, 4 * size),
                        rng.range_usize(0, 1 << 20),
                        rng.below(4),
                    )
                })
                .collect();
            let mut hits = 0u64;
            for step in 0..400u64 {
                let tid = rng.range_usize(0, threads);
                let &(pc, target, behavior) = rng.pick(&sites);
                let taken = match behavior {
                    0 => true,
                    1 => false,
                    2 => step % 2 == 0,
                    _ => rng.below(100) < 85,
                };
                let pred = dut.predict(tid, pc);
                let (ref_taken, ref_target, ref_hit) = model.predict(tid, pc);
                assert_eq!(pred.taken, ref_taken, "direction diverged at {pc}");
                if pred.taken {
                    assert_eq!(pred.target, ref_target, "target diverged at {pc}");
                }
                hits += u64::from(ref_hit);
                dut.update(tid, pc, taken, target);
                model.update(tid, pc, taken, target);
                for (t, &h) in dut.history.iter().enumerate() {
                    assert_eq!(h, model.hist[t], "history diverged for thread {t}");
                    assert!(h <= dut.hist_mask);
                }
                for &c in &dut.pht {
                    assert!(c <= 3, "PHT counter escaped saturation: {c}");
                }
            }
            assert_eq!(dut.stats().lookups, 400);
            assert_eq!(dut.stats().updates, 400);
            assert_eq!(dut.stats().btb_hits, hits);
        });
    }

    /// The point of gshare: a strictly alternating branch — the worst case
    /// for any 2-bit counter — becomes perfectly predictable once the
    /// history register captures the period.
    #[test]
    fn gshare_learns_an_alternating_branch_the_shared_btb_cannot() {
        let pc = 5;
        let mut gshare = GsharePredictor::new(64, 1);
        let mut shared = BranchPredictor::new(64);
        let mut gshare_correct = 0u32;
        let mut shared_correct = 0u32;
        for step in 0..200u32 {
            let taken = step % 2 == 0;
            let warm = step >= 32;
            if warm {
                gshare_correct += u32::from(gshare.predict(0, pc).taken == taken);
                shared_correct += u32::from(shared.predict(pc).taken == taken);
            }
            gshare.update(0, pc, taken, 40);
            shared.update(pc, taken, 40);
        }
        assert_eq!(gshare_correct, 168, "gshare should lock onto the period");
        assert!(
            shared_correct <= 84,
            "a 2-bit counter cannot beat chance on alternation, got {shared_correct}/168"
        );
    }

    /// Partition isolation: thread 0 saturating a branch site must not
    /// leak predictions into thread 1's table (the whole point of the
    /// partitioned family), while the shared BTB *does* cross-train.
    #[test]
    fn partitioned_tables_do_not_cross_train() {
        let mut part = PartitionedPredictor::new(128, 2);
        let mut shared = BranchPredictor::new(128);
        for _ in 0..4 {
            part.update(0, 7, true, 70);
            shared.update(7, true, 70);
        }
        assert!(part.predict(0, 7).taken, "trainer thread predicts taken");
        assert!(
            !part.predict(1, 7).taken,
            "partition must stay cold for the other thread"
        );
        assert!(shared.predict(7).taken, "shared BTB cross-trains by design");
    }

    #[test]
    fn partition_size_floors_to_a_power_of_two() {
        assert_eq!(PartitionedPredictor::partition_size(512, 1), 512);
        assert_eq!(PartitionedPredictor::partition_size(512, 4), 128);
        assert_eq!(PartitionedPredictor::partition_size(512, 6), 64);
        assert_eq!(PartitionedPredictor::partition_size(512, 8), 64);
        assert_eq!(PartitionedPredictor::partition_size(8, 16), 1);
        let p = PartitionedPredictor::new(512, 6);
        assert_eq!(p.n_threads(), 6);
        assert_eq!(p.slots_per_thread(), 64);
    }

    /// Decodes `bytes` into a cold predictor of the given shape.
    fn decoded(
        kind: PredictorKind,
        entries: usize,
        threads: usize,
        bytes: &[u8],
    ) -> Result<Predictor, smt_checkpoint::DecodeError> {
        let mut p = Predictor::build(kind, entries, threads);
        p.decode(&mut smt_checkpoint::Reader::new(bytes))
            .map(|()| p)
    }

    /// Every family round-trips through save/decode bit-identically:
    /// decoding a snapshot — over a predictor trained on a different
    /// stream — and saving again yields the same bytes.
    #[test]
    fn every_family_round_trips_bit_identically() {
        fn train(p: &mut Predictor, threads: usize, rng: &mut smt_testkit::Rng) {
            for _ in 0..200 {
                let tid = rng.range_usize(0, threads);
                let pc = rng.range_usize(0, 256);
                if rng.coin() {
                    let _ = p.predict(tid, pc);
                } else {
                    p.update(tid, pc, rng.coin(), rng.range_usize(0, 256));
                }
            }
        }
        smt_testkit::cases(12, |rng| {
            for kind in PredictorKind::ALL {
                let threads = rng.range_usize(1, 4);
                let mut p = Predictor::build(kind, 64, threads);
                train(&mut p, threads, rng);
                let mut w = smt_checkpoint::Writer::new();
                p.save(&mut w);
                let bytes = w.into_bytes();
                let mut restored = Predictor::build(kind, 64, threads);
                train(&mut restored, threads, rng);
                restored
                    .decode(&mut smt_checkpoint::Reader::new(&bytes))
                    .unwrap();
                assert_eq!(restored.kind(), kind);
                assert_eq!(restored.stats(), p.stats());
                let mut w2 = smt_checkpoint::Writer::new();
                restored.save(&mut w2);
                assert_eq!(w2.into_bytes(), bytes, "{kind} snapshot not bit-stable");
            }
        });
    }

    /// A snapshot whose family tag disagrees with the configured family is
    /// rejected (a shared-BTB snapshot cannot silently restore into a
    /// gshare machine).
    #[test]
    fn restore_rejects_family_mismatch() {
        let p = Predictor::build(PredictorKind::SharedBtb, 16, 2);
        let mut w = smt_checkpoint::Writer::new();
        p.save(&mut w);
        let bytes = w.into_bytes();
        let err = decoded(PredictorKind::Gshare, 16, 2, &bytes).unwrap_err();
        assert!(matches!(err, smt_checkpoint::DecodeError::Malformed(_)));
    }

    /// A snapshot sized for a different thread count is rejected for the
    /// thread-indexed families.
    #[test]
    fn restore_rejects_thread_count_mismatch() {
        for kind in [PredictorKind::Gshare, PredictorKind::PartitionedBtb] {
            let p = Predictor::build(kind, 64, 4);
            let mut w = smt_checkpoint::Writer::new();
            p.save(&mut w);
            let bytes = w.into_bytes();
            let err = decoded(kind, 64, 2, &bytes).unwrap_err();
            assert!(
                matches!(err, smt_checkpoint::DecodeError::Malformed(_)),
                "{kind} accepted a wrong-thread-count snapshot"
            );
        }
    }

    /// Gshare restore applies the same counter hardening as the shared
    /// BTB: out-of-range PHT bytes and overwide histories are malformed.
    #[test]
    fn gshare_restore_rejects_corrupt_state() {
        let g = GsharePredictor::new(4, 1);
        let mut w = smt_checkpoint::Writer::new();
        g.save(&mut w);
        let clean = w.into_bytes();

        // Corrupt the first PHT counter (first byte after the usize len).
        let mut bad = clean.clone();
        let pht_start = clean.len() - (4 + 4 + 8 + 8 + 24); // counters+slots+len+hist+stats
        bad[pht_start] = 9;
        assert!(GsharePredictor::new(4, 1)
            .decode(&mut smt_checkpoint::Reader::new(&bad))
            .is_err());

        // An overwide history register (mask for 4 entries is 0b11).
        let mut w = smt_checkpoint::Writer::new();
        w.put_usize(4);
        for _ in 0..4 {
            w.put_u8(0); // PHT
        }
        for _ in 0..4 {
            w.put_u8(0); // BTB empty
        }
        w.put_usize(1);
        w.put_u64(0xff); // history wider than the index
        w.put_u64(0);
        w.put_u64(0);
        w.put_u64(0);
        let bytes = w.into_bytes();
        let err = GsharePredictor::new(4, 1)
            .decode(&mut smt_checkpoint::Reader::new(&bytes))
            .unwrap_err();
        assert!(matches!(err, smt_checkpoint::DecodeError::Malformed(_)));
    }

    /// A length word in a snapshot never sizes a table: hand-built streams
    /// whose BTB, PHT, history or partition counts disagree with the
    /// configuration — including counts that would ask the allocator for
    /// terabytes — are refused with a typed error before any allocation.
    #[test]
    fn restore_bounds_every_length_by_the_configuration() {
        let stream = |words: &[usize]| {
            let mut w = smt_checkpoint::Writer::new();
            for &v in words {
                w.put_usize(v);
            }
            w.into_bytes()
        };
        let huge = 1usize << 40;
        let cases: [(PredictorKind, Vec<u8>); 5] = [
            // Family tag, then a power-of-two BTB size the config does not have.
            (
                PredictorKind::SharedBtb,
                [vec![0], stream(&[huge])].concat(),
            ),
            (
                PredictorKind::SharedBtb,
                [vec![0], stream(&[1024])].concat(),
            ),
            (PredictorKind::Gshare, [vec![1], stream(&[huge])].concat()),
            // A correct 16-slot gshare whose history count is unbounded.
            (
                PredictorKind::Gshare,
                [vec![1], stream(&[16]), vec![0; 32], stream(&[huge])].concat(),
            ),
            (
                PredictorKind::PartitionedBtb,
                [vec![2], stream(&[huge])].concat(),
            ),
        ];
        for (kind, bytes) in cases {
            let err = decoded(kind, 16, 2, &bytes).unwrap_err();
            assert!(
                matches!(err, smt_checkpoint::DecodeError::Malformed(ref m) if m.contains("configuration")),
                "{kind}: expected a length rejection, got {err:?}"
            );
        }
        // Right partition count, wrong partition size (a 16-slot budget
        // across 2 threads gives 8-slot partitions).
        let bytes = [vec![2], stream(&[2, 16])].concat();
        let err = decoded(PredictorKind::PartitionedBtb, 16, 2, &bytes).unwrap_err();
        assert!(matches!(err, smt_checkpoint::DecodeError::Malformed(_)));
    }
}
