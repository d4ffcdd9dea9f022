//! Statistics collected over a simulation run.

use smt_checkpoint::{DecodeError, Reader, Writer};
use smt_isa::FuClass;
use smt_mem::CacheStats;

/// Branch-prediction accounting (conditional branches only; unconditional
/// jumps resolve at decode and never mispredict at execute).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BranchStats {
    /// Conditional branches resolved at execute.
    pub resolved: u64,
    /// Resolved branches whose fetch-time prediction was wrong.
    pub mispredicted: u64,
}

impl BranchStats {
    /// Prediction accuracy in percent (100 when no branches resolved).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.resolved == 0 {
            100.0
        } else {
            100.0 * (self.resolved - self.mispredicted) as f64 / self.resolved as f64
        }
    }
}

/// Per-functional-unit-class occupancy snapshot (for Table 3).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FuUsage {
    /// `(class, per-unit busy cycles)` — unit index in allocation order, so
    /// the last element of each vector is the "extra" unit of the enhanced
    /// configuration.
    pub busy_cycles: Vec<(FuClass, Vec<u64>)>,
}

impl FuUsage {
    /// Busy cycles of the last (extra) unit of `class`, as a percentage of
    /// `cycles` — the paper's Table 3 metric.
    #[must_use]
    pub fn extra_unit_pct(&self, class: FuClass, cycles: u64) -> f64 {
        let busy = self
            .busy_cycles
            .iter()
            .find(|(c, _)| *c == class)
            .and_then(|(_, units)| units.last().copied())
            .unwrap_or(0);
        if cycles == 0 {
            0.0
        } else {
            100.0 * busy as f64 / cycles as f64
        }
    }
}

/// Everything measured during a run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SimStats {
    /// Total cycles until every thread retired and the machine drained.
    pub cycles: u64,
    /// Instructions committed per thread.
    pub committed: Vec<u64>,
    /// Blocks fetched.
    pub fetched_blocks: u64,
    /// Cycles in which the selected thread could not fetch (empty slot).
    pub fetch_idle_cycles: u64,
    /// Cycles a decoded block could not enter a full scheduling unit
    /// (the paper's "scheduling unit stall").
    pub su_stall_cycles: u64,
    /// Instructions issued to functional units.
    pub issued: u64,
    /// Store issues rejected because the store buffer was full.
    pub store_buffer_full_stalls: u64,
    /// `WAIT` polls that found the condition unsatisfied.
    pub wait_spin_cycles: u64,
    /// Squashed (wrong-path) instructions discarded from the scheduling unit.
    pub squashed: u64,
    /// Sum of scheduling-unit occupancy (entries) over all cycles; divide by
    /// `cycles` for the average.
    pub su_occupancy_sum: u64,
    /// Branch-prediction accounting.
    pub branches: BranchStats,
    /// Data-cache counters.
    pub cache: CacheStats,
    /// Functional-unit occupancy.
    pub fu: FuUsage,
    /// `histogram[w]` = cycles in which exactly `w` instructions issued
    /// (length `issue_width + 1`).
    pub issue_histogram: Vec<u64>,
}

impl SimStats {
    /// Total committed instructions.
    #[must_use]
    pub fn committed_total(&self) -> u64 {
        self.committed.iter().sum()
    }

    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_total() as f64 / self.cycles as f64
        }
    }

    /// Instructions committed per cycle, per thread (indexed by tid).
    /// Cycles are shared — the per-thread IPCs sum to [`ipc`](Self::ipc) —
    /// so this is each thread's share of the machine's throughput, the
    /// fairness view the aggregate number hides.
    #[must_use]
    pub fn per_thread_ipc(&self) -> Vec<f64> {
        if self.cycles == 0 {
            return vec![0.0; self.committed.len()];
        }
        self.committed
            .iter()
            .map(|&c| c as f64 / self.cycles as f64)
            .collect()
    }

    /// Average scheduling-unit occupancy in entries.
    #[must_use]
    pub fn avg_su_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.su_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// The statistics of a machine that has not run: every counter zero,
    /// one commit counter per thread and `issue_width + 1` histogram bins,
    /// in the storage these statistics already own.
    pub(crate) fn reset(&mut self, threads: usize, issue_width: usize) {
        let mut committed = std::mem::take(&mut self.committed);
        let mut busy_cycles = std::mem::take(&mut self.fu.busy_cycles);
        let mut issue_histogram = std::mem::take(&mut self.issue_histogram);
        committed.clear();
        committed.resize(threads, 0);
        busy_cycles.clear();
        issue_histogram.clear();
        issue_histogram.resize(issue_width + 1, 0);
        *self = SimStats {
            committed,
            fu: FuUsage { busy_cycles },
            issue_histogram,
            ..SimStats::default()
        };
    }

    /// Serializes every field. The cache and functional-unit aggregates
    /// are copied from their owning structures only by the final fix-up
    /// of a run, but they are carried anyway so a snapshot of an
    /// already-finished machine round-trips exactly.
    pub(crate) fn save(&self, w: &mut Writer) {
        w.put_u64(self.cycles);
        w.put_usize(self.committed.len());
        for &c in &self.committed {
            w.put_u64(c);
        }
        w.put_u64(self.fetched_blocks);
        w.put_u64(self.fetch_idle_cycles);
        w.put_u64(self.su_stall_cycles);
        w.put_u64(self.issued);
        w.put_u64(self.store_buffer_full_stalls);
        w.put_u64(self.wait_spin_cycles);
        w.put_u64(self.squashed);
        w.put_u64(self.su_occupancy_sum);
        w.put_u64(self.branches.resolved);
        w.put_u64(self.branches.mispredicted);
        w.put_u64(self.cache.accesses);
        w.put_u64(self.cache.hits);
        w.put_u64(self.cache.misses);
        w.put_u64(self.cache.blocked);
        w.put_usize(self.fu.busy_cycles.len());
        for (class, per_unit) in &self.fu.busy_cycles {
            let ci = FuClass::ALL
                .iter()
                .position(|c| c == class)
                .expect("every class is in FuClass::ALL");
            w.put_usize(ci);
            w.put_usize(per_unit.len());
            for &busy in per_unit {
                w.put_u64(busy);
            }
        }
        w.put_usize(self.issue_histogram.len());
        for &bin in &self.issue_histogram {
            w.put_u64(bin);
        }
    }

    /// Replaces every field with [`save`](Self::save)d statistics of a
    /// machine with `threads` threads and issue width `issue_width`,
    /// reusing the storage these statistics own. Every field is written,
    /// so no reset need precede it.
    pub(crate) fn decode(
        &mut self,
        r: &mut Reader<'_>,
        threads: usize,
        issue_width: usize,
    ) -> Result<(), DecodeError> {
        self.cycles = r.take_u64()?;
        let n = r.take_usize()?;
        if n != threads {
            return Err(DecodeError::Malformed(format!(
                "commit counters for {n} threads, config has {threads}"
            )));
        }
        self.committed.clear();
        for _ in 0..n {
            self.committed.push(r.take_u64()?);
        }
        self.fetched_blocks = r.take_u64()?;
        self.fetch_idle_cycles = r.take_u64()?;
        self.su_stall_cycles = r.take_u64()?;
        self.issued = r.take_u64()?;
        self.store_buffer_full_stalls = r.take_u64()?;
        self.wait_spin_cycles = r.take_u64()?;
        self.squashed = r.take_u64()?;
        self.su_occupancy_sum = r.take_u64()?;
        self.branches = BranchStats {
            resolved: r.take_u64()?,
            mispredicted: r.take_u64()?,
        };
        self.cache = CacheStats {
            accesses: r.take_u64()?,
            hits: r.take_u64()?,
            misses: r.take_u64()?,
            blocked: r.take_u64()?,
        };
        let classes = r.take_usize()?;
        if classes > FuClass::ALL.len() {
            return Err(DecodeError::Malformed(format!(
                "{classes} functional-unit classes, machine has {}",
                FuClass::ALL.len()
            )));
        }
        let busy_cycles = &mut self.fu.busy_cycles;
        busy_cycles.truncate(classes);
        for i in 0..classes {
            let ci = r.take_usize()?;
            let class = *FuClass::ALL.get(ci).ok_or_else(|| {
                DecodeError::Malformed(format!("functional-unit class index {ci} out of range"))
            })?;
            if i == busy_cycles.len() {
                busy_cycles.push((class, Vec::new()));
            }
            let (slot_class, per_unit) = &mut busy_cycles[i];
            *slot_class = class;
            per_unit.clear();
            let units = r.take_usize()?;
            per_unit.reserve(units.min(64));
            for _ in 0..units {
                per_unit.push(r.take_u64()?);
            }
        }
        let bins = r.take_usize()?;
        if bins != issue_width + 1 {
            return Err(DecodeError::Malformed(format!(
                "issue histogram of {bins} bins for issue width {issue_width}"
            )));
        }
        self.issue_histogram.clear();
        for _ in 0..bins {
            self.issue_histogram.push(r.take_u64()?);
        }
        Ok(())
    }
}

/// The paper's speedup formula (Section 5.2):
/// `(Mt_perf − St_perf) / St_perf`, with performance the reciprocal of
/// cycle count. Returns a *fraction* (multiply by 100 for percent).
///
/// ```
/// use smt_core::stats::speedup;
/// // Multithreaded run took 2/3 the cycles: 50 % improvement.
/// assert!((speedup(3_000_000, 2_000_000) - 0.5).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if either cycle count is zero.
#[must_use]
pub fn speedup(single_thread_cycles: u64, multi_thread_cycles: u64) -> f64 {
    assert!(
        single_thread_cycles > 0 && multi_thread_cycles > 0,
        "cycle counts must be positive"
    );
    let st = 1.0 / single_thread_cycles as f64;
    let mt = 1.0 / multi_thread_cycles as f64;
    (mt - st) / st
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_totals() {
        let stats = SimStats {
            cycles: 100,
            committed: vec![120, 130],
            ..SimStats::default()
        };
        assert_eq!(stats.committed_total(), 250);
        assert!((stats.ipc() - 2.5).abs() < 1e-12);
        let per = stats.per_thread_ipc();
        assert!((per[0] - 1.2).abs() < 1e-12);
        assert!((per[1] - 1.3).abs() < 1e-12);
        assert!((per.iter().sum::<f64>() - stats.ipc()).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_edge_cases() {
        let stats = SimStats::default();
        assert_eq!(stats.ipc(), 0.0);
        assert_eq!(stats.avg_su_occupancy(), 0.0);
        assert_eq!(BranchStats::default().accuracy(), 100.0);
    }

    #[test]
    fn speedup_formula() {
        assert!((speedup(100, 100)).abs() < 1e-12);
        assert!(
            speedup(100, 150) < 0.0,
            "slower run is a negative improvement"
        );
        assert!((speedup(150, 100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn branch_accuracy() {
        let b = BranchStats {
            resolved: 200,
            mispredicted: 30,
        };
        assert!((b.accuracy() - 85.0).abs() < 1e-12);
    }

    #[test]
    fn fu_usage_lookup() {
        let usage = FuUsage {
            busy_cycles: vec![(FuClass::Load, vec![90, 45])],
        };
        assert!((usage.extra_unit_pct(FuClass::Load, 100) - 45.0).abs() < 1e-12);
        assert_eq!(usage.extra_unit_pct(FuClass::FpMul, 100), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn speedup_rejects_zero() {
        let _ = speedup(0, 10);
    }
}
