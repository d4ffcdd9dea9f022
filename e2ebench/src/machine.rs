//! Modelled-machine totals over a set of simulations, and the `core`
//! metrics every traced workload reports from them.

use smt_core::SimStats;

use crate::metrics::Values;
use crate::Guard;

/// Modelled-machine totals over a set of runs.
#[derive(Default)]
pub struct Machine {
    pub cycles: u64,
    pub committed: u64,
    pub accesses: u64,
    pub hits: u64,
    pub branches: u64,
    pub mispredicted: u64,
}

impl Machine {
    pub fn add(&mut self, s: &SimStats) {
        self.cycles += s.cycles;
        self.committed += s.committed_total();
        self.accesses += s.cache.accesses;
        self.hits += s.cache.hits;
        self.branches += s.branches.resolved;
        self.mispredicted += s.branches.mispredicted;
    }

    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.committed as f64 / self.cycles.max(1) as f64
    }

    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        100.0 * self.hits as f64 / self.accesses.max(1) as f64
    }

    #[must_use]
    pub fn branch_accuracy(&self) -> f64 {
        100.0 * (1.0 - self.mispredicted as f64 / self.branches.max(1) as f64)
    }

    #[must_use]
    pub fn guard(&self) -> Guard {
        Guard {
            sim_cycles: self.cycles,
            ipc: self.ipc(),
            hit_rate: Some(self.hit_rate()),
            branch_accuracy: Some(self.branch_accuracy()),
            evaluations: 0,
        }
    }
}

/// The `core` and modelled-machine metrics from a replay.
pub fn set_core(v: &mut Values, busy_s: f64, m: &Machine) {
    v.set("core.busy_s", busy_s);
    v.set("core.sim_cycles", m.cycles as f64);
    v.set("core.ns_per_cycle", busy_s * 1e9 / m.cycles.max(1) as f64);
    v.set("core.ipc", m.ipc());
    v.set("mem.hit_rate", m.hit_rate());
    v.set("uarch.branch_accuracy", m.branch_accuracy());
}
