//! [`Tracer`]: the everything bundle — lifecycle + CPI stack + occupancy
//! in one sink, for `smt-sim --trace` and the `fuzz` binary's
//! `--trace-on-divergence`, which want the whole picture from a single
//! run.

use crate::cpi::{CpiBreakdown, CpiStack};
use crate::event::{TraceEvent, TraceSink};
use crate::lifecycle::LifecycleRecorder;
use crate::occupancy::OccupancyStats;

/// Structure capacities the telemetry histograms are sized from (mirrors
/// the simulator configuration; `smt-trace` cannot depend on `smt-core`'s
/// `SimConfig` without a cycle, so callers copy the fields over).
#[derive(Clone, Copy, Debug)]
pub struct MachineShape {
    /// Decode/fetch width — slots per cycle (`block_size × fetch_threads`).
    pub width: u32,
    /// Scheduling-unit depth in entries.
    pub su_depth: u32,
    /// Scheduling-unit depth in blocks.
    pub su_blocks: u32,
    /// Store-buffer capacity.
    pub store_buffer: u32,
    /// Cache refill slots (MSHRs).
    pub mshrs: u32,
    /// Resident threads.
    pub threads: usize,
}

/// One sink fanning out to all three instruments.
#[derive(Clone, Debug)]
pub struct Tracer {
    /// Per-instruction lifecycle records.
    pub lifecycle: LifecycleRecorder,
    /// Slot-bandwidth attribution.
    pub cpi: CpiStack,
    /// Per-cycle structure occupancy.
    pub occupancy: OccupancyStats,
}

impl Tracer {
    /// A tracer sized for the machine, keeping at most `cap` lifecycle
    /// records (the youngest win).
    #[must_use]
    pub fn new(shape: MachineShape, cap: usize) -> Self {
        Tracer {
            lifecycle: LifecycleRecorder::new(cap),
            cpi: CpiStack::new(shape.width),
            occupancy: OccupancyStats::new(
                shape.su_depth,
                shape.su_blocks,
                shape.store_buffer,
                shape.mshrs,
                shape.threads,
            ),
        }
    }

    /// Restricts lifecycle recording to instructions decoded in
    /// `[start, end]` and keeps an occupancy series over up to
    /// `end - start + 1` cycles.
    #[must_use]
    pub fn with_window(mut self, start: u64, end: u64) -> Self {
        self.lifecycle = self.lifecycle.with_window(start, end);
        let span = usize::try_from(end.saturating_sub(start) + 1).unwrap_or(usize::MAX);
        self.occupancy = self.occupancy.with_series(span.min(1 << 20));
        self
    }

    /// Finishes the CPI accountant and returns the breakdown (consumes the
    /// tracer; take `lifecycle`/`occupancy` out first if needed).
    #[must_use]
    pub fn into_breakdown(self) -> CpiBreakdown {
        self.cpi.finish()
    }
}

impl TraceSink for Tracer {
    fn event(&mut self, ev: &TraceEvent<'_>) {
        self.lifecycle.event(ev);
        self.cpi.event(ev);
        self.occupancy.event(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Occupancy;

    #[test]
    fn fans_out_to_all_instruments() {
        let shape = MachineShape {
            width: 4,
            su_depth: 32,
            su_blocks: 8,
            store_buffer: 8,
            mshrs: 1,
            threads: 2,
        };
        let mut t = Tracer::new(shape, 64);
        let occ = Occupancy::default();
        t.event(&TraceEvent::CycleEnd {
            cycle: 0,
            occ: &occ,
        });
        assert_eq!(t.occupancy.su_entries.samples(), 1);
        let b = t.into_breakdown();
        assert_eq!(b.cycles, 1);
        assert_eq!(b.width, 4);
    }
}
