//! Steady-state stepping must never touch the heap: every queue, slab,
//! and scratch buffer is pre-sized from `SimConfig` at construction (or
//! grown to its high-water mark during the first few hundred cycles) and
//! reused thereafter. A counting global allocator proves it — this lives
//! in its own integration-test binary because `#[global_allocator]` is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smt_core::{FetchPolicy, PredictorKind, RenamingMode, SimConfig, Simulator};
use smt_workloads::{workload, Scale, WorkloadKind};

/// Counts allocation events (alloc + realloc); frees are not interesting
/// — a free implies a matching earlier allocation.
struct CountingAlloc;

thread_local! {
    /// Per-thread count: the test harness runs the tests on parallel
    /// threads, and one test's set-up must not count against another's
    /// measured window.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation events across `cycles` steps of a warmed-up simulation of
/// the default 4-thread machine.
fn steady_state_allocs(kind: WorkloadKind, warmup: u64, cycles: u64) -> u64 {
    steady_state_allocs_under(SimConfig::default(), kind, warmup, cycles)
}

/// Allocation events across `cycles` steps of a warmed-up simulation under
/// `config`.
fn steady_state_allocs_under(
    config: SimConfig,
    kind: WorkloadKind,
    warmup: u64,
    cycles: u64,
) -> u64 {
    let program = workload(kind, Scale::Paper)
        .build(config.threads)
        .expect("kernel fits");
    let mut sim = Simulator::new(config, &program);
    for _ in 0..warmup {
        assert!(!sim.finished(), "workload too short to reach steady state");
        sim.step().expect("steps");
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..cycles {
        assert!(!sim.finished(), "workload too short to hold steady state");
        sim.step().expect("steps");
    }
    let n = ALLOCS.with(Cell::get) - before;
    println!("{kind:?}: {n} allocation events across {cycles} steady-state cycles");
    n
}

#[test]
fn matrix_steady_state_makes_no_heap_allocations() {
    assert_eq!(steady_state_allocs(WorkloadKind::Matrix, 2_000, 10_000), 0);
}

#[test]
fn ll7_steady_state_makes_no_heap_allocations() {
    // Recorded for the record alongside Matrix: LL7's recurrence chains
    // drive different queue high-water marks, and it too settles to zero.
    // (The whole paper-scale run is 9063 cycles, so the window is smaller.)
    assert_eq!(steady_state_allocs(WorkloadKind::Ll7, 2_000, 5_000), 0);
}

#[test]
fn two_port_eight_wide_fetch_steady_state_makes_no_heap_allocations() {
    // An 8-wide fetch group is wider than a 4-entry scheduling-unit block,
    // so decode drains it over two cycles; the remainder must keep the
    // group's own storage.
    let config = SimConfig::default()
        .with_fetch_policy(FetchPolicy::Icount)
        .with_predictor(PredictorKind::Gshare)
        .with_fetch_threads(2)
        .with_fetch_width(8);
    assert_eq!(
        steady_state_allocs_under(config, WorkloadKind::Matrix, 2_000, 10_000),
        0
    );
}

#[test]
fn scoreboard_renaming_steady_state_makes_no_heap_allocations() {
    // Scoreboard renaming holds the rest of a group whose operand is still
    // in flight; the held remainder must keep the group's own storage.
    let config = SimConfig::default().with_renaming(RenamingMode::Scoreboard);
    assert_eq!(
        steady_state_allocs_under(config, WorkloadKind::Matrix, 2_000, 10_000),
        0
    );
}
