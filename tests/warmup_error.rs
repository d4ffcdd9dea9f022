//! The approximation-error harness for warm-forked measurement.
//!
//! Warmup forking (`smt_experiments::explore`) trades exactness for
//! speed: one canonical-machine warmup is shared across every
//! microarchitectural variant, and each variant only simulates the
//! measurement window from the forked architectural state. That makes
//! the measured IPC *approximate* — the warmup transient ran under the
//! canonical machine, and the variant's caches and predictors re-warm
//! inside the window. This suite measures that approximation against
//! full-run ground truth and **enforces** the documented bound, so the
//! error budget is a tested property of the repository rather than a
//! hope.
//!
//! Shape: ≥8 workloads (builtins, corpus kernels, and a two-way
//! heterogeneous mix) × 3 variant axes (scheduling-unit depth; cache
//! geometry + predictor family; fetch policy + speculation limit).
//! For every cell we compare the warm-forked measurement-window IPC
//! against the exact cold full run of the *same* variant and assert the
//! relative error stays within [`IPC_ERROR_BOUND`]. On violation the
//! harness fails with the complete per-cell error table, not just the
//! first offender.
//!
//! The bound itself was picked by measurement (see EXPERIMENTS.md,
//! "Warmup error bound"): at `Scale::Test` the kernels retire within a
//! few thousand cycles, so the warmup window is a substantial fraction
//! of the whole run — the test-scale bound is correspondingly loose.
//! The EXPERIMENTS.md study shows the error shrinking as the measured
//! window grows relative to the warmup.

use std::path::PathBuf;
use std::sync::Arc;

use smt_core::{FetchPolicy, PredictorKind};
use smt_corpus::Corpus;
use smt_experiments::explore::{EvalMode, Explorer, SearchSpace};
use smt_experiments::sweep::{CellRecord, CellSpec, CellStatus, Scheduler, SweepOptions, WorkSpec};
use smt_mem::CacheKind;
use smt_workloads::{Scale, WorkloadKind};

/// Documented relative-IPC error bound for warm-forked measurement at
/// test scale, as a fraction (0.25 = 25%). Measured headroom: the
/// worst observed cell across this matrix sits well under it (see the
/// EXPERIMENTS.md study); the bound fails if forking ever starts
/// corrupting measurement rather than approximating it.
const IPC_ERROR_BOUND: f64 = 0.25;

/// Mean relative error across the whole matrix must be far tighter
/// than the per-cell worst case — warm forking is only useful if it is
/// unbiased enough to rank machines.
const MEAN_ERROR_BOUND: f64 = 0.10;

/// Warmup length (canonical-machine cycles) used throughout — roughly
/// a fifth of the shortest kernel in the matrix at test scale.
const WARMUP: u64 = 300;

struct Case {
    work: &'static str,
    threads: usize,
}

/// ≥8 workloads: six builtins, two corpus kernels, one two-way mix.
const CASES: &[Case] = &[
    Case {
        work: "ll1",
        threads: 4,
    },
    Case {
        work: "ll2",
        threads: 4,
    },
    Case {
        work: "ll7",
        threads: 4,
    },
    Case {
        work: "laplace",
        threads: 4,
    },
    Case {
        work: "matrix",
        threads: 4,
    },
    Case {
        work: "water",
        threads: 4,
    },
    Case {
        work: "quicksort",
        threads: 4,
    },
    Case {
        work: "matmul",
        threads: 2,
    },
    Case {
        work: "mpd+matmul",
        threads: 2,
    },
];

/// One variant per searched axis family, each away from the canonical
/// machine in a different direction.
struct Variant {
    tag: &'static str,
    apply: fn(&mut SearchSpace),
}

const VARIANTS: &[Variant] = &[
    Variant {
        tag: "su16",
        apply: |s| s.grid.su_depths = vec![16],
    },
    Variant {
        tag: "dm+gshare",
        apply: |s| {
            s.grid.caches = vec![CacheKind::DirectMapped];
            s.grid.predictors = vec![PredictorKind::Gshare];
        },
    },
    Variant {
        tag: "ic+sd2",
        apply: |s| {
            s.grid.policies = vec![FetchPolicy::Icount];
            s.grid.spec_depths = vec![2];
        },
    },
];

struct Row {
    id: String,
    full_ipc: f64,
    warm_ipc: f64,
    error: f64,
    forked: bool,
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smt-warmup-err-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus() -> Arc<Corpus> {
    Arc::new(
        Corpus::load(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
            .expect("repository corpus loads"),
    )
}

/// The smoke space collapsed to a single point: the canonical paper
/// machine at this workload/thread count, before a variant is applied.
fn singleton(work: WorkSpec, threads: usize) -> SearchSpace {
    let mut s = SearchSpace::smoke(work, threads);
    s.grid.policies = vec![FetchPolicy::TrueRoundRobin];
    s.grid.predictors = vec![PredictorKind::SharedBtb];
    s.grid.fetch_threads = vec![1];
    s.grid.fetch_widths = vec![4];
    s.grid.su_depths = vec![32];
    s.grid.caches = vec![CacheKind::SetAssociative];
    s.grid.spec_depths = vec![0];
    s
}

fn warm_record(sched: &Scheduler, space: &SearchSpace) -> (CellSpec, CellRecord) {
    let mut explorer = Explorer::new(sched, space.clone(), EvalMode::Warm { warmup: WARMUP })
        .expect("warm namespaces open");
    let origin = vec![0usize; 7];
    explorer.objectives(&origin);
    explorer
        .record(&origin)
        .expect("the evaluated point has a record")
        .clone()
}

fn table(rows: &[Row]) -> String {
    let mut out = String::from(
        "cell                                     full-ipc  warm-ipc  rel-err  path\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<40} {:>8.4}  {:>8.4}  {:>6.2}%  {}\n",
            r.id,
            r.full_ipc,
            r.warm_ipc,
            100.0 * r.error,
            if r.forked { "forked" } else { "fallback" },
        ));
    }
    out
}

#[test]
fn warm_forked_ipc_stays_within_the_documented_error_bound() {
    let out = scratch("bound");
    let opts = SweepOptions {
        scale: Scale::Test,
        corpus: Some(corpus()),
        ..SweepOptions::default()
    };
    let sched = Scheduler::new(&out, opts).expect("store opens");

    let mut rows = Vec::new();
    for case in CASES {
        let work = WorkSpec::parse(case.work).expect("case workload parses");
        for variant in VARIANTS {
            let mut space = singleton(work.clone(), case.threads);
            (variant.apply)(&mut space);
            let (spec, warm) = warm_record(&sched, &space);
            assert_eq!(
                warm.status,
                CellStatus::Done,
                "{}: every matrix cell is feasible: {}",
                warm.id,
                warm.reason
            );
            let full = sched.run_cell(&spec, false, &mut |_| {}).rec;
            assert_eq!(
                full.status,
                CellStatus::Done,
                "{}: ground truth runs",
                full.id
            );
            rows.push(Row {
                id: format!("{} [{}]", warm.id, variant.tag),
                full_ipc: full.ipc,
                warm_ipc: warm.ipc,
                error: (warm.ipc - full.ipc).abs() / full.ipc,
                forked: warm.reason.is_empty(),
            });
        }
    }

    let forked = rows.iter().filter(|r| r.forked).count();
    assert!(
        forked * 2 > rows.len(),
        "the harness must exercise real forks, not the cold fallback \
         ({forked}/{} forked):\n{}",
        rows.len(),
        table(&rows)
    );
    let worst = rows
        .iter()
        .max_by(|a, b| a.error.total_cmp(&b.error))
        .expect("matrix is non-empty");
    assert!(
        worst.error <= IPC_ERROR_BOUND,
        "worst-case relative IPC error {:.2}% exceeds the documented {:.0}% bound at {}\n{}",
        100.0 * worst.error,
        100.0 * IPC_ERROR_BOUND,
        worst.id,
        table(&rows)
    );
    let mean = rows.iter().map(|r| r.error).sum::<f64>() / rows.len() as f64;
    assert!(
        mean <= MEAN_ERROR_BOUND,
        "mean relative IPC error {:.2}% exceeds the documented {:.0}% bound\n{}",
        100.0 * mean,
        100.0 * MEAN_ERROR_BOUND,
        table(&rows)
    );
    println!(
        "warmup-error matrix ({} cells, {} forked, warmup {WARMUP}): \
         worst {:.2}%, mean {:.2}%\n{}",
        rows.len(),
        forked,
        100.0 * worst.error,
        100.0 * mean,
        table(&rows)
    );
    let _ = std::fs::remove_dir_all(&out);
}

/// Reproduction path for the EXPERIMENTS.md error-vs-warmup study:
/// prints the relative-IPC error of warm-forked measurement at a range
/// of warmup lengths. Ignored by default (it is a report, not a gate);
/// run with `cargo test --release --test warmup_error -- --ignored
/// --nocapture`.
#[test]
#[ignore = "report generator for EXPERIMENTS.md, not a gate"]
fn print_error_vs_warmup_curve() {
    let out = scratch("curve");
    let opts = SweepOptions {
        scale: Scale::Test,
        corpus: Some(corpus()),
        ..SweepOptions::default()
    };
    let sched = Scheduler::new(&out, opts).expect("store opens");
    let works: &[(&str, usize)] = &[("laplace", 4), ("ll7", 4), ("matrix", 4), ("quicksort", 4)];
    println!("workload      warmup  full-ipc  warm-ipc  rel-err  path");
    for &(work, threads) in works {
        let mut space = singleton(WorkSpec::parse(work).expect("parses"), threads);
        (VARIANTS[1].apply)(&mut space);
        let spec = space.spec_at(&[0; 7]);
        let full = sched.run_cell(&spec, false, &mut |_| {}).rec;
        for warmup in [100, 200, 300, 600, 900] {
            let mut explorer = Explorer::new(&sched, space.clone(), EvalMode::Warm { warmup })
                .expect("warm namespaces open");
            explorer.objectives(&[0; 7]);
            let (_, warm) = explorer.record(&[0; 7]).expect("record").clone();
            println!(
                "{work:<12} {warmup:>7}  {:>8.4}  {:>8.4}  {:>6.2}%  {}",
                full.ipc,
                warm.ipc,
                100.0 * (warm.ipc - full.ipc).abs() / full.ipc,
                if warm.reason.is_empty() {
                    "forked"
                } else {
                    "fallback"
                },
            );
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// Longer warmups must not *grow* the error systematically: the error
/// at double the harness warmup stays within the same per-cell bound.
/// (The full error-vs-warmup curve lives in EXPERIMENTS.md.)
#[test]
fn doubling_the_warmup_keeps_the_bound() {
    let out = scratch("double");
    let opts = SweepOptions {
        scale: Scale::Test,
        ..SweepOptions::default()
    };
    let sched = Scheduler::new(&out, opts).expect("store opens");
    let space = singleton(WorkloadKind::Laplace.into(), 4);
    let spec = space.spec_at(&[0; 7]);
    let full = sched.run_cell(&spec, false, &mut |_| {}).rec;

    for warmup in [WARMUP, 2 * WARMUP] {
        let mut explorer = Explorer::new(&sched, space.clone(), EvalMode::Warm { warmup })
            .expect("warm namespaces open");
        explorer.objectives(&[0; 7]);
        let (_, warm) = explorer.record(&[0; 7]).expect("record").clone();
        assert!(warm.reason.is_empty(), "laplace is long enough to fork");
        let error = (warm.ipc - full.ipc).abs() / full.ipc;
        assert!(
            error <= IPC_ERROR_BOUND,
            "warmup {warmup}: relative error {:.2}% exceeds {:.0}%",
            100.0 * error,
            100.0 * IPC_ERROR_BOUND
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}
