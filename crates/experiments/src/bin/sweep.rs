//! Resumable parallel design-space sweep over a declarative grid.
//!
//! Every finished cell lands in `<out>/cells/` keyed by the stable hashes
//! of its configuration and program plus the code version; in-flight
//! simulations snapshot to `<out>/ckpt/` every `--checkpoint-every`
//! cycles. Re-running the same command over the same `--out` directory is
//! the resume path: cached cells are reused, half-finished cells continue
//! from their last snapshot, and the merged `results.json` comes out
//! byte-identical to an uninterrupted run.
//!
//! Workers claim one cell at a time off a shared queue; built programs are
//! memoized per `(workload, threads)`, so each kernel is built once.
//!
//! ```text
//! cargo run --release -p smt-experiments --bin sweep -- --out target/sweep
//! cargo run --release -p smt-experiments --bin sweep -- \
//!     --out target/sweep --grid smoke --scale test --checkpoint-every 5000
//! cargo run --release -p smt-experiments --bin sweep -- \
//!     --out target/hetero --grid hetero --scale test
//! ```
//!
//! `--grid hetero` sweeps corpus kernels and heterogeneous per-thread
//! mixes; it loads the workload corpus from `corpus/` unless `--corpus
//! <dir>` points elsewhere.
//!
//! `--search <workload>` switches from exhaustive sweeping to the
//! deterministic Pareto search: seeded hill climbing over the
//! microarchitectural axes, maximizing IPC against the hardware-cost
//! model, with warm-forked measurements by default (`--warmup 0` forces
//! exact cold runs). It writes `search_trajectory.json` (byte-identical
//! across re-runs) and `search_frontier.json` into `--out`:
//!
//! ```text
//! cargo run --release -p smt-experiments --bin sweep -- \
//!     --out target/search --search sieve --threads 4 --seed 7 \
//!     --warmup 20000 --space full --scale test
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use smt_corpus::Corpus;
use smt_experiments::explore::{run_search, EvalMode, SearchSpace};
use smt_experiments::sweep::{run_sweep, Grid, Scheduler, SweepOptions, WorkRef, WorkSpec};
use smt_search::SearchParams;
use smt_workloads::Scale;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = PathBuf::from(
        flag_value(&args, "--out").expect("--out <dir> is required (cache and results live there)"),
    );
    let grid = Grid::named(flag_value(&args, "--grid").as_deref().unwrap_or("smoke"))
        .unwrap_or_else(|e| panic!("--grid: {e}"));
    let scale = match flag_value(&args, "--scale").as_deref() {
        None | Some("test") => Scale::Test,
        Some("paper") => Scale::Paper,
        Some(other) => panic!("--scale takes test|paper, not {other}"),
    };
    let mut opts = SweepOptions {
        scale,
        ..SweepOptions::default()
    };
    if let Some(w) = flag_value(&args, "--workers") {
        opts.workers = w.parse().expect("--workers takes a positive integer");
        assert!(opts.workers > 0, "--workers takes a positive integer");
    }
    if let Some(n) = flag_value(&args, "--checkpoint-every") {
        let n: u64 = n.parse().expect("--checkpoint-every takes a cycle count");
        assert!(n > 0, "--checkpoint-every takes a positive cycle count");
        opts.checkpoint_every = Some(n);
    }
    // Normally the crate version; overridable so the stale-cache path can
    // be exercised from the command line.
    if let Some(v) = flag_value(&args, "--code-version") {
        opts.code_version = v;
    }
    // A grid that names corpus kernels (the hetero grid) defaults the
    // corpus to the repository's `corpus/` directory; any grid accepts an
    // explicit `--corpus <dir>`.
    let names_corpus = grid
        .workloads
        .iter()
        .flat_map(WorkSpec::refs)
        .any(|r| matches!(r, WorkRef::Corpus(_)));
    let corpus_dir =
        flag_value(&args, "--corpus").or_else(|| names_corpus.then(|| "corpus".to_string()));
    if let Some(dir) = corpus_dir {
        let corpus = Corpus::load(&dir)
            .unwrap_or_else(|e| panic!("--corpus {dir}: cannot load the workload corpus: {e}"));
        opts.corpus = Some(Arc::new(corpus));
    }

    if let Some(workload) = flag_value(&args, "--search") {
        let work = WorkSpec::parse(&workload).unwrap_or_else(|e| panic!("--search: {e}"));
        let threads: usize = flag_value(&args, "--threads").map_or(4, |t| {
            t.parse().expect("--threads takes a positive integer")
        });
        let space = SearchSpace::named(flag_value(&args, "--space").as_deref(), work, threads)
            .unwrap_or_else(|e| panic!("--space: {e}"));
        let mode = EvalMode::from_warmup(
            flag_value(&args, "--warmup").map(|w| w.parse().expect("--warmup takes a cycle count")),
        );
        let params = SearchParams {
            seed: flag_value(&args, "--seed")
                .map_or(0, |s| s.parse().expect("--seed takes an integer")),
            ..SearchParams::default()
        };
        let began = Instant::now();
        let sched = Scheduler::new(&out, opts).expect("cannot open the result store");
        let report = run_search(&sched, &space, mode, &params).expect("search I/O failed");
        println!(
            "search: {} evaluations, {} climb steps, {}-point frontier ({mode} mode) in {:.1}s",
            report.outcome.evaluations.len(),
            report.outcome.steps.len(),
            report.frontier.len(),
            began.elapsed().as_secs_f64(),
        );
        for (spec, rec) in &report.frontier {
            println!(
                "search: frontier {} ipc={:.3} cost={}",
                spec.id(),
                rec.ipc,
                smt_experiments::explore::hardware_cost(spec),
            );
        }
        println!("search: trajectory at {}", report.trajectory_path.display());
        println!("search: frontier at {}", report.frontier_path.display());
        return;
    }

    let began = Instant::now();
    let summary = run_sweep(&grid, &out, &opts).expect("sweep I/O failed");
    let secs = began.elapsed().as_secs_f64();
    println!(
        "sweep: {} cells ({} executed, {} cached, {} resumed mid-flight, {} infeasible) \
         in {:.1}s with {} workers",
        summary.total,
        summary.executed,
        summary.cached,
        summary.resumed,
        summary.infeasible,
        secs,
        opts.workers,
    );
    println!(
        "sweep: {} cells, {} simulated cycles in {secs:.2}s = {:.2} Mcycles/s \
         ({} cache hits)",
        summary.total,
        summary.simulated_cycles,
        summary.simulated_cycles as f64 / secs / 1.0e6,
        summary.cached,
    );
    println!("sweep: results at {}", summary.results_path.display());
}
