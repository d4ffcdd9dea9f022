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
//! mixes; it, like a `--search` of a corpus kernel, loads the workload
//! corpus from `corpus/` unless `--corpus <dir>` points elsewhere.
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

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use smt_core::SimConfig;
use smt_experiments::cli::{self, Args, Flags};
use smt_experiments::explore::{run_search, EvalMode, SearchSpace};
use smt_experiments::sweep::{run_sweep, Grid, Scheduler, WorkRef, WorkSpec};
use smt_search::SearchParams;

const FLAGS: Flags = Flags {
    values: "--out --grid --scale --workers --checkpoint-every --corpus \
             --search --threads --space --warmup --seed",
    repeated: "",
    switches: "",
    positionals: 0,
};

fn main() -> ExitCode {
    cli::main("sweep", &FLAGS, run)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let out = Path::new(args.required("--out")?);
    let grid =
        Grid::named(args.value("--grid").unwrap_or("smoke")).map_err(|e| format!("--grid: {e}"))?;
    let search = args.parse_with("--search", WorkSpec::parse)?;
    // A grid or search that names corpus kernels (the hetero grid)
    // defaults the corpus to the repository's `corpus/` directory; either
    // accepts an explicit `--corpus <dir>`.
    let names_corpus = grid
        .workloads
        .iter()
        .chain(&search)
        .flat_map(WorkSpec::refs)
        .any(|r| matches!(r, WorkRef::Corpus(_)));
    let opts = args.sweep_options(names_corpus.then_some("corpus"))?;
    let io_error = |e: std::io::Error| format!("--out {}: {e}", out.display());

    if let Some(work) = search {
        // A kernel the corpus lacks would make every evaluation infeasible.
        for r in work.refs() {
            if let WorkRef::Corpus(name) = r {
                if opts.corpus.as_ref().is_none_or(|c| c.get(name).is_none()) {
                    return Err(format!(
                        "--search: {name:?} is neither a built-in benchmark nor a kernel \
                         of the corpus"
                    ));
                }
            }
        }
        let threads = args.get("--threads")?.unwrap_or(4);
        let machine = SimConfig::default().with_threads(threads);
        machine.validate().map_err(|e| format!("--threads: {e}"))?;
        let space = SearchSpace::named(args.value("--space"), work, threads)
            .map_err(|e| format!("--space: {e}"))?;
        let mode = EvalMode::from_warmup(args.get("--warmup")?);
        let params = SearchParams {
            seed: args.get("--seed")?.unwrap_or(0),
            ..SearchParams::default()
        };
        let began = Instant::now();
        let sched = Scheduler::new(out, opts).map_err(io_error)?;
        let report = run_search(&sched, &space, mode, &params).map_err(io_error)?;
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
        return Ok(ExitCode::SUCCESS);
    }

    let began = Instant::now();
    let summary = run_sweep(&grid, out, &opts).map_err(io_error)?;
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
    Ok(ExitCode::SUCCESS)
}
