//! Regenerates every table and figure of the paper's evaluation.
//!
//! By default the demanded simulations are first *recorded* (no execution),
//! then prewarmed in parallel across OS threads, and finally the tables are
//! generated serially from the warmed cache — byte-identical to a fully
//! serial run, just faster. See `runner.rs` for the mechanism.
//!
//! ```text
//! cargo run --release -p smt-experiments --bin report            # paper scale
//! cargo run --release -p smt-experiments --bin report -- --test  # tiny inputs
//! cargo run --release -p smt-experiments --bin report -- --json results.json
//! cargo run --release -p smt-experiments --bin report -- --serial  # no threads
//! cargo run --release -p smt-experiments --bin report -- --workers 8
//! cargo run --release -p smt-experiments --bin report -- --perf results/report_perf.json
//! ```

use std::process::ExitCode;
use std::time::Instant;

use smt_experiments::cli::{self, Args, Flags};
use smt_experiments::runner::Runner;
use smt_experiments::{figures, json, Cell};
use smt_workloads::Scale;

const FLAGS: Flags = Flags {
    values: "--json --perf --workers",
    repeated: "",
    switches: "--test --serial",
    positionals: 0,
};

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    let write = || {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, contents)
    };
    write().map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() -> ExitCode {
    cli::main("report", &FLAGS, run)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let scale = if args.switch("--test") {
        Scale::Test
    } else {
        Scale::Paper
    };
    let serial = args.switch("--serial");
    let workers = args.workers()?;
    let workers = if serial { 1 } else { workers };

    let start = Instant::now();
    let mut runner = Runner::new(scale);
    if workers > 1 {
        // Recording pass: collect every simulation the generators demand.
        let mut recorder = Runner::recorder(scale);
        for (_, generator) in figures::all() {
            let _ = generator(&mut recorder);
        }
        let jobs = recorder.into_recorded();
        eprintln!(
            "[report] prewarming {} demanded simulations on {workers} workers …",
            jobs.len()
        );
        runner.prewarm(&jobs, workers);
        eprintln!(
            "[report]   prewarmed {} unique runs in {:.1}s",
            runner.runs(),
            start.elapsed().as_secs_f64()
        );
    }

    let mut tables = Vec::new();
    for (name, generator) in figures::all() {
        eprintln!("[report] generating {name} …");
        let gen_start = Instant::now();
        let table = generator(&mut runner);
        eprintln!(
            "[report]   {name} done in {:.1}s ({} simulations so far)",
            gen_start.elapsed().as_secs_f64(),
            runner.runs()
        );
        println!("{table}");
        tables.push(table);
    }
    let wall = start.elapsed().as_secs_f64();
    let cycles = runner.sim_cycles();
    eprintln!(
        "[report] total verified simulations: {} ({} simulated cycles, {:.1}s wall, \
         {:.0} simulated cycles/s)",
        runner.runs(),
        cycles,
        wall,
        cycles as f64 / wall
    );

    if let Some(path) = args.value("--json") {
        write_file(path, &json::tables_to_json(&tables))?;
        eprintln!("[report] wrote {path}");
    }
    if let Some(path) = args.value("--perf") {
        let perf = json::object_to_json(&[
            ("scale", Cell::Text(format!("{scale:?}"))),
            ("serial", Cell::Bool(serial)),
            ("workers", Cell::Int(workers as u64)),
            ("simulations", Cell::Int(runner.runs())),
            ("simulated_cycles", Cell::Int(cycles)),
            ("wall_seconds", Cell::Float(wall)),
            (
                "simulated_cycles_per_second",
                Cell::Float(cycles as f64 / wall),
            ),
        ]);
        write_file(path, &perf)?;
        eprintln!("[report] wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}
