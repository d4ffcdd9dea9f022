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

use std::fs::File;
use std::io::Write as _;
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

/// An output file named by `flag`, created (with its directory) before
/// any simulation runs, so a path that cannot be written is refused up
/// front rather than after the whole report.
struct Output<'a> {
    path: &'a str,
    file: File,
}

impl<'a> Output<'a> {
    fn create(args: &'a Args, flag: &str) -> Result<Option<Self>, String> {
        let Some(path) = args.value(flag) else {
            return Ok(None);
        };
        let create = || {
            if let Some(dir) = std::path::Path::new(path).parent() {
                std::fs::create_dir_all(dir)?;
            }
            File::create(path)
        };
        let file = create().map_err(|e| format!("{flag}: cannot write {path}: {e}"))?;
        Ok(Some(Output { path, file }))
    }

    fn write(mut self, contents: &str) -> Result<(), String> {
        self.file
            .write_all(contents.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", self.path))?;
        eprintln!("[report] wrote {}", self.path);
        Ok(())
    }
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
    // Both outputs are open for the whole run; one file cannot be both.
    if args.value("--json").is_some() && args.value("--json") == args.value("--perf") {
        return Err("--json and --perf name the same file".into());
    }
    let json_out = Output::create(args, "--json")?;
    let perf_out = Output::create(args, "--perf")?;

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

    if let Some(out) = json_out {
        out.write(&json::tables_to_json(&tables))?;
    }
    if let Some(out) = perf_out {
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
        out.write(&perf)?;
    }
    Ok(ExitCode::SUCCESS)
}
