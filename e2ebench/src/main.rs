//! End-to-end benchmark of the simulator's user workflows.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload report|serve|search|fuzz --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs on one simulation thread in this one process, makes
//! its inputs from `--seed`, repeats its fixed work for about `--seconds`
//! seconds, checks every output, and prints a human-readable summary
//! followed by one JSON line: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). `README.md` beside this file documents
//! the workloads, the metrics and what each layer should move.
//!
//! `--record serve|search` regenerates the digests under `data/` that the
//! `serve` and `search` workloads check their outputs against.

mod fuzz;
mod machine;
mod metrics;
mod report;
mod search;
mod serve;
mod span;
mod stats;

use std::fmt::Write as _;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use metrics::Values;
use smt_checkpoint::StableHasher;
use span::Trace;

/// Every workload the benchmark runs. `BENCHMARK.json` declares `serve`
/// and `fuzz` only: on a shared two-vCPU host, ten runs of `report`
/// spread beyond any bound, and the medians of two sets of `search` moved
/// 14–17% (see `README.md`), so they run by name but are not gated.
/// A traced run fills the layers its workload does not cross from the
/// others in this order, so `checkpoint` is timed at `fuzz`'s splices
/// before `search`'s warm snapshot.
pub const WORKLOADS: [&str; 4] = ["report", "serve", "fuzz", "search"];

/// Each repetition starts with this many timed setups, keeping the last
/// fixture for its fixed work.
const SETUPS_PER_REP: usize = 5;
/// Within a repetition, one more setup is timed (and torn down) between
/// units of fixed work — requests, seeds, generators — whenever this many
/// seconds have passed since the last, so the run's setup samples span its
/// whole measuring window rather than a few repetition boundaries.
const SETUP_PACE_S: f64 = 0.05;
/// `setup_s` is this percentile of the run's setup samples: the lower
/// quartile resists the host's slow phases, which last seconds.
const SETUP_PERCENTILE: f64 = 25.0;

/// Everything a workload needs to know about the run.
pub struct Ctx {
    /// The repository root (holds `results/`, `corpus/`).
    pub root: PathBuf,
    /// Scratch space for stores, removed when the run ends.
    pub work: PathBuf,
    pub seed: u64,
}

impl Ctx {
    /// Data files recorded with the benchmark.
    #[must_use]
    pub fn data(&self, name: &str) -> PathBuf {
        self.root.join("e2ebench").join("data").join(name)
    }
}

/// Counters a deterministic simulator must repeat exactly, run after run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Guard {
    pub sim_cycles: u64,
    pub ipc: f64,
    /// `None` where the workload's untraced path has no cache statistics.
    pub hit_rate: Option<f64>,
    pub branch_accuracy: Option<f64>,
    pub evaluations: u64,
}

impl Guard {
    /// One line naming every counter, with full float precision.
    #[must_use]
    pub fn line(&self) -> String {
        let opt = |v: Option<f64>| v.map_or("-".to_string(), |v| v.to_string());
        format!(
            "core.sim_cycles={} core.ipc={} mem.hit_rate={} uarch.branch_accuracy={} search.evaluations={}",
            self.sim_cycles,
            self.ipc,
            opt(self.hit_rate),
            opt(self.branch_accuracy),
            self.evaluations
        )
    }
}

/// One repetition of a workload's fixed work.
#[derive(Default)]
pub struct Rep {
    /// Host seconds for the fixed work.
    pub wall_s: f64,
    /// Simulated cycles stepped by the fixed work.
    pub sim_cycles: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of the first failures.
    pub problems: Vec<String>,
    pub guard: Guard,
    /// Serve only: first-visit and revisit request latencies in ms.
    pub latencies: Option<(Vec<f64>, Vec<f64>)>,
}

impl Rep {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }
}

/// What a traced pass produced.
#[derive(Default)]
pub struct Traced {
    pub values: Values,
    /// Seconds the workload's own calls took inside the trace (replays
    /// excluded), for `bench.trace_overhead`.
    pub workload_s: f64,
    pub rep: Rep,
}

/// How much of a gated workload a traced pass runs. The ungated `report`
/// and `search` always run whole, so every traced run measures their
/// layers on their full fixed work.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The workload's whole fixed work.
    Full,
    /// A small fixed slice, timing the layers another workload does not
    /// cross.
    Probe,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    if let Some(what) = value("--record") {
        return Ok(Args {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            record: Some(what.clone()),
        });
    }
    let workload = value("--workload").ok_or("--workload is required")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (have {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .ok_or("--seconds is required")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds takes a value in (0, 600]".into());
    }
    let trace = match value("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        record: None,
    })
}

/// The repository this benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed N --seconds S [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    let work = root
        .join(".bench_work")
        .join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        root,
        work,
        seed: args.seed,
    };
    let out = match args.record.as_deref() {
        Some("serve") => serve::record(&ctx).map(|()| None),
        Some("search") => search::record(&ctx).map(|()| None),
        Some(other) => Err(format!("--record takes serve|search, not {other}")),
        None if args.trace => traced_run(&ctx, &args.workload).map(Some),
        None => untraced_run(&ctx, &args.workload, args.seconds).map(Some),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    match out {
        Ok(Some(text)) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A workload's fixed work on a fixture. It calls `between` between its
/// units of work and leaves that time out of its `wall_s`.
type Run<'a, F> = &'a dyn Fn(&Ctx, &mut F, &mut dyn FnMut()) -> Rep;

/// Times one setup, appending its seconds to `samples`.
fn timed_setup<F>(
    ctx: &Ctx,
    setup: &dyn Fn(&Ctx, usize) -> Result<F, String>,
    counter: &mut usize,
    samples: &mut Vec<f64>,
) -> Result<F, String> {
    *counter += 1;
    let t = Instant::now();
    let f = setup(ctx, *counter)?;
    samples.push(t.elapsed().as_secs_f64());
    Ok(f)
}

/// Repeats set-up plus fixed work until about `seconds` have passed.
/// Returns every setup sample and every repetition.
fn repeat<F>(
    ctx: &Ctx,
    seconds: f64,
    setup: &dyn Fn(&Ctx, usize) -> Result<F, String>,
    run: Run<'_, F>,
    teardown: &dyn Fn(F),
) -> Result<(Vec<f64>, Vec<Rep>), String> {
    let began = Instant::now();
    let mut samples = Vec::new();
    let mut reps = Vec::new();
    let mut counter = 0;
    loop {
        let rep_began = Instant::now();
        let mut fixture = timed_setup(ctx, setup, &mut counter, &mut samples)?;
        for _ in 1..SETUPS_PER_REP {
            teardown(fixture);
            fixture = timed_setup(ctx, setup, &mut counter, &mut samples)?;
        }
        let mut failure = None;
        let mut last_setup = Instant::now();
        let mut between = || {
            if failure.is_some() || last_setup.elapsed().as_secs_f64() < SETUP_PACE_S {
                return;
            }
            match timed_setup(ctx, setup, &mut counter, &mut samples) {
                Ok(spare) => teardown(spare),
                Err(e) => failure = Some(e),
            }
            last_setup = Instant::now();
        };
        reps.push(run(ctx, &mut fixture, &mut between));
        teardown(fixture);
        if let Some(e) = failure {
            return Err(e);
        }
        // Stop once another repetition would end more than half a
        // repetition past the measuring window.
        let last = rep_began.elapsed().as_secs_f64();
        if began.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            break;
        }
    }
    Ok((samples, reps))
}

fn untraced_run(ctx: &Ctx, workload: &str, seconds: f64) -> Result<String, String> {
    let (setups, reps) = match workload {
        "report" => repeat(ctx, seconds, &report::setup, &report::run, &drop),
        "serve" => repeat(ctx, seconds, &serve::setup, &serve::run, &serve::teardown),
        "search" => repeat(
            ctx,
            seconds,
            &search::setup,
            &search::run,
            &search::teardown,
        ),
        "fuzz" => repeat(ctx, seconds, &fuzz::setup, &fuzz::run, &fuzz::teardown),
        _ => unreachable!("workload names are validated"),
    }?;
    let mut out = String::new();
    let (attempted, failed) = tally(ctx, workload, false, &reps, &mut out);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.sim_cycles as f64 / r.wall_s / 1e6)
        .collect();
    let mut values = Values::default();
    values.set("setup_s", stats::percentile(&setups, SETUP_PERCENTILE));
    values.set("wall_s", stats::median(&walls));
    values.set("sim_mcycles_per_s", stats::median(&rates));
    values.set("peak_rss_mb", stats::peak_rss_mb());
    let _ = writeln!(
        out,
        "{workload}: seed {} · {} repetitions · {} setups",
        ctx.seed,
        reps.len(),
        setups.len()
    );
    let _ = writeln!(
        out,
        "  setup (ms): min {:.4} · p{SETUP_PERCENTILE} {:.4} · median {:.4}",
        stats::percentile(&setups, 0.0) * 1e3,
        stats::percentile(&setups, SETUP_PERCENTILE) * 1e3,
        stats::median(&setups) * 1e3
    );
    let _ = writeln!(
        out,
        "  wall per repetition (s): {}",
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if let Some(lines) = serve::latency_lines(&reps) {
        out.push_str(&lines);
    }
    finish(out, &values, &metrics::END_TO_END, attempted, failed)
}

/// Checks the exact-repeat guard across repetitions and against earlier
/// runs of the same binary, prints problems, and sums the counts.
fn tally(ctx: &Ctx, workload: &str, traced: bool, reps: &[Rep], out: &mut String) -> (u64, u64) {
    let mut attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    for r in reps {
        for p in &r.problems {
            let _ = writeln!(out, "  FAILED: {p}");
        }
    }
    let first = &reps[0].guard;
    let _ = writeln!(out, "  exact-repeat: {}", first.line());
    for (i, r) in reps.iter().enumerate().skip(1) {
        attempted += 1;
        if r.guard != *first {
            failed += 1;
            let _ = writeln!(
                out,
                "  FAILED: repetition {} counters differ: {}",
                i + 1,
                r.guard.line()
            );
        }
    }
    match guard_history(ctx, workload, traced, first) {
        Ok(None) => {}
        Ok(Some(earlier)) => {
            attempted += 1;
            if earlier != first.line() {
                failed += 1;
                let _ = writeln!(
                    out,
                    "  FAILED: counters differ from an earlier run of this binary: {earlier}"
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "  note: exact-repeat history unavailable: {e}");
        }
    }
    (attempted, failed)
}

/// The guard line an earlier run of this very binary recorded for the same
/// workload, seed and mode (recording this one if it is the first).
fn guard_history(
    ctx: &Ctx,
    workload: &str,
    traced: bool,
    guard: &Guard,
) -> Result<Option<String>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut binary = StableHasher::default();
    binary.write(&std::fs::read(&exe).map_err(|e| e.to_string())?);
    let dir = ctx.root.join(".bench_work").join("guard");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "{:016x}-{workload}-{}-t{}",
        binary.finish(),
        ctx.seed,
        u8::from(traced)
    ));
    match std::fs::read_to_string(&path) {
        Ok(line) => Ok(Some(line)),
        Err(_) => {
            std::fs::write(&path, guard.line()).map_err(|e| e.to_string())?;
            Ok(None)
        }
    }
}

fn traced_run(ctx: &Ctx, workload: &str) -> Result<String, String> {
    // Baseline: one untraced repetition of the same fixed work.
    let baseline = match workload {
        "report" => once(ctx, &report::setup, &report::run, &drop),
        "serve" => once(ctx, &serve::setup, &serve::run, &serve::teardown),
        "search" => once(ctx, &search::setup, &search::run, &search::teardown),
        "fuzz" => once(ctx, &fuzz::setup, &fuzz::run, &fuzz::teardown),
        _ => unreachable!("workload names are validated"),
    }?;
    let mut trace = Trace::new();
    let pass = |name: &str, size: Size, trace: &mut Trace| -> Result<Traced, String> {
        match name {
            "report" => report::traced(ctx, trace),
            "serve" => serve::traced(ctx, size, trace),
            "search" => search::traced(ctx, trace),
            "fuzz" => fuzz::traced(ctx, size, trace),
            _ => unreachable!("workload names are validated"),
        }
    };
    let main = pass(workload, Size::Full, &mut trace)?;
    let mut values = main.values;
    values.set(
        "bench.trace_overhead",
        main.workload_s / baseline.wall_s.max(1e-9) - 1.0,
    );
    let mut reps = vec![main.rep, baseline];
    // Layers this workload does not cross are timed on passes of the
    // workloads that do.
    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        let probe = pass(other, Size::Probe, &mut trace)?;
        values.fill_from(&probe.values);
        reps.push(probe.rep);
    }
    let mut out = String::new();
    let (attempted, failed) = tally(ctx, workload, true, &reps[..1], &mut out);
    let (more_attempted, more_failed) = reps[1..]
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    for r in &reps[1..] {
        for p in &r.problems {
            let _ = writeln!(out, "  FAILED (baseline or probe): {p}");
        }
    }
    let path = ctx
        .root
        .join(".bench_work")
        .join("trace")
        .join(format!("{workload}-seed{}.spans.jsonl", ctx.seed));
    trace
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let _ = writeln!(
        out,
        "{workload}: traced seed {} · {} spans written to {}",
        ctx.seed,
        trace.spans().len(),
        path.display()
    );
    let _ = writeln!(out, "  self time per layer (s):");
    for (layer, secs) in trace.layer_self_secs() {
        let _ = writeln!(out, "    {layer:<10} {secs:.4}");
    }
    finish(
        out,
        &values,
        &metrics::PER_LAYER,
        attempted + more_attempted,
        failed + more_failed,
    )
}

/// One untraced repetition.
fn once<F>(
    ctx: &Ctx,
    setup: &dyn Fn(&Ctx, usize) -> Result<F, String>,
    run: Run<'_, F>,
    teardown: &dyn Fn(F),
) -> Result<Rep, String> {
    let mut f = setup(ctx, 0)?;
    let rep = run(ctx, &mut f, &mut || {});
    teardown(f);
    Ok(rep)
}

/// Appends the metric table and the JSON result line.
fn finish(
    mut out: String,
    values: &Values,
    declared: &[metrics::Metric],
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut json = String::new();
    for m in declared {
        let v = values
            .get(m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not a finite number ({v})", m.name));
        }
        let _ = writeln!(
            out,
            "  {:<26} {v:>16.6} {:<10} ({} is better)",
            m.name, m.unit, m.better
        );
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    let _ = writeln!(out, "  attempted {attempted}, failed {failed}");
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn arguments_are_validated() {
        let ok = parse_args(&strs(&[
            "--workload",
            "fuzz",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((ok.workload.as_str(), ok.seed, ok.trace), ("fuzz", 7, true));
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
            &["--workload", "fuzz", "--seconds", "1"],
            &["--workload", "fuzz", "--seed", "x", "--seconds", "1"],
            &["--workload", "fuzz", "--seed", "1", "--seconds", "0"],
            &[
                "--workload",
                "fuzz",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
        ] {
            assert!(parse_args(&strs(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn declared_workloads_are_runnable() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text.find("\"workloads\"").expect("workloads");
        let body = &text[start..start + text[start..].find(']').expect("list ends")];
        let declared: Vec<&str> = body
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("name ends")])
            .collect();
        assert_eq!(declared, ["serve", "fuzz"]);
        assert!(declared.iter().all(|w| WORKLOADS.contains(w)));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut v = Values::default();
        for m in &metrics::END_TO_END {
            v.set(m.name, 1.25);
        }
        let out = finish(String::new(), &v, &metrics::END_TO_END, 3, 0).unwrap();
        let last = out.lines().last().unwrap();
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(last.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let missing = finish(
            String::new(),
            &Values::default(),
            &metrics::END_TO_END,
            1,
            0,
        );
        assert!(
            missing.is_err(),
            "an unmeasured metric is an error, not a zero"
        );
    }
}
