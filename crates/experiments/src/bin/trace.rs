//! Pipeline-trace exporter: run one workload with the full `smt-trace`
//! instrumentation attached and emit the result in a viewer-ready format.
//!
//! ```text
//! trace --workload matrix --threads 4 --format cpistack
//! trace --workload ll7 --policy cond --format konata --out ll7.kanata
//! trace --workload sieve --window 100..400 --format chrome --out t.json
//! trace --workload matrix --policy icount --predictor gshare \
//!     --fetch-threads 2 --fetch-width 8
//! ```
//!
//! Formats:
//!
//! * `cpistack` (default) — the slot-bandwidth attribution table plus the
//!   occupancy histograms, printed as text;
//! * `konata` — pipeline-viewer text for [Konata](https://github.com/shioyadan/Konata);
//! * `chrome` — Chrome `trace_event` JSON for `chrome://tracing` / Perfetto.
//!
//! `--window a..b` restricts lifecycle recording to instructions decoded in
//! cycles `[a, b]` (and bounds the occupancy counter series to that span),
//! which keeps the export small on paper-scale runs. The architectural
//! result of the run is always verified against the workload's reference
//! checker before anything is written.

use std::io::Write as _;

use smt_core::{FetchPolicy, PredictorKind, SimConfig, Simulator};
use smt_trace::{export, Tracer};
use smt_workloads::{workload, Scale, WorkloadKind};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn workload_flag(name: &str) -> WorkloadKind {
    WorkloadKind::from_name(name).unwrap_or_else(|| {
        let names: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
        die(&format!(
            "unknown workload `{name}` (expected one of {})",
            names.join(", ")
        ))
    })
}

fn policy_flag(name: &str) -> FetchPolicy {
    match name.to_ascii_lowercase().as_str() {
        "trr" | "true-round-robin" => FetchPolicy::TrueRoundRobin,
        "mrr" | "masked-round-robin" => FetchPolicy::MaskedRoundRobin,
        "cond" | "conditional-switch" => FetchPolicy::ConditionalSwitch,
        "ic" | "icount" => FetchPolicy::Icount,
        other => die(&format!(
            "unknown fetch policy `{other}` (expected trr, mrr, cond, or icount)"
        )),
    }
}

fn predictor_flag(name: &str) -> PredictorKind {
    match name.to_ascii_lowercase().as_str() {
        "shared" | "shared-btb" => PredictorKind::SharedBtb,
        "gshare" => PredictorKind::Gshare,
        "partitioned" | "partitioned-btb" => PredictorKind::PartitionedBtb,
        other => die(&format!(
            "unknown predictor `{other}` (expected shared, gshare, or partitioned)"
        )),
    }
}

fn parse_window(spec: &str) -> (u64, u64) {
    let parse = |s: &str| {
        s.parse::<u64>()
            .unwrap_or_else(|_| die(&format!("--window bound `{s}` is not a cycle number")))
    };
    match spec.split_once("..") {
        Some((a, b)) if !a.is_empty() && !b.is_empty() => {
            let (start, end) = (parse(a), parse(b));
            if start > end {
                die(&format!("--window {spec} is empty (start > end)"));
            }
            (start, end)
        }
        _ => die(&format!("--window takes `start..end`, got `{spec}`")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("trace: {msg}");
    std::process::exit(2);
}

/// Lifecycle records kept when no `--window` bounds the run (youngest win).
const DEFAULT_CAP: usize = 1 << 20;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kind = workload_flag(&flag_value(&args, "--workload").unwrap_or_else(|| "matrix".into()));
    let policy = policy_flag(&flag_value(&args, "--policy").unwrap_or_else(|| "trr".into()));
    let threads: usize = flag_value(&args, "--threads").map_or(4, |s| {
        s.parse()
            .unwrap_or_else(|_| die("--threads takes a positive integer"))
    });
    let scale = match flag_value(&args, "--scale").as_deref() {
        None | Some("test") => Scale::Test,
        Some("paper") => Scale::Paper,
        Some(other) => die(&format!("unknown scale `{other}` (expected test or paper)")),
    };
    let window = flag_value(&args, "--window").map(|s| parse_window(&s));
    let format = flag_value(&args, "--format").unwrap_or_else(|| "cpistack".into());
    if !matches!(format.as_str(), "konata" | "chrome" | "cpistack") {
        die(&format!(
            "unknown format `{format}` (expected konata, chrome, or cpistack)"
        ));
    }
    let out_path = flag_value(&args, "--out");

    let w = workload(kind, scale);
    let program = w.build(threads).unwrap_or_else(|e| {
        die(&format!(
            "{} does not build at {threads} threads: {e}",
            w.name()
        ))
    });
    let predictor =
        flag_value(&args, "--predictor").map_or(PredictorKind::SharedBtb, |s| predictor_flag(&s));
    let fetch_threads: usize = flag_value(&args, "--fetch-threads").map_or(1, |s| {
        s.parse()
            .unwrap_or_else(|_| die("--fetch-threads takes a positive integer"))
    });
    let fetch_width: usize = flag_value(&args, "--fetch-width").map_or(4, |s| {
        s.parse()
            .unwrap_or_else(|_| die("--fetch-width takes a positive integer"))
    });
    let config = SimConfig::default()
        .with_threads(threads)
        .with_fetch_policy(policy)
        .with_predictor(predictor)
        .with_fetch_threads(fetch_threads)
        .with_fetch_width(fetch_width);
    if let Err(e) = config.validate() {
        die(&format!("invalid configuration: {e}"));
    }
    // The CPI stack wants the whole run; the lifecycle ring is the memory
    // bound when no window narrows it.
    let mut tracer = Tracer::new(config.trace_shape(), DEFAULT_CAP);
    if let Some((start, end)) = window {
        tracer = tracer.with_window(start, end);
    }

    let mut sim = Simulator::new(config, &program);
    let stats = sim
        .run_with(&mut tracer)
        .unwrap_or_else(|e| die(&format!("simulation faulted: {e}")));
    w.check(sim.memory().words())
        .unwrap_or_else(|e| die(&format!("architectural result mismatch: {e}")));
    eprintln!(
        "[trace] {} x{threads} {policy:?}: {} cycles, IPC {:.3}, {} lifecycle records ({} dropped)",
        w.name(),
        stats.cycles,
        stats.ipc(),
        tracer.lifecycle.records().len(),
        tracer.lifecycle.dropped(),
    );

    let output = match format.as_str() {
        "konata" => export::konata::export(&tracer.lifecycle),
        "chrome" => export::chrome::export(&tracer.lifecycle, tracer.occupancy.series()),
        _ => {
            let occupancy = tracer.occupancy.render();
            let breakdown = tracer.into_breakdown();
            format!("{}\n{occupancy}", breakdown.render())
        }
    };
    match out_path {
        Some(path) => {
            let mut f = std::fs::File::create(&path)
                .unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
            f.write_all(output.as_bytes())
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            eprintln!("[trace] wrote {path} ({} bytes)", output.len());
        }
        None => print!("{output}"),
    }
}
