//! `smt-sim` — run one benchmark on the SMT superscalar simulator from the
//! command line and print its statistics.
//!
//! ```text
//! cargo run --release --bin smt-sim -- --workload matrix --threads 4
//! cargo run --release --bin smt-sim -- --workload ll5 --threads 6 \
//!     --fetch cs --commit lowest --cache dm --su 64 --scale test
//! cargo run --release --bin smt-sim -- --workload sieve --scale test \
//!     --trace chrome --window 100..400 --out t.json
//! cargo run --release --bin smt-sim -- --list
//! ```
//!
//! `--trace` attaches the full `smt-trace` instrumentation and exports it
//! after the statistics, once the architectural result has been verified:
//!
//! * `cpistack` — the slot-bandwidth attribution table plus the occupancy
//!   histograms, as text;
//! * `konata` — pipeline-viewer text for [Konata](https://github.com/shioyadan/Konata);
//! * `chrome` — Chrome `trace_event` JSON for `chrome://tracing` / Perfetto.
//!
//! `--window a..b` restricts lifecycle recording to instructions decoded in
//! cycles `[a, b]` (and bounds the occupancy counter series to that span),
//! which keeps the export small on paper-scale runs. When a traced run
//! trips the `--max-cycles` watchdog, the machine dump, the youngest
//! lifecycle records, the occupancy histograms and the CPI stack are
//! printed instead: what the machine was doing when it wedged.

use std::fs::File;
use std::io::Write as _;
use std::process::ExitCode;

use smt_superscalar::core::{
    CommitPolicy, FetchPolicy, PredictorKind, SimConfig, SimError, Simulator,
};
use smt_superscalar::experiments::cli::{self, Args, Flags};
use smt_superscalar::mem::CacheKind;
use smt_superscalar::trace::{export, Tracer};
use smt_superscalar::uarch::FuConfig;
use smt_superscalar::workloads::{workload, Scale, WorkloadKind};

const FLAGS: Flags = Flags {
    values: "--workload --threads --fetch --predictor --fetch-threads --fetch-width --commit \
             --cache --su --fu --scale --max-cycles --trace --window --out",
    repeated: "",
    switches: "--no-verify --list --help -h",
    positionals: 0,
};

struct Options {
    kind: WorkloadKind,
    scale: Scale,
    config: SimConfig,
    verify: bool,
    /// The export format of a traced run: `konata`, `chrome` or `cpistack`.
    trace: Option<&'static str>,
    window: Option<(u64, u64)>,
    out: Option<String>,
}

/// Lifecycle records kept by a traced run (the youngest win).
const TRACE_CAP: usize = 1 << 20;

/// Lifecycle records shown when a traced run trips the watchdog.
const STUCK_RECORDS: usize = 64;

fn usage() -> &'static str {
    "usage: smt-sim --workload <name> [options]\n\
     \n\
     options:\n\
       --workload <name>    ll1|ll2|ll3|ll5|ll7|ll12|laplace|mpd|matrix|sieve|water\n\
       --threads <1..6>     resident threads (default 4)\n\
       --fetch <policy>     trr|mrr|cs|ic (default trr)\n\
       --predictor <kind>   btb|gsh|pbtb (default btb)\n\
       --fetch-threads <n>  fetch ports, distinct threads per cycle (default 1)\n\
       --fetch-width <n>    instructions per fetch block (default 4)\n\
       --commit <policy>    flexible|lowest (default flexible)\n\
       --cache <kind>       sa|dm (default sa)\n\
       --su <entries>       scheduling-unit depth (default 32)\n\
       --fu <cfg>           default|enhanced (default default)\n\
       --scale <scale>      paper|test (default paper)\n\
       --max-cycles <n>     watchdog: fail a run still going after n cycles\n\
       --trace <format>     konata|chrome|cpistack: trace the run and export it\n\
       --window <a..b>      trace only instructions decoded in cycles a..b\n\
       --out <file>         write the trace export here (default stdout)\n\
       --no-verify          skip the reference-result check\n\
       --list               list workloads and exit"
}

/// `a..b`: cycle numbers with `a <= b`, and `b + 1` must not overflow.
fn parse_window(spec: &str) -> Result<(u64, u64), String> {
    let bounds = spec.split_once("..");
    match bounds.and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?))) {
        Some((start, end)) if start <= end && end < u64::MAX => Ok((start, end)),
        _ => Err(format!(
            "takes `start..end` cycles, start <= end < 2^64 - 1, not `{spec}`"
        )),
    }
}

fn parse(args: &Args) -> Result<Options, String> {
    let name = args.required("--workload")?;
    let kind = WorkloadKind::from_name(name)
        .ok_or_else(|| format!("--workload: unknown workload `{name}`"))?;
    let mut c = SimConfig::default();
    c.threads = args.get("--threads")?.unwrap_or(c.threads);
    let fetch = FetchPolicy::ALL.map(|k| (k.abbrev(), k));
    c.fetch_policy = args
        .level("--fetch", "fetch policy", fetch)?
        .unwrap_or(c.fetch_policy);
    let predictors = PredictorKind::ALL.map(|k| (k.abbrev(), k));
    c.predictor = args
        .level("--predictor", "predictor", predictors)?
        .unwrap_or(c.predictor);
    c.fetch_threads = args.get("--fetch-threads")?.unwrap_or(c.fetch_threads);
    c.fetch_width = args.get("--fetch-width")?.unwrap_or(c.fetch_width);
    let commit = [
        ("flexible", CommitPolicy::Flexible),
        ("lowest", CommitPolicy::LowestOnly),
    ];
    c.commit_policy = args
        .level("--commit", "commit policy", commit)?
        .unwrap_or(c.commit_policy);
    let caches = CacheKind::ALL.map(|k| (k.abbrev(), k));
    if let Some(cache) = args.level("--cache", "cache kind", caches)? {
        c = c.with_cache_kind(cache);
    }
    c.su_depth = args.get("--su")?.unwrap_or(c.su_depth);
    let fus = [
        ("default", FuConfig::paper_default()),
        ("enhanced", FuConfig::paper_enhanced()),
    ];
    c.fu = args.level("--fu", "fu config", fus)?.unwrap_or(c.fu);
    c.max_cycles = args.get("--max-cycles")?.unwrap_or(c.max_cycles);
    c.validate().map_err(|e| e.to_string())?;

    let formats = ["konata", "chrome", "cpistack"].map(|f| (f, f));
    let trace = args.level("--trace", "trace format", formats)?;
    for flag in ["--window", "--out"] {
        if trace.is_none() && args.value(flag).is_some() {
            return Err(format!("{flag} needs --trace"));
        }
    }
    Ok(Options {
        kind,
        scale: args.scale(Scale::Paper)?,
        config: c,
        verify: !args.switch("--no-verify"),
        trace,
        window: args.parse_with("--window", parse_window)?,
        out: args.value("--out").map(String::from),
    })
}

/// What a traced run that tripped the watchdog was doing when it wedged.
fn print_stuck(sim: &Simulator, tracer: Tracer) {
    println!("STUCK at cycle {}:\n{}", sim.cycle(), sim.dump());
    let records = tracer.lifecycle.records();
    let youngest = records.range(records.len().saturating_sub(STUCK_RECORDS)..);
    println!("last {} decoded instructions:", youngest.len());
    for record in youngest {
        println!("{}", record.render());
    }
    println!("{}", tracer.occupancy.render());
    println!("{}", tracer.into_breakdown().render());
}

fn run(opts: Options) -> Result<ExitCode, String> {
    // Created before the run, so a path that cannot be written is refused
    // up front rather than after the whole simulation.
    let out = match opts.out {
        Some(path) => {
            let file = File::create(&path).map_err(|e| format!("--out {path}: {e}"))?;
            Some((path, file))
        }
        None => None,
    };
    let w = workload(opts.kind, opts.scale);
    let program = w.build(opts.config.threads).map_err(|e| e.to_string())?;
    println!(
        "{} ({}) · {} threads · {} · {} · {}×{} fetch · {} · SU {} · {}",
        w.name(),
        w.group(),
        opts.config.threads,
        opts.config.fetch_policy,
        opts.config.predictor,
        opts.config.fetch_threads,
        opts.config.fetch_width,
        opts.config.cache_kind,
        opts.config.su_depth,
        opts.config.commit_policy,
    );

    let mut tracer = opts.trace.map(|_| {
        let tracer = Tracer::new(opts.config.trace_shape(), TRACE_CAP);
        match opts.window {
            Some((start, end)) => tracer.with_window(start, end),
            None => tracer,
        }
    });
    let mut sim = Simulator::try_new(opts.config, &program).map_err(|e| e.to_string())?;
    let outcome = match &mut tracer {
        Some(tracer) => sim.run_with(tracer),
        None => sim.run(),
    };
    let stats = match outcome {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simulation error: {e}");
            if let (Some(tracer), SimError::Watchdog { .. }) = (tracer, e) {
                print_stuck(&sim, tracer);
            }
            return Ok(ExitCode::FAILURE);
        }
    };
    if opts.verify {
        if let Err(e) = w.check(sim.memory().words()) {
            eprintln!("RESULT CHECK FAILED: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }

    println!("cycles:               {}", stats.cycles);
    println!("instructions:         {}", stats.committed_total());
    println!("IPC:                  {:.3}", stats.ipc());
    println!("issued (incl. wrong-path): {}", stats.issued);
    println!("squashed:             {}", stats.squashed);
    println!(
        "branch accuracy:      {:.1}%  ({} resolved)",
        stats.branches.accuracy(),
        stats.branches.resolved
    );
    println!(
        "cache hit rate:       {:.1}%  ({} accesses)",
        stats.cache.hit_rate(),
        stats.cache.accesses
    );
    println!("SU stalls:            {}", stats.su_stall_cycles);
    println!("store-buffer stalls:  {}", stats.store_buffer_full_stalls);
    println!("wait spin cycles:     {}", stats.wait_spin_cycles);
    println!("avg SU occupancy:     {:.1}", stats.avg_su_occupancy());
    for (tid, committed) in stats.committed.iter().enumerate() {
        println!("  thread {tid}: {committed} instructions");
    }
    if opts.verify {
        println!("result check:         PASSED");
    }

    if let (Some(format), Some(tracer)) = (opts.trace, tracer) {
        let (records, dropped) = (tracer.lifecycle.records().len(), tracer.lifecycle.dropped());
        eprintln!("[trace] {records} lifecycle records ({dropped} dropped)");
        let output = match format {
            "konata" => export::konata::export(&tracer.lifecycle),
            "chrome" => export::chrome::export(&tracer.lifecycle, tracer.occupancy.series()),
            _ => {
                let occupancy = tracer.occupancy.render();
                format!("{}\n{occupancy}", tracer.into_breakdown().render())
            }
        };
        match out {
            Some((path, mut file)) => {
                file.write_all(output.as_bytes())
                    .map_err(|e| format!("--out {path}: {e}"))?;
                eprintln!("[trace] wrote {path} ({} bytes)", output.len());
            }
            None => print!("{output}"),
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::main("smt-sim", &FLAGS, |args| {
        if args.switch("--help") || args.switch("-h") {
            println!("{}", usage());
            return Ok(ExitCode::SUCCESS);
        }
        if args.switch("--list") {
            for k in WorkloadKind::ALL {
                println!("{:<8} {}", k.name().to_lowercase(), k.group());
            }
            return Ok(ExitCode::SUCCESS);
        }
        run(parse(args)?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Options, String> {
        parse(&Args::parse(
            &FLAGS,
            line.split_whitespace().map(String::from),
        )?)
    }

    fn parse_with(flag: &str, level: &str) -> Result<Options, String> {
        parse_line(&format!("--workload matrix {flag} {level}"))
    }

    #[test]
    fn axis_levels_parse_by_their_table_spelling() {
        for k in FetchPolicy::ALL {
            let opts = parse_with("--fetch", k.abbrev()).expect("a table spelling parses");
            assert_eq!(opts.config.fetch_policy, k);
        }
        for k in PredictorKind::ALL {
            let opts = parse_with("--predictor", k.abbrev()).expect("a table spelling parses");
            assert_eq!(opts.config.predictor, k);
        }
        for k in CacheKind::ALL {
            let opts = parse_with("--cache", k.abbrev()).expect("a table spelling parses");
            assert_eq!(opts.config.cache_kind, k);
        }
        for format in ["konata", "chrome", "cpistack"] {
            let opts = parse_with("--trace", format).expect("a format spelling parses");
            assert_eq!(opts.trace, Some(format));
        }
        let opts = parse_with("--max-cycles", "50").expect("a cycle count parses");
        assert_eq!(opts.config.max_cycles, 50);
        let opts = parse_line("--workload sieve --trace chrome --window 100..400");
        assert_eq!(opts.expect("a window parses").window, Some((100, 400)));
        for flag in [
            "--fetch",
            "--predictor",
            "--cache",
            "--trace",
            "--max-cycles",
        ] {
            let err = parse_with(flag, "bogus")
                .err()
                .expect("an unknown level fails");
            assert!(
                err.starts_with(flag) && err.contains("bogus"),
                "{flag}: {err}"
            );
        }
        for (line, culprit) in [
            ("--trace chrome --window 400..100", "--window"),
            ("--trace chrome --window 100", "--window"),
            (
                "--trace chrome --window 0..18446744073709551615",
                "--window",
            ),
            ("--window 100..400", "--window needs --trace"),
            ("--out t.json", "--out needs --trace"),
        ] {
            let err = parse_line(&format!("--workload sieve {line}")).err();
            let err = err.expect("a bad trace request fails");
            assert!(err.contains(culprit), "{line}: {err}");
        }
    }
}
