//! Throughput benchmarks of the simulator itself: simulated cycles per
//! wall-clock second on representative workloads and configurations.
//!
//! These measure the *tool*, not the paper's results — regressions here
//! make the experiment harness slower without changing any figure. The
//! harness is hand-rolled (the build container has no crates.io access, so
//! Criterion is unavailable): each case runs a warmup iteration, then
//! enough timed iterations to cover a minimum wall-clock window, and
//! reports the best iteration plus simulated-cycles-per-second.
//!
//! Flags (after `--`):
//!
//! * `--smoke` — shrink the measurement window for CI smoke runs; numbers
//!   are noisy but the harness and every case still execute end to end.
//! * `--json <path>` — additionally write the results as a flat JSON object
//!   (`<case>/mcycles_per_s`, `<case>/best_ms`, `<case>/cycles`), e.g. for
//!   the repo-root `BENCH_sim_throughput.json` trajectory file or a CI
//!   artifact.
//! * `<substring>` — one positional argument filters cases by name,
//!   criterion-style (`simulate/4thr/Matrix` runs just that case; handy
//!   under a profiler).
//!
//! Any other flag is refused with exit code 2 (`cargo bench` itself passes
//! `--bench`, which is accepted).
//!
//! The `checkpoint_splice` group times the calls of a checkpoint splice
//! (`<case>/median_us`, the median per-call time over repeated samples)
//! rather than a simulation: each call separately, then `round_trip`,
//! all four in order as the fuzz oracle splices.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use smt_core::{FetchPolicy, SimConfig, Simulator, Snapshot};
use smt_experiments::cli::{self, Args, Flags};
use smt_experiments::{json, Cell};
use smt_isa::builder::ProgramBuilder;
use smt_isa::Program;
use smt_workloads::{workload, Scale, WorkloadKind};

/// Measurement parameters: iterations repeat until `window` of measured
/// time accumulates, capped at `max_iters`. `filter` restricts which cases
/// run (substring match on the case name, criterion-style).
#[derive(Clone)]
struct Opts {
    window: Duration,
    max_iters: usize,
    filter: Option<String>,
}

const FULL: Opts = Opts {
    window: Duration::from_millis(500),
    max_iters: 20,
    filter: None,
};
const SMOKE: Opts = Opts {
    window: Duration::from_millis(50),
    max_iters: 3,
    filter: None,
};

/// One finished case, for the optional JSON dump.
struct CaseResult {
    name: String,
    best_ms: f64,
    cycles: u64,
    mcps: f64,
}

/// One timed call of the splice group, for the optional JSON dump.
struct CallResult {
    name: String,
    median_us: f64,
}

/// Times `body` (which returns a simulated-cycle count) and prints a
/// criterion-style line: best-iteration wall time and simulated throughput.
fn bench_case(out: &mut Vec<CaseResult>, opts: &Opts, name: &str, mut body: impl FnMut() -> u64) {
    if let Some(f) = &opts.filter {
        if !name.contains(f.as_str()) {
            return;
        }
    }
    let cycles = body(); // warmup; also captures the workload's cycle count
    let mut best = Duration::MAX;
    let mut spent = Duration::ZERO;
    let mut iters = 0usize;
    while (spent < opts.window || iters < 3) && iters < opts.max_iters {
        let start = Instant::now();
        let got = body();
        let elapsed = start.elapsed();
        assert_eq!(got, cycles, "simulation must be deterministic");
        best = best.min(elapsed);
        spent += elapsed;
        iters += 1;
    }
    let secs = best.as_secs_f64();
    let mcps = cycles as f64 / secs / 1.0e6;
    println!(
        "{name:<44} {:>10.3} ms/iter   {cycles:>9} cycles   {mcps:>8.2} Mcycles/s   ({iters} iters)",
        secs * 1e3,
    );
    out.push(CaseResult {
        name: name.to_string(),
        best_ms: secs * 1e3,
        cycles,
        mcps,
    });
}

fn bench_workload_simulation(out: &mut Vec<CaseResult>, opts: &Opts) {
    println!("# simulate: default config, 4 threads, Scale::Test");
    for kind in [WorkloadKind::Matrix, WorkloadKind::Ll7, WorkloadKind::Sieve] {
        let w = workload(kind, Scale::Test);
        let program = w.build(4).expect("kernel fits");
        bench_case(out, opts, &format!("simulate/4thr/{}", w.name()), || {
            let mut sim = Simulator::new(SimConfig::default(), &program);
            sim.run().expect("runs").cycles
        });
    }
}

/// A store-to-load forwarding stress kernel: every iteration stores and
/// immediately reloads the same private slot (forwarding hit), touches
/// neighboring slots (partial overlap, no forward), and hammers one word
/// shared by all four threads so a single forwarding-index address carries
/// stores from every thread at once. An alternating branch keeps a steady
/// stream of wrong-path stores flowing through squash. This is the hot-path
/// profile the address-indexed forwarding map exists for.
fn forwarding_kernel(iters: i64) -> Program {
    const SLOTS: u64 = 4;
    const THREADS: u64 = 4;
    let mut b = ProgramBuilder::new();
    let region = b.alloc_zeroed(THREADS * SLOTS * 8);
    let shared = b.alloc_zeroed(8);
    let [base, shbase, v, w, x, y, seven, i, one, par, zero] = b.regs::<11>();
    b.slli(base, b.tid_reg(), (SLOTS * 8).trailing_zeros() as i32);
    let scratch = w;
    b.li(scratch, region as i64);
    b.add(base, base, scratch);
    b.li(shbase, shared as i64);
    b.li(seven, 7);
    b.li(i, iters);
    b.li(one, 1);
    b.li(zero, 0);
    b.li(v, 0x1234);
    let top = b.label();
    b.bind(top);
    b.sd(v, base, 0);
    b.ld(w, base, 0);
    b.sd(w, base, 8);
    b.ld(x, base, 16);
    b.sd(seven, shbase, 0);
    b.ld(y, shbase, 0);
    b.add(v, v, w);
    b.add(v, v, x);
    b.add(v, v, y);
    b.sd(v, base, 16);
    b.ld(x, base, 8);
    b.add(v, v, x);
    let skip = b.label();
    b.andi(par, i, 1);
    b.beq(par, zero, skip);
    b.sd(seven, base, 24);
    b.ld(par, base, 24);
    b.add(v, v, par);
    b.bind(skip);
    b.addi(i, i, -1);
    b.bge(i, one, top);
    b.halt();
    b.build(THREADS as usize)
        .expect("kernel fits a 4-thread window")
}

fn bench_store_forwarding(out: &mut Vec<CaseResult>, opts: &Opts) {
    println!("# store_forwarding: store/load-dense kernel, 4 threads");
    let program = forwarding_kernel(2_000);
    bench_case(out, opts, "store_forwarding/4thr/dense", || {
        let mut sim = Simulator::new(SimConfig::default(), &program);
        sim.run().expect("runs").cycles
    });
    // A deep scheduling unit keeps more resident stores per address, the
    // regime where the old per-load window scan was most expensive.
    bench_case(out, opts, "store_forwarding/4thr/deep_su", || {
        let mut sim = Simulator::new(SimConfig::default().with_su_depth(64), &program);
        sim.run().expect("runs").cycles
    });
}

fn bench_fetch_policies(out: &mut Vec<CaseResult>, opts: &Opts) {
    println!("# fetch_policy_overhead: LL1, 4 threads");
    let w = workload(WorkloadKind::Ll1, Scale::Test);
    let program = w.build(4).expect("kernel fits");
    for policy in [
        FetchPolicy::TrueRoundRobin,
        FetchPolicy::MaskedRoundRobin,
        FetchPolicy::ConditionalSwitch,
    ] {
        bench_case(
            out,
            opts,
            &format!("fetch_policy_overhead/{policy:?}"),
            || {
                let mut sim =
                    Simulator::new(SimConfig::default().with_fetch_policy(policy), &program);
                sim.run().expect("runs").cycles
            },
        );
    }
}

/// Cost of the observability layer, measured three ways on the same
/// program: the untraced `run()` path (what every experiment uses — the
/// sink-off overhead must stay at zero), the CPI-stack accountant alone
/// (the cheapest useful sink), and the full tracer bundle with a bounded
/// lifecycle ring (the most expensive supported sink).
fn bench_trace_overhead(out: &mut Vec<CaseResult>, opts: &Opts) {
    println!("# trace_overhead: Matrix, 4 threads, sink-off vs attached sinks");
    let w = workload(WorkloadKind::Matrix, Scale::Test);
    let program = w.build(4).expect("kernel fits");
    let config = SimConfig::default();
    bench_case(out, opts, "trace_overhead/matrix/off", || {
        let mut sim = Simulator::new(config.clone(), &program);
        sim.run().expect("runs").cycles
    });
    bench_case(out, opts, "trace_overhead/matrix/cpi_stack", || {
        let mut cpi = smt_trace::CpiStack::new(config.block_size as u32);
        let mut sim = Simulator::new(config.clone(), &program);
        sim.run_with(&mut cpi).expect("runs").cycles
    });
    bench_case(out, opts, "trace_overhead/matrix/full_tracer", || {
        let mut tracer = smt_trace::Tracer::new(config.trace_shape(), 1 << 12);
        let mut sim = Simulator::new(config.clone(), &program);
        sim.run_with(&mut tracer).expect("runs").cycles
    });
}

/// Times `body` as the median per-call time over samples of `reps`
/// calls each, taken until `opts.window` of measured time accumulates
/// (at least 5 samples, at most `opts.max_iters` × 5).
fn bench_call(out: &mut Vec<CallResult>, opts: &Opts, name: &str, mut body: impl FnMut()) {
    if let Some(f) = &opts.filter {
        if !name.contains(f.as_str()) {
            return;
        }
    }
    const REPS: u32 = 50;
    body(); // warmup
    let mut samples = Vec::new();
    let mut spent = Duration::ZERO;
    while (spent < opts.window || samples.len() < 5) && samples.len() < opts.max_iters * 5 {
        let start = Instant::now();
        for _ in 0..REPS {
            body();
        }
        let elapsed = start.elapsed();
        spent += elapsed;
        samples.push(elapsed.as_secs_f64() * 1e6 / f64::from(REPS));
    }
    samples.sort_by(f64::total_cmp);
    let median_us = samples[samples.len() / 2];
    println!(
        "{name:<44} {median_us:>10.2} us/call   ({} samples of {REPS})",
        samples.len()
    );
    out.push(CallResult {
        name: name.to_string(),
        median_us,
    });
}

/// One checkpoint splice, call by call: `checkpoint` + `to_bytes`,
/// `Snapshot::from_bytes`, `Simulator::restore`, and a cold
/// `Simulator::try_new` for scale; then the whole splice, as the oracle
/// makes it. The machine is test-scale Sieve stopped after 300 cycles,
/// with blocks in flight.
fn bench_checkpoint_splice(out: &mut Vec<CallResult>, opts: &Opts) {
    println!("# checkpoint_splice: Sieve, Scale::Test, after 300 cycles");
    for threads in [1, 4, 8] {
        let program = workload(WorkloadKind::Sieve, Scale::Test)
            .build(threads)
            .expect("kernel fits");
        let config = SimConfig::default().with_threads(threads);
        let mut sim = Simulator::new(config.clone(), &program);
        for _ in 0..300 {
            sim.step().expect("steps");
        }
        assert!(!sim.is_quiescent(), "blocks must be in flight");
        let wire = sim.checkpoint().to_bytes();
        let snap = Snapshot::from_bytes(&wire).expect("round trip");
        let case = |call: &str| format!("checkpoint_splice/{threads}thr/{call}");
        bench_call(out, opts, &case("checkpoint_to_bytes"), || {
            black_box(sim.checkpoint().to_bytes());
        });
        bench_call(out, opts, &case("from_bytes"), || {
            black_box(Snapshot::from_bytes(black_box(&wire)).expect("decodes"));
        });
        bench_call(out, opts, &case("restore"), || {
            black_box(Simulator::restore(config.clone(), &program, &snap).expect("restores"));
        });
        bench_call(out, opts, &case("try_new"), || {
            black_box(Simulator::try_new(config.clone(), &program).expect("builds"));
        });
        bench_call(out, opts, &case("round_trip"), || {
            let wire = sim.checkpoint().to_bytes();
            let snap = Snapshot::from_bytes(&wire).expect("decodes");
            black_box(
                Simulator::restore_mix(sim.config().clone(), &[&program], &snap).expect("restores"),
            );
        });
    }
}

fn bench_interpreter(out: &mut Vec<CaseResult>, opts: &Opts) {
    println!("# functional interpreter");
    let w = workload(WorkloadKind::Matrix, Scale::Test);
    let program = w.build(4).expect("kernel fits");
    bench_case(out, opts, "functional_interpreter/matrix", || {
        let mut interp = smt_isa::interp::Interp::new(&program, 4);
        interp.run().expect("runs").steps
    });
}

const FLAGS: Flags = Flags {
    values: "--json",
    repeated: "",
    switches: "--smoke --bench",
    positionals: 1,
};

fn main() -> ExitCode {
    cli::main("sim_throughput", &FLAGS, run)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let smoke = args.switch("--smoke");
    let mut opts = if smoke { SMOKE } else { FULL };
    // Profiling hooks: stretch the measurement window without recompiling
    // (e.g. BENCH_WINDOW_MS=10000 BENCH_MAX_ITERS=100000 under gprofng).
    if let Ok(ms) = std::env::var("BENCH_WINDOW_MS") {
        opts.window = Duration::from_millis(ms.parse().expect("BENCH_WINDOW_MS: integer ms"));
    }
    if let Ok(n) = std::env::var("BENCH_MAX_ITERS") {
        opts.max_iters = n.parse().expect("BENCH_MAX_ITERS: integer");
    }
    opts.filter = args.positionals().first().cloned();

    let mut results = Vec::new();
    bench_workload_simulation(&mut results, &opts);
    bench_store_forwarding(&mut results, &opts);
    bench_fetch_policies(&mut results, &opts);
    bench_trace_overhead(&mut results, &opts);
    bench_interpreter(&mut results, &opts);
    let mut calls = Vec::new();
    bench_checkpoint_splice(&mut calls, &opts);

    if let Some(path) = args.value("--json") {
        let mut fields: Vec<(String, Cell)> = Vec::new();
        fields.push((
            "mode".to_string(),
            Cell::Text(if smoke { "smoke" } else { "full" }.to_string()),
        ));
        for r in &results {
            fields.push((format!("{}/mcycles_per_s", r.name), Cell::Float(r.mcps)));
            fields.push((format!("{}/best_ms", r.name), Cell::Float(r.best_ms)));
            fields.push((format!("{}/cycles", r.name), Cell::Int(r.cycles)));
        }
        for c in &calls {
            fields.push((format!("{}/median_us", c.name), Cell::Float(c.median_us)));
        }
        let borrowed: Vec<(&str, Cell)> = fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        std::fs::write(path, json::object_to_json(&borrowed))
            .map_err(|e| format!("--json {path}: {e}"))?;
        println!("# wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}
