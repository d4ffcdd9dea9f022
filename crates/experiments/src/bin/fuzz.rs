//! Differential fuzzer: constrained-random programs, every front end,
//! every thread count, checked instruction-by-instruction against the
//! functional reference by the lockstep oracle.
//!
//! Each seed generates one program [`Plan`]; the plan is lowered per thread
//! count and verified under every [`FRONTENDS`] point — all four fetch
//! policies, every predictor family, and the two-port/wide-fetch shapes.
//! Each seed also drives a heterogeneous column: a [`MixPlan`] of 2 and 4
//! *different* generated programs, one per thread, verified per thread
//! against solo reference runs under [`MIX_FRONTENDS`].
//! Any divergence is greedily minimized (segments are masked off while the
//! failure reproduces — for mixes, across the concatenated per-thread
//! masks) and reported as a `(seed, mask)` pair that regenerates the exact
//! failing program — then the process exits nonzero.
//!
//! ```text
//! cargo run --release -p smt-experiments --bin fuzz                    # 200 seeds
//! cargo run --release -p smt-experiments --bin fuzz -- --seeds 500
//! cargo run --release -p smt-experiments --bin fuzz -- --start-seed 1000 --seeds 100
//! cargo run --release -p smt-experiments --bin fuzz -- --workers 4
//! cargo run --release -p smt-experiments --bin fuzz -- --trace-on-divergence
//! cargo run --release -p smt-experiments --bin fuzz -- --checkpoint-every 50
//! ```
//!
//! With `--checkpoint-every N`, every verification interrupts the machine
//! each N cycles, round-trips it through the snapshot wire format, and
//! resumes the restored copy — so each random program also exercises
//! checkpoint/restore, and a splice that perturbs the commit stream is a
//! divergence like any other.
//!
//! With `--trace-on-divergence`, each minimized failure is re-run with a
//! windowed lifecycle recorder and the report gains the per-instruction
//! fetch/decode/issue/writeback/retire timeline around the diverging
//! cycle — the pipeline's view of the bug, not just its first symptom.

use std::fmt;
use std::time::Instant;

use smt_core::{FetchPolicy, PredictorKind, SimConfig, Simulator};
use smt_isa::builder::BuildError;
use smt_isa::Program;
use smt_oracle::{verify_mix, verify_mix_with_checkpoints, Divergence, Report};
use smt_testkit::progen::{GenConfig, MixPlan, Plan};
use smt_testkit::shrink;
use smt_trace::Tracer;

/// One front-end shape: fetch policy × predictor family × ports × width.
#[derive(Clone, Copy, PartialEq, Eq)]
struct FrontEnd {
    policy: FetchPolicy,
    predictor: PredictorKind,
    fetch_threads: usize,
    fetch_width: usize,
}

impl fmt::Display for FrontEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ports={} width={}",
            self.policy, self.predictor, self.fetch_threads, self.fetch_width
        )
    }
}

const fn fe(
    policy: FetchPolicy,
    predictor: PredictorKind,
    fetch_threads: usize,
    fetch_width: usize,
) -> FrontEnd {
    FrontEnd {
        policy,
        predictor,
        fetch_threads,
        fetch_width,
    }
}

/// The verified front ends: the three original single-port policies, the
/// ICOUNT policy, each alternative predictor family, and the two-port /
/// 8-wide shapes (which also cross the families).
const FRONTENDS: [FrontEnd; 8] = [
    fe(FetchPolicy::TrueRoundRobin, PredictorKind::SharedBtb, 1, 4),
    fe(
        FetchPolicy::MaskedRoundRobin,
        PredictorKind::SharedBtb,
        1,
        4,
    ),
    fe(
        FetchPolicy::ConditionalSwitch,
        PredictorKind::SharedBtb,
        1,
        4,
    ),
    fe(FetchPolicy::Icount, PredictorKind::SharedBtb, 1, 4),
    fe(FetchPolicy::TrueRoundRobin, PredictorKind::Gshare, 1, 4),
    fe(
        FetchPolicy::TrueRoundRobin,
        PredictorKind::PartitionedBtb,
        1,
        4,
    ),
    fe(FetchPolicy::Icount, PredictorKind::Gshare, 2, 8),
    fe(
        FetchPolicy::ConditionalSwitch,
        PredictorKind::PartitionedBtb,
        2,
        8,
    ),
];
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Front ends for the heterogeneous-mix column: every fetch policy
/// appears once, crossed with varied predictor families and one two-port
/// / 8-wide shape, at a quarter of the homogeneous matrix's cost.
const MIX_FRONTENDS: [FrontEnd; 4] = [
    fe(FetchPolicy::TrueRoundRobin, PredictorKind::SharedBtb, 1, 4),
    fe(FetchPolicy::Icount, PredictorKind::Gshare, 1, 4),
    fe(
        FetchPolicy::MaskedRoundRobin,
        PredictorKind::PartitionedBtb,
        1,
        4,
    ),
    fe(
        FetchPolicy::ConditionalSwitch,
        PredictorKind::SharedBtb,
        2,
        8,
    ),
];

/// Thread counts for the mix column: a mix of `t` programs only exists at
/// `t` threads, and one thread is the homogeneous case.
const MIX_THREADS: [usize; 2] = [2, 4];

/// Generous for generated programs (thousands of cycles each), tight
/// enough that a livelocked machine fails fast as a harness divergence.
const FUZZ_MAX_CYCLES: u64 = 2_000_000;

fn config(frontend: FrontEnd, threads: usize) -> SimConfig {
    SimConfig::default()
        .with_threads(threads)
        .with_fetch_policy(frontend.policy)
        .with_predictor(frontend.predictor)
        // A machine cannot have more fetch ports than resident threads;
        // clamping keeps the two-port shapes verifiable at one thread.
        .with_fetch_threads(frontend.fetch_threads.min(threads))
        .with_fetch_width(frontend.fetch_width)
        .with_max_cycles(FUZZ_MAX_CYCLES)
}

/// One divergence, fully reproducible from the fields.
struct Failure {
    seed: u64,
    frontend: FrontEnd,
    threads: usize,
    report: String,
}

/// What a seed generates at one thread count: a [`Plan`] whose one
/// program every thread runs, or a [`MixPlan`] with one program per
/// thread, whose mask is the concatenation of the per-slot masks. Both
/// lower to the program list the oracle verifies.
enum Generated<'a> {
    Uniform(&'a Plan),
    Mix(MixPlan),
}

impl Generated<'_> {
    fn seed(&self) -> u64 {
        match self {
            Generated::Uniform(plan) => plan.seed,
            Generated::Mix(mix) => mix.seed,
        }
    }

    fn mask_len(&self) -> usize {
        match self {
            Generated::Uniform(plan) => plan.mask_len(),
            Generated::Mix(mix) => mix.mask_len(),
        }
    }

    fn describe(&self, mask: &[bool]) -> String {
        match self {
            Generated::Uniform(plan) => plan.describe(mask),
            Generated::Mix(mix) => mix.describe(mask),
        }
    }

    /// The program list `mask` lowers to at `threads` threads.
    fn build(&self, mask: &[bool], threads: usize) -> Result<Vec<Program>, BuildError> {
        match self {
            Generated::Uniform(plan) => plan.build(mask, threads).map(|p| vec![p]),
            Generated::Mix(mix) => mix.build(mask),
        }
    }

    /// The call that regenerates the program list of `build(&mask, threads)`.
    fn repro(&self, threads: usize) -> String {
        let seed = self.seed();
        match self {
            Generated::Uniform(_) => {
                format!("Plan::generate({seed}, &GenConfig::default()).build(&mask, {threads})")
            }
            Generated::Mix(_) => {
                format!("MixPlan::generate({seed}, {threads}, &GenConfig::default()).build(&mask)")
            }
        }
    }
}

/// Cycles either side of the divergence covered by the lifecycle window.
const TRACE_SPAN: u64 = 32;

/// Re-runs `programs` with a lifecycle recorder windowed around the
/// diverging cycle and renders the captured timeline. The rerun may end in
/// a fault or hang (that can be the divergence itself); the window is
/// whatever was recorded up to that point.
fn lifecycle_window(
    programs: &[Program],
    frontend: FrontEnd,
    threads: usize,
    cycle: u64,
) -> String {
    let cfg = config(frontend, threads);
    let (start, end) = (cycle.saturating_sub(TRACE_SPAN), cycle + TRACE_SPAN);
    let cap = usize::try_from((end - start + 1) * cfg.block_size as u64).unwrap_or(4096);
    let mut tracer = Tracer::new(cfg.trace_shape(), cap).with_window(start, end);
    let refs: Vec<&Program> = programs.iter().collect();
    let mut sim = match Simulator::try_new_mix(cfg, &refs) {
        Ok(sim) => sim,
        Err(e) => return format!("(no lifecycle window: rebuild failed: {e})\n"),
    };
    let outcome = sim.run_with(&mut tracer);
    let mut out = format!("lifecycle window, instructions decoded in cycles {start}..={end}:\n");
    out.push_str(&tracer.lifecycle.render());
    if let Err(e) = outcome {
        out.push_str(&format!("(traced rerun ended early: {e})\n"));
    }
    out
}

/// Runs the oracle over `programs` (one for every thread, or one per
/// thread), optionally splicing a snapshot round-trip into the machine
/// every `checkpoint_every` cycles.
fn run_verify(
    programs: &[Program],
    cfg: SimConfig,
    checkpoint_every: Option<u64>,
) -> Result<Report, Box<Divergence>> {
    let refs: Vec<&Program> = programs.iter().collect();
    match checkpoint_every {
        Some(every) => verify_mix_with_checkpoints(&refs, cfg, every),
        None => verify_mix(&refs, cfg),
    }
}

/// Verifies one seed at every (front end, thread count) point: the
/// homogeneous matrix, then the heterogeneous column, where every thread
/// runs a *different* generated program, checked per thread against a solo
/// reference run. Returns the number of verifications done and the first
/// failure, minimized.
fn fuzz_seed(
    seed: u64,
    gen_cfg: &GenConfig,
    trace: bool,
    checkpoint_every: Option<u64>,
) -> (u64, Option<Failure>) {
    let plan = Plan::generate(seed, gen_cfg);
    let uniform = THREAD_COUNTS.map(|threads| (threads, Generated::Uniform(&plan), &FRONTENDS[..]));
    let mixes = MIX_THREADS.into_iter().map(|threads| {
        let mix = MixPlan::generate(seed, threads, gen_cfg);
        (threads, Generated::Mix(mix), &MIX_FRONTENDS[..])
    });
    let mut runs = 0;
    for (threads, generated, frontends) in uniform.into_iter().chain(mixes) {
        let programs = generated
            .build(&vec![true; generated.mask_len()], threads)
            .unwrap_or_else(|e| panic!("seed {seed}: plan must lower at {threads} threads: {e}"));
        for &frontend in frontends {
            runs += 1;
            if let Err(d) = run_verify(&programs, config(frontend, threads), checkpoint_every) {
                let failure = minimize(&generated, frontend, threads, &d, trace, checkpoint_every);
                return (runs, Some(failure));
            }
        }
    }
    (runs, None)
}

/// Shrinks the failing programs under the failing (front end, threads)
/// point and formats the repro report. For a mix the minimizer works on
/// the concatenated mask, so segments vanish from every thread's program
/// at once until only the interacting parts remain.
fn minimize(
    generated: &Generated<'_>,
    frontend: FrontEnd,
    threads: usize,
    original: &Divergence,
    trace: bool,
    checkpoint_every: Option<u64>,
) -> Failure {
    // Minimize under the same verifier that failed: a checkpoint-specific
    // bug would vanish under the plain one.
    let verify = |programs: &[Program]| -> Result<Report, Box<Divergence>> {
        run_verify(programs, config(frontend, threads), checkpoint_every)
    };
    let mask = shrink::minimize(generated.mask_len(), |mask| {
        generated
            .build(mask, threads)
            .is_ok_and(|ps| verify(&ps).is_err())
    });
    let minimized = generated
        .build(&mask, threads)
        .expect("minimizer only keeps buildable masks");
    let divergence = match verify(&minimized) {
        Err(d) => *d,
        // The minimizer's last accepted mask failed moments ago; a pass here
        // would mean nondeterminism, which is itself worth reporting loudly.
        Ok(_) => original.clone(),
    };
    let mask_bits: String = mask.iter().map(|&b| if b { '1' } else { '0' }).collect();
    let mut listing = String::new();
    for (slot, p) in minimized.iter().enumerate() {
        listing.push_str(&format!(
            "minimized program {slot} ({} instructions):\n",
            p.text().len()
        ));
        for (pc, insn) in p.text().iter().enumerate() {
            listing.push_str(&format!("    {pc:4}: {insn}\n"));
        }
    }
    let window = if trace {
        lifecycle_window(&minimized, frontend, threads, divergence.cycle)
    } else {
        String::new()
    };
    let report = format!(
        "seed {seed} diverges under {frontend} with {threads} thread(s)\n\
         minimized mask: {mask_bits}  ({desc})\n\
         repro: {repro}\n\
         {divergence}\n{listing}{window}",
        seed = generated.seed(),
        desc = generated.describe(&mask),
        repro = generated.repro(threads),
    );
    Failure {
        seed: generated.seed(),
        frontend,
        threads,
        report,
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds: u64 =
        flag_value(&args, "--seeds").map_or(200, |v| v.parse().expect("--seeds takes a count"));
    let start: u64 = flag_value(&args, "--start-seed")
        .map_or(0, |v| v.parse().expect("--start-seed takes a seed"));
    let workers: usize = flag_value(&args, "--workers").map_or_else(
        || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        },
        |v| v.parse().expect("--workers takes a positive integer"),
    );
    let workers = workers.clamp(1, seeds.max(1) as usize);
    let trace = args.iter().any(|a| a == "--trace-on-divergence");
    let checkpoint_every: Option<u64> = flag_value(&args, "--checkpoint-every").map(|v| {
        let n = v.parse().expect("--checkpoint-every takes a cycle count");
        assert!(n > 0, "--checkpoint-every takes a positive cycle count");
        n
    });
    let gen_cfg = GenConfig::default();

    let began = Instant::now();
    // Round-robin sharding: seed cost varies (plan size, minimization), so
    // interleaving balances better than contiguous chunks.
    let per_worker: Vec<(u64, Vec<Failure>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers as u64)
            .map(|w| {
                let gen_cfg = &gen_cfg;
                s.spawn(move || {
                    let mut runs = 0;
                    let mut failures = Vec::new();
                    let mut seed = start + w;
                    while seed < start + seeds {
                        let (r, failure) = fuzz_seed(seed, gen_cfg, trace, checkpoint_every);
                        runs += r;
                        failures.extend(failure);
                        seed += workers as u64;
                    }
                    (runs, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fuzz worker panicked"))
            .collect()
    });
    let elapsed = began.elapsed();

    let total_runs: u64 = per_worker.iter().map(|(r, _)| r).sum();
    let mut failures: Vec<Failure> = per_worker.into_iter().flat_map(|(_, f)| f).collect();
    failures.sort_by_key(|f| f.seed);

    let secs = elapsed.as_secs_f64();
    let splices = checkpoint_every.map_or(String::new(), |n| {
        format!(", snapshot round-trip every {n} cycles")
    });
    println!(
        "fuzz: {total_runs} verifications over {seeds} seeds x {} front ends x {:?} threads \
         (+ mixes: {} front ends x {:?} slots) \
         in {secs:.1}s ({:.0} programs/sec, {workers} workers{splices})",
        FRONTENDS.len(),
        THREAD_COUNTS,
        MIX_FRONTENDS.len(),
        MIX_THREADS,
        f64::from(u32::try_from(total_runs).unwrap_or(u32::MAX)) / secs.max(1e-9),
    );
    if failures.is_empty() {
        println!("fuzz: no divergences");
        return;
    }
    for f in &failures {
        eprintln!(
            "\n=== FAILURE: seed {} / {} / {} thread(s) ===\n{}",
            f.seed, f.frontend, f.threads, f.report
        );
    }
    eprintln!("fuzz: {} diverging seed(s)", failures.len());
    std::process::exit(1);
}
