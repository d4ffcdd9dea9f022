//! `fuzz`: the CI fuzz configuration on one worker — 200 generated
//! programs starting at the benchmark seed, each verified under every
//! front end at 1, 2, 4 and 8 threads plus the heterogeneous-mix column,
//! with a snapshot round trip spliced in every 50 cycles. Any divergence is
//! a failed operation. The seeds run on one worker thread, as the shipped
//! fuzzer runs them with `--workers 1`. The only workload through `oracle`, `isa::interp`
//! and `testkit::progen`; it uses `checkpoint` the other way from `search`
//! — live machines encoded, decoded and restored.

use std::rc::Rc;
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use smt_checkpoint::Snapshot;
use smt_core::{FetchPolicy, PredictorKind, SimConfig, SimStats, Simulator};
use smt_isa::interp::Interp;
use smt_isa::Program;
use smt_oracle::{
    verify, verify_mix, verify_mix_with_checkpoints, verify_with_checkpoints, Report,
};
use smt_testkit::progen::{GenConfig, MixPlan, Plan};

use crate::machine::{set_core, Machine};
use crate::span::Trace;
use crate::{stats, Ctx, Guard, Rep, Size, Traced};

const SEEDS: u64 = 200;
const PROBE_SEEDS: u64 = 4;
const CHECKPOINT_EVERY: u64 = 50;
/// The fuzzer's watchdog for generated programs.
const FUZZ_MAX_CYCLES: u64 = 2_000_000;

type FrontEnd = (FetchPolicy, PredictorKind, usize, usize);

/// The fuzzer's front ends: policy × predictor × fetch ports × width.
const FRONTENDS: [FrontEnd; 8] = [
    (FetchPolicy::TrueRoundRobin, PredictorKind::SharedBtb, 1, 4),
    (
        FetchPolicy::MaskedRoundRobin,
        PredictorKind::SharedBtb,
        1,
        4,
    ),
    (
        FetchPolicy::ConditionalSwitch,
        PredictorKind::SharedBtb,
        1,
        4,
    ),
    (FetchPolicy::Icount, PredictorKind::SharedBtb, 1, 4),
    (FetchPolicy::TrueRoundRobin, PredictorKind::Gshare, 1, 4),
    (
        FetchPolicy::TrueRoundRobin,
        PredictorKind::PartitionedBtb,
        1,
        4,
    ),
    (FetchPolicy::Icount, PredictorKind::Gshare, 2, 8),
    (
        FetchPolicy::ConditionalSwitch,
        PredictorKind::PartitionedBtb,
        2,
        8,
    ),
];
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const MIX_FRONTENDS: [FrontEnd; 4] = [
    (FetchPolicy::TrueRoundRobin, PredictorKind::SharedBtb, 1, 4),
    (FetchPolicy::Icount, PredictorKind::Gshare, 1, 4),
    (
        FetchPolicy::MaskedRoundRobin,
        PredictorKind::PartitionedBtb,
        1,
        4,
    ),
    (
        FetchPolicy::ConditionalSwitch,
        PredictorKind::SharedBtb,
        2,
        8,
    ),
];
const MIX_THREADS: [usize; 2] = [2, 4];

fn config((policy, predictor, ports, width): FrontEnd, threads: usize) -> SimConfig {
    SimConfig::default()
        .with_threads(threads)
        .with_fetch_policy(policy)
        .with_predictor(predictor)
        .with_fetch_threads(ports.min(threads))
        .with_fetch_width(width)
        .with_max_cycles(FUZZ_MAX_CYCLES)
}

/// One verification: per-thread programs (one for a homogeneous run),
/// shared by every machine they are verified on, and the machine.
struct Case {
    programs: Rc<Vec<Program>>,
    config: SimConfig,
}

impl Case {
    fn refs(&self) -> Vec<&Program> {
        self.programs.iter().collect()
    }

    fn is_mix(&self) -> bool {
        self.programs.len() > 1
    }
}

/// Generates and lowers one seed's programs, paired with every machine
/// they are verified on — the `testkit::progen` share of the work.
fn generate(seed: u64, gen: &GenConfig) -> Result<Vec<Case>, String> {
    let plan = Plan::generate(seed, gen);
    let mut cases = Vec::with_capacity(THREAD_COUNTS.len() * FRONTENDS.len() + 8);
    for threads in THREAD_COUNTS {
        let program = plan
            .build_full(threads)
            .map_err(|e| format!("seed {seed}: plan does not lower at {threads} threads: {e}"))?;
        let programs = Rc::new(vec![program]);
        for fe in FRONTENDS {
            cases.push(Case {
                programs: Rc::clone(&programs),
                config: config(fe, threads),
            });
        }
    }
    for threads in MIX_THREADS {
        let programs = Rc::new(
            MixPlan::generate(seed, threads, gen)
                .build_full()
                .map_err(|e| format!("seed {seed}: mix does not lower at {threads} slots: {e}"))?,
        );
        for fe in MIX_FRONTENDS {
            cases.push(Case {
                programs: Rc::clone(&programs),
                config: config(fe, threads),
            });
        }
    }
    Ok(cases)
}

fn verify_spliced(case: &Case) -> Result<Report, String> {
    let refs = case.refs();
    match refs[..] {
        [p] => verify_with_checkpoints(p, case.config.clone(), CHECKPOINT_EVERY),
        _ => verify_mix_with_checkpoints(&refs, case.config.clone(), CHECKPOINT_EVERY),
    }
    .map_err(|d| d.to_string())
}

fn verify_plain(case: &Case) -> Result<Report, String> {
    let refs = case.refs();
    match refs[..] {
        [p] => verify(p, case.config.clone()),
        _ => verify_mix(&refs, case.config.clone()),
    }
    .map_err(|d| d.to_string())
}

/// One seed's verifications on the worker: its seconds, then each
/// verification's simulated cycles and retired instructions, or why the
/// seed failed.
type SeedResult = (f64, Result<Vec<Result<(u64, u64), String>>, String>);

/// The fuzzer's one worker thread, waiting for seeds.
pub struct Fixture {
    seeds: mpsc::Sender<u64>,
    results: mpsc::Receiver<SeedResult>,
    worker: thread::JoinHandle<()>,
}

/// What the fuzzer does before its first seed: its generator configuration
/// and the start of its one worker, which is ready when it answers.
pub fn setup(_ctx: &Ctx, _n: usize) -> Result<Fixture, String> {
    let (seeds, seed_rx) = mpsc::channel::<u64>();
    let (result_tx, results) = mpsc::channel::<SeedResult>();
    let worker = thread::Builder::new()
        .name("fuzz-worker".into())
        .spawn(move || {
            let gen = GenConfig::default();
            if result_tx.send((0.0, Ok(Vec::new()))).is_err() {
                return;
            }
            for seed in seed_rx {
                let t = Instant::now();
                let r = generate(seed, &gen).map(|cases| {
                    cases
                        .iter()
                        .map(|c| verify_spliced(c).map(|r| (r.cycles, r.instructions)))
                        .collect()
                });
                if result_tx.send((t.elapsed().as_secs_f64(), r)).is_err() {
                    return;
                }
            }
        })
        .map_err(|e| format!("cannot start the fuzz worker: {e}"))?;
    let _ready = results
        .recv()
        .map_err(|_| "the fuzz worker did not start".to_string())?;
    Ok(Fixture {
        seeds,
        results,
        worker,
    })
}

pub fn teardown(f: Fixture) {
    drop(f.seeds);
    let _ = f.worker.join();
}

fn seeds(ctx: &Ctx, size: Size) -> impl Iterator<Item = u64> {
    let n = match size {
        Size::Full => SEEDS,
        Size::Probe => PROBE_SEEDS,
    };
    let start = ctx.seed;
    (0..n).map(move |i| start.wrapping_add(i))
}

/// Counts one verification into the repetition.
fn tally(rep: &mut Rep, totals: &mut (u64, u64), seed: u64, result: Result<(u64, u64), String>) {
    match result {
        Ok((cycles, instructions)) => {
            totals.0 += cycles;
            totals.1 += instructions;
            rep.check(true, String::new);
        }
        Err(d) => rep.check(false, || format!("seed {seed} diverges: {d}")),
    }
}

fn finish_guard(rep: &mut Rep, totals: (u64, u64)) {
    rep.sim_cycles = totals.0;
    rep.guard = Guard {
        sim_cycles: totals.0,
        ipc: totals.1 as f64 / totals.0.max(1) as f64,
        hit_rate: None,
        branch_accuracy: None,
        evaluations: 0,
    };
}

/// Hands the worker one seed at a time; `wall_s` is the sum of the
/// worker's seed times.
pub fn run(ctx: &Ctx, f: &mut Fixture, between: &mut dyn FnMut()) -> Rep {
    let mut rep = Rep::default();
    let mut totals = (0, 0);
    for seed in seeds(ctx, Size::Full) {
        let answer = f.seeds.send(seed).ok().and_then(|()| f.results.recv().ok());
        let Some((secs, result)) = answer else {
            rep.check(false, || format!("seed {seed}: the fuzz worker died"));
            break;
        };
        rep.wall_s += secs;
        match result {
            Ok(verified) => {
                for r in verified {
                    tally(&mut rep, &mut totals, seed, r);
                }
            }
            Err(e) => rep.check(false, || e),
        }
        between();
    }
    finish_guard(&mut rep, totals);
    rep
}

/// Runs `case` on the bare core, returning its statistics (up to the
/// fault for programs that end in one).
fn core_run(case: &Case) -> Result<SimStats, String> {
    let refs = case.refs();
    let mut sim = match refs[..] {
        [p] => Simulator::try_new(case.config.clone(), p),
        _ => Simulator::try_new_mix(case.config.clone(), &refs),
    }
    .map_err(|e| e.to_string())?;
    Ok(match sim.run() {
        Ok(stats) => stats,
        Err(_) => {
            let mut stats = sim.stats().clone();
            stats.cycles = sim.cycle();
            stats
        }
    })
}

/// Interpreter steps for `case`: each program on its own, as the oracle's
/// references run.
fn interp_steps(case: &Case) -> u64 {
    let threads = if case.is_mix() {
        1
    } else {
        case.config.threads
    };
    case.programs
        .iter()
        .map(|p| {
            let mut interp = Interp::new(p, threads);
            match interp.run() {
                Ok(s) => s.steps,
                Err(_) => interp.retired_counts().iter().sum(),
            }
        })
        .sum()
}

/// The splice loop of `verify_with_checkpoints` without the oracle, each
/// encode and decode in its own span. Returns (splices, bytes per splice).
fn splice_replay(case: &Case, trace: &mut Trace, op: u64) -> Result<(u64, Vec<f64>), String> {
    let refs = case.refs();
    let cfg = &case.config;
    let mut sim = match refs[..] {
        [p] => Simulator::try_new(cfg.clone(), p),
        _ => Simulator::try_new_mix(cfg.clone(), &refs),
    }
    .map_err(|e| e.to_string())?;
    let (mut splices, mut sizes) = (0, Vec::new());
    loop {
        for _ in 0..CHECKPOINT_EVERY {
            if sim.finished() {
                break;
            }
            if sim.step().is_err() {
                return Ok((splices, sizes));
            }
        }
        if sim.finished() || sim.cycle() >= cfg.max_cycles {
            return Ok((splices, sizes));
        }
        let bytes = trace.span("checkpoint.encode", op, |_| sim.checkpoint().to_bytes());
        sizes.push(bytes.len() as f64);
        sim = trace
            .span("checkpoint.decode", op, |_| {
                let snap = Snapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
                match refs[..] {
                    [p] => Simulator::restore(cfg.clone(), p, &snap),
                    _ => Simulator::restore_mix(cfg.clone(), &refs, &snap),
                }
                .map_err(|e| e.to_string())
            })
            .map_err(|e| format!("splice replay: {e}"))?;
        splices += 1;
    }
}

pub fn traced(ctx: &Ctx, size: Size, trace: &mut Trace) -> Result<Traced, String> {
    let gen = GenConfig::default();
    let mark = trace.mark();
    let root_op = trace.new_op();
    let mut out = Traced::default();
    let mut totals = (0, 0);
    let mut m = Machine::default();
    let (mut steps, mut splices, mut sizes) = (0u64, 0u64, Vec::new());
    let mut divergences = 0u64;
    let root = trace.enter("bench.fuzz", root_op);
    for seed in seeds(ctx, size) {
        let op = trace.new_op();
        let cases = trace.span("testkit.progen", op, |_| generate(seed, &gen));
        let cases = match cases {
            Ok(c) => c,
            Err(e) => {
                out.rep.check(false, || e);
                continue;
            }
        };
        for case in &cases {
            let r = trace.span("oracle.verify", op, |_| verify_spliced(case));
            divergences += u64::from(r.is_err());
            tally(
                &mut out.rep,
                &mut totals,
                seed,
                r.map(|r| (r.cycles, r.instructions)),
            );
        }
        // Replay the seed right after it, so both see the same host speed:
        // the oracle without splices, the bare core, the reference
        // interpreter, and every splice's encode and decode on its own.
        let replay = trace.enter("bench.replay", op);
        for case in &cases {
            let plain = trace.span("oracle.verify_plain", op, |_| verify_plain(case));
            out.rep.check(plain.is_ok(), || {
                format!("seed {seed}: plain verification diverges")
            });
            let stats = trace.span("core.run", op, |_| core_run(case))?;
            m.add(&stats);
            steps += trace.span("interp.run", op, |_| interp_steps(case));
            let (n, s) = splice_replay(case, trace, op)?;
            splices += n;
            sizes.extend(s);
        }
        trace.exit(replay);
    }
    trace.exit(root);
    out.workload_s = trace.total(mark, "testkit.progen") + trace.total(mark, "oracle.verify");
    finish_guard(&mut out.rep, totals);
    out.rep.check(m.cycles == totals.0, || {
        format!(
            "core replay ran {} cycles, the oracle {}",
            m.cycles, totals.0
        )
    });
    let v = &mut out.values;
    let verify_s = trace.total(mark, "oracle.verify");
    v.set(
        "oracle.verify_ms",
        stats::median(&trace.secs_of(mark, "oracle.verify")) * 1e3,
    );
    v.set(
        "oracle.splice_share",
        1.0 - trace.total(mark, "oracle.verify_plain") / verify_s.max(1e-12),
    );
    v.set(
        "interp.ns_per_step",
        trace.total(mark, "interp.run") * 1e9 / steps.max(1) as f64,
    );
    v.set("oracle.divergences", divergences as f64);
    v.set(
        "testkit.progen_ms",
        stats::median(&trace.secs_of(mark, "testkit.progen")) * 1e3,
    );
    v.set(
        "checkpoint.encode_us",
        stats::median(&trace.secs_of(mark, "checkpoint.encode")) * 1e6,
    );
    v.set(
        "checkpoint.decode_us",
        stats::median(&trace.secs_of(mark, "checkpoint.decode")) * 1e6,
    );
    v.set("checkpoint.bytes", stats::median(&sizes));
    v.set("checkpoint.splices", splices as f64);
    set_core(v, trace.total(mark, "core.run"), &m);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(path: &str) -> String {
        let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// The value of `const NAME: … = value;` in `src`, without whitespace,
    /// digit separators or trailing commas.
    fn const_value(src: &str, name: &str) -> String {
        let start = src
            .find(&format!("const {name}:"))
            .unwrap_or_else(|| panic!("no const {name}"));
        let eq = start + src[start..].find('=').expect("an initialiser");
        let end = eq + src[eq..].find(';').expect("a terminated item");
        let v: String = src[eq + 1..end]
            .chars()
            .filter(|c| !c.is_whitespace() && *c != '_')
            .collect();
        v.replace(",)", ")").replace(",]", "]")
    }

    /// The `.with_*` builder calls of `fn config` in `src`, by name.
    fn config_calls(src: &str) -> Vec<String> {
        let start = src.find("\nfn config(").expect("fn config");
        let end = start + src[start..].find("\n}\n").expect("fn config ends");
        src[start..end]
            .split(".with_")
            .skip(1)
            .map(|s| s[..s.find('(').expect("a call")].to_string())
            .collect()
    }

    fn frontends(list: &[FrontEnd]) -> String {
        let items: Vec<String> = list
            .iter()
            .map(|(policy, predictor, ports, width)| {
                format!("(FetchPolicy::{policy:?},PredictorKind::{predictor:?},{ports},{width})")
            })
            .collect();
        format!("[{}]", items.join(","))
    }

    #[test]
    fn the_matrix_is_the_shipped_fuzzers() {
        let shipped = source("../crates/experiments/src/bin/fuzz.rs");
        let shipped_fe = |name| const_value(&shipped, name).replace("fe(", "(");
        assert_eq!(shipped_fe("FRONTENDS"), frontends(&FRONTENDS));
        assert_eq!(shipped_fe("MIX_FRONTENDS"), frontends(&MIX_FRONTENDS));
        let plain = |v: &[usize]| format!("{v:?}").replace(' ', "");
        assert_eq!(
            const_value(&shipped, "THREAD_COUNTS"),
            plain(&THREAD_COUNTS)
        );
        assert_eq!(const_value(&shipped, "MIX_THREADS"), plain(&MIX_THREADS));
        assert_eq!(
            const_value(&shipped, "FUZZ_MAX_CYCLES"),
            FUZZ_MAX_CYCLES.to_string()
        );
        let ours = config_calls(&source("src/fuzz.rs"));
        assert_eq!(config_calls(&shipped), ours);
        assert!(ours.contains(&"fetch_threads".to_string()));
        assert!(shipped.contains(".with_fetch_threads(frontend.fetch_threads.min(threads))"));
    }

    #[test]
    fn the_run_is_the_ci_fuzz_configuration() {
        let ci = source("../.github/workflows/ci.yml");
        let flags = format!("--seeds {SEEDS} --checkpoint-every {CHECKPOINT_EVERY}");
        assert!(
            ci.contains(&flags),
            "CI no longer runs the fuzzer with {flags}"
        );
    }
}
