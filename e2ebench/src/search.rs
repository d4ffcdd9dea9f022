//! `search`: `run_search` on paper-scale Matrix at 4 threads over the full
//! space, in warm mode, into a fresh store, with its trajectory digest
//! checked. The only workload through `explore`, `smt-search` and
//! `fork_warm`; it uses `checkpoint` one way — one snapshot, hundreds of
//! forks.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use smt_checkpoint::Snapshot;
use smt_core::config::warm;
use smt_core::{SimConfig, Simulator};
use smt_experiments::explore::{run_search, EvalMode, SearchReport, SearchSpace};
use smt_experiments::sweep::{CellRecord, CellStatus, Scheduler, SweepOptions};
use smt_search::SearchParams;
use smt_workloads::{workload, Scale, WorkloadKind};

use crate::machine::{set_core, Machine};
use crate::span::Trace;
use crate::{stats, Ctx, Guard, Rep, Traced};

/// Canonical-machine cycles before the shared warm snapshot, as `sweep
/// --search` and the serve `search` verb default to.
const WARMUP: u64 = 20_000;
const THREADS: usize = 4;
/// Search seeds with recorded trajectory digests; the benchmark seed
/// selects one of them.
pub const SEARCH_SEEDS: u64 = 16;
/// Encode/decode repetitions of the warm snapshot in the traced replay.
const CODEC_REPS: usize = 16;
const DIGESTS: &str = "search_digests.txt";

fn space() -> SearchSpace {
    SearchSpace::full(WorkloadKind::Matrix.into(), THREADS)
}

fn params(seed: u64) -> SearchParams {
    SearchParams {
        seed: seed % SEARCH_SEEDS,
        ..SearchParams::default()
    }
}

fn options() -> SweepOptions {
    SweepOptions {
        scale: Scale::Paper,
        workers: 1,
        ..SweepOptions::default()
    }
}

pub struct Fixture {
    store: PathBuf,
    sched: Scheduler,
}

/// Opens a fresh result store.
pub fn setup(ctx: &Ctx, n: usize) -> Result<Fixture, String> {
    let store = ctx.work.join(format!("search-store-{n}"));
    let sched = Scheduler::new(&store, options()).map_err(|e| format!("search store: {e}"))?;
    Ok(Fixture { store, sched })
}

pub fn teardown(f: Fixture) {
    let _ = std::fs::remove_dir_all(&f.store);
}

fn recorded_digest(ctx: &Ctx) -> Result<u64, String> {
    let path = ctx.data(DIGESTS);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let want = ctx.seed % SEARCH_SEEDS;
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(s, _)| s.parse() == Ok(want))
        .and_then(|(_, d)| u64::from_str_radix(d, 16).ok())
        .ok_or_else(|| format!("no digest recorded for search seed {want}"))
}

/// Totals over the warm records the search left in its store (sorted by
/// file name, so float sums repeat exactly).
fn store_totals(store: &Path) -> (Machine, f64, f64) {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(store.join("cells-warm"))
        .map(|d| d.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    paths.sort();
    let mut m = Machine::default();
    let (mut hit, mut acc, mut done) = (0.0, 0.0, 0u32);
    for p in paths {
        let Some(rec) = std::fs::read_to_string(&p)
            .ok()
            .and_then(|t| CellRecord::parse(&t))
        else {
            continue;
        };
        if rec.status == CellStatus::Done {
            m.cycles += rec.cycles;
            m.committed += rec.committed;
            hit += rec.hit_rate;
            acc += rec.branch_accuracy;
            done += 1;
        }
    }
    let n = f64::from(done.max(1));
    (m, hit / n, acc / n)
}

/// Checks a finished search and fills the repetition's counters.
fn conclude(
    rep: &mut Rep,
    ctx: &Ctx,
    store: &Path,
    report: std::io::Result<SearchReport>,
) -> Option<SearchReport> {
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            rep.check(false, || format!("search I/O failed: {e}"));
            return None;
        }
    };
    let want = recorded_digest(ctx);
    rep.check(want.as_ref() == Ok(&report.trajectory_hash), || {
        format!(
            "trajectory digest {:016x} is not the recorded {want:?}",
            report.trajectory_hash
        )
    });
    let (m, hit, acc) = store_totals(store);
    rep.sim_cycles = m.cycles + WARMUP;
    rep.guard = Guard {
        sim_cycles: m.cycles,
        ipc: m.ipc(),
        hit_rate: Some(hit),
        branch_accuracy: Some(acc),
        evaluations: report.outcome.evaluations.len() as u64,
    };
    Some(report)
}

/// One search: a single call, with no unit boundaries for extra setups.
pub fn run(ctx: &Ctx, f: &mut Fixture, _between: &mut dyn FnMut()) -> Rep {
    let began = Instant::now();
    let report = run_search(
        &f.sched,
        &space(),
        EvalMode::Warm { warmup: WARMUP },
        &params(ctx.seed),
    );
    let mut rep = Rep {
        wall_s: began.elapsed().as_secs_f64(),
        ..Rep::default()
    };
    conclude(&mut rep, ctx, &f.store, report);
    rep
}

/// The shared warm snapshot exactly as the explorer takes it: canonical
/// machine, warmup, drain, relaxed-identity checkpoint.
fn warm_snapshot(program: &smt_isa::Program) -> Result<Snapshot, String> {
    let mut sim = Simulator::try_new(SimConfig::default().with_threads(THREADS), program)
        .map_err(|e| e.to_string())?;
    for _ in 0..WARMUP {
        if sim.finished() {
            return Err("kernel retired within the warmup".into());
        }
        sim.step().map_err(|e| e.to_string())?;
    }
    sim.drain().map_err(|e| e.to_string())?;
    sim.checkpoint_warm(&warm::relax_all())
        .map_err(|e| e.to_string())
}

pub fn traced(ctx: &Ctx, trace: &mut Trace) -> Result<Traced, String> {
    let f = setup(ctx, 0)?;
    let mark = trace.mark();
    let op0 = trace.new_op();
    let root = trace.enter("bench.search", op0);
    let report = trace.span("search.run", op0, |_| {
        run_search(
            &f.sched,
            &space(),
            EvalMode::Warm { warmup: WARMUP },
            &params(ctx.seed),
        )
    });
    trace.exit(root);
    let mut out = Traced {
        workload_s: trace.total(mark, "search.run"),
        ..Traced::default()
    };
    let report = conclude(&mut out.rep, ctx, &f.store, report);
    teardown(f);
    let report = report.ok_or("the traced search failed")?;

    // Replay its evaluations through the layers below the explorer.
    let replay = trace.enter("bench.replay", op0);
    let program = trace
        .span("workloads.build", op0, |_| {
            workload(WorkloadKind::Matrix, Scale::Paper).build(THREADS)
        })
        .map_err(|e| format!("Matrix does not build: {e}"))?;
    let snap = trace.span("explore.snapshot", op0, |_| warm_snapshot(&program))?;
    let mut bytes = Vec::new();
    for _ in 0..CODEC_REPS {
        bytes = trace.span("checkpoint.encode", op0, |_| snap.to_bytes());
        let back = trace.span("checkpoint.decode", op0, |_| Snapshot::from_bytes(&bytes));
        out.rep.check(back.as_ref() == Ok(&snap), || {
            "the warm snapshot does not survive its wire format".into()
        });
    }
    let space = space();
    let mut m = Machine::default();
    let mut forks = 0u64;
    for e in &report.outcome.evaluations {
        let op = trace.new_op();
        let spec = space.spec_at(&e.point);
        let forked = trace.span("explore.fork", op, |_| {
            Simulator::fork_warm(spec.config(), &program, &snap)
        });
        let Ok(mut sim) = forked else {
            out.rep.check(!e.objectives.feasible, || {
                format!(
                    "{}: the search measured a point that does not fork",
                    spec.id()
                )
            });
            continue;
        };
        forks += 1;
        let stats = trace.span("explore.window", op, |_| sim.run());
        match stats {
            Ok(s) => {
                out.rep
                    .check(s.ipc().to_bits() == e.objectives.value.to_bits(), || {
                        format!(
                            "{}: replayed window IPC {} is not the searched {}",
                            spec.id(),
                            s.ipc(),
                            e.objectives.value
                        )
                    });
                m.add(&s);
            }
            Err(err) => out
                .rep
                .check(false, || format!("{}: window failed: {err}", spec.id())),
        }
    }
    trace.exit(replay);

    let v = &mut out.values;
    let run_s = trace.total(mark, "search.run");
    let fork_s = trace.total(mark, "explore.fork");
    let window_s = trace.total(mark, "explore.window");
    let lower_s = trace.total(mark, "workloads.build")
        + trace.total(mark, "explore.snapshot")
        + fork_s
        + window_s;
    v.set(
        "search.evaluations",
        report.outcome.evaluations.len() as f64,
    );
    v.set("search.steps", report.outcome.steps.len() as f64);
    v.set(
        "search.frontier_points",
        report.outcome.frontier.len() as f64,
    );
    // Floored at 0 when the host slows between the search and its replay.
    v.set("search.self_s", (run_s - lower_s).max(0.0));
    v.set(
        "explore.snapshot_ms",
        trace.total(mark, "explore.snapshot") * 1e3,
    );
    v.set(
        "explore.fork_us",
        stats::median(&trace.secs_of(mark, "explore.fork")) * 1e6,
    );
    v.set(
        "explore.window_ms",
        stats::median(&trace.secs_of(mark, "explore.window")) * 1e3,
    );
    v.set(
        "checkpoint.encode_us",
        stats::median(&trace.secs_of(mark, "checkpoint.encode")) * 1e6,
    );
    v.set(
        "checkpoint.decode_us",
        stats::median(&trace.secs_of(mark, "checkpoint.decode")) * 1e6,
    );
    v.set("checkpoint.bytes", bytes.len() as f64);
    v.set("checkpoint.splices", forks as f64);
    v.set(
        "workloads.build_ms",
        trace.total(mark, "workloads.build") * 1e3,
    );
    v.set("workloads.programs", 1.0);
    set_core(v, fork_s + window_s, &m);
    Ok(out)
}

/// Records the trajectory digest of every search seed into
/// `data/search_digests.txt`.
pub fn record(ctx: &Ctx) -> Result<(), String> {
    let mut out = String::new();
    for seed in 0..SEARCH_SEEDS {
        let store = ctx.work.join(format!("record-search-{seed}"));
        let sched = Scheduler::new(&store, options()).map_err(|e| e.to_string())?;
        let report = run_search(
            &sched,
            &space(),
            EvalMode::Warm { warmup: WARMUP },
            &params(seed),
        )
        .map_err(|e| format!("search seed {seed}: {e}"))?;
        let _ = writeln!(out, "{seed} {:016x}", report.trajectory_hash);
        let _ = std::fs::remove_dir_all(&store);
    }
    let path = ctx.data(DIGESTS);
    std::fs::create_dir_all(path.parent().expect("data dir")).map_err(|e| e.to_string())?;
    std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_search_seed_has_a_recorded_digest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/search_digests.txt");
        let text = std::fs::read_to_string(path).unwrap();
        for seed in 0..SEARCH_SEEDS {
            assert!(
                text.lines()
                    .any(|l| l.split(' ').next() == Some(&seed.to_string())),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn benchmark_seeds_map_onto_recorded_search_seeds() {
        assert_eq!(params(3).seed, 3);
        assert_eq!(params(SEARCH_SEEDS + 3).seed, 3);
        assert_eq!(params(u64::MAX).seed, u64::MAX % SEARCH_SEEDS);
    }
}
