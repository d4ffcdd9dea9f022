//! `serve`: an in-process server with one worker, a fresh store and the
//! corpus attached, driven through the shipped client over one connection.
//! The client runs a closed loop of seeded single-cell submits over the
//! paper ∪ hetero grid cells at paper scale: half the requests are first
//! visits (simulated, with progress and CPI telemetry), half revisit a cell
//! already answered (a store hit). It is the only workload through
//! `serve`, the protocol and the transport, and it uses the sweep store
//! both ways.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use smt_checkpoint::StableHasher;
use smt_core::Simulator;
use smt_corpus::Corpus;
use smt_experiments::sweep::{
    CellRecord, CellSpec, CellStatus, Grid, Scheduler, SweepOptions, WorkRef,
};
use smt_isa::Program;
use smt_search::SplitMix64;
use smt_serve::client::{Client, SubmitOutcome};
use smt_serve::server::Server;
use smt_workloads::{workload, Scale};

use crate::machine::{set_core, Machine};
use crate::span::Trace;
use crate::{stats, Ctx, Guard, Rep, Size, Traced};

/// Requests per repetition: half first visits, half revisits. The first
/// visits are two cells of every stratum (57 of them; see [`strata`]).
pub const REQUESTS: usize = 228;
const PROBE_REQUESTS: usize = 8;
const DIGESTS: &str = "serve_cells.txt";

/// One request of the closed loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Request {
    /// Index into [`cells`].
    pub cell: usize,
    /// Whether this is the cell's first visit.
    pub first: bool,
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// The request sequence for `seed` over cells whose stratum (workload
/// group) is `strata[cell]`: `requests` requests, half of them (rounded
/// up) first visits and the rest revisits of a uniformly chosen cell
/// already answered, shuffled, the first request always a first visit.
/// First visits take each stratum's cells in a seeded order, round-robin
/// over the strata in a fresh seeded order every round, so every stratum
/// contributes an equal share and the simulated work varies little from
/// seed to seed.
#[must_use]
pub fn plan(seed: u64, strata: &[usize], requests: usize) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed ^ 0x5e12_7e5e_0000_0001);
    let firsts = requests.div_ceil(2).min(strata.len());
    let mut kinds: Vec<bool> = (0..requests).map(|i| i < firsts).collect();
    shuffle(&mut kinds, &mut rng);
    if let Some(j) = kinds.iter().position(|&k| k) {
        kinds.swap(0, j);
    }
    let n_strata = strata.iter().max().map_or(0, |m| m + 1);
    let mut pools: Vec<Vec<usize>> = vec![Vec::new(); n_strata];
    for (cell, &s) in strata.iter().enumerate() {
        pools[s].push(cell);
    }
    for pool in &mut pools {
        shuffle(pool, &mut rng);
    }
    let mut order = Vec::with_capacity(firsts);
    while order.len() < firsts {
        let mut round: Vec<usize> = (0..n_strata).filter(|&s| !pools[s].is_empty()).collect();
        shuffle(&mut round, &mut rng);
        for s in round.into_iter().take(firsts - order.len()) {
            order.push(pools[s].pop().expect("non-empty pool"));
        }
    }
    let mut visited = 0;
    kinds
        .into_iter()
        .map(|first| {
            if first {
                visited += 1;
                Request {
                    cell: order[visited - 1],
                    first: true,
                }
            } else {
                Request {
                    cell: order[rng.below(visited)],
                    first: false,
                }
            }
        })
        .collect()
}

/// The stratum of every cell of [`cells`]: its workload (each built-in, or
/// the hetero group of corpus kernels and mixes) and thread count — the
/// two dimensions that set how long a cell simulates.
#[must_use]
pub fn strata(cells: &[CellSpec]) -> Vec<usize> {
    let mut keys: Vec<(String, usize)> = Vec::new();
    cells
        .iter()
        .map(|c| {
            let work = match c.work.refs() {
                [WorkRef::Builtin(kind)] => format!("{kind:?}"),
                _ => "hetero".to_string(),
            };
            let key = (work, c.threads);
            keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                keys.len() - 1
            })
        })
        .collect()
}

/// Every cell a request may name: the paper grid, then the hetero grid.
#[must_use]
pub fn cells() -> Vec<CellSpec> {
    let mut cells = Grid::paper().cells();
    cells.extend(Grid::hetero().cells());
    cells
}

struct Inputs {
    cells: Vec<CellSpec>,
    strata: Vec<usize>,
    /// Cell id → recorded `status digest`.
    digests: HashMap<String, String>,
}

fn inputs(ctx: &Ctx) -> Result<&'static Inputs, String> {
    static INPUTS: OnceLock<Result<Inputs, String>> = OnceLock::new();
    INPUTS
        .get_or_init(|| {
            let path = ctx.data(DIGESTS);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let digests = text
                .lines()
                .filter_map(|l| l.split_once(' '))
                .map(|(id, rest)| (id.to_string(), rest.to_string()))
                .collect();
            let cells = cells();
            Ok(Inputs {
                strata: strata(&cells),
                cells,
                digests,
            })
        })
        .as_ref()
        .map_err(Clone::clone)
}

/// The simulation outcome of a record, without the code version and the
/// identity hashes (which a refactor may legitimately re-key): status,
/// cycles, commits, rates (bit-exact) and stalls.
fn digest(rec: &CellRecord) -> String {
    let text = format!(
        "{} {} {} {:016x} {:016x} {:016x} {}",
        rec.status.as_str(),
        rec.cycles,
        rec.committed,
        rec.ipc.to_bits(),
        rec.hit_rate.to_bits(),
        rec.branch_accuracy.to_bits(),
        rec.su_stalls
    );
    let mut h = StableHasher::default();
    h.write(text.as_bytes());
    format!("{} {:016x}", rec.status.as_str(), h.finish())
}

fn options(corpus: Corpus) -> SweepOptions {
    SweepOptions {
        scale: Scale::Paper,
        workers: 1,
        corpus: Some(Arc::new(corpus)),
        ..SweepOptions::default()
    }
}

fn load_corpus(ctx: &Ctx) -> Result<Corpus, String> {
    Corpus::load(ctx.root.join("corpus")).map_err(|e| format!("cannot load the corpus: {e}"))
}

fn start(store: &Path, corpus: Corpus) -> Result<(Server, Client), String> {
    let server = Server::start("127.0.0.1:0", store, options(corpus))
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    Ok((server, client))
}

fn stop(server: Server, client: Client) {
    if client.shutdown().is_err() {
        // The connection died; ask again on a fresh one so `join` returns.
        if let Ok(c) = Client::connect(server.addr()) {
            let _ = c.shutdown();
        }
    }
    server.join();
}

pub struct Fixture {
    store: PathBuf,
    server: Server,
    client: Client,
}

/// Fresh store, corpus load, server start, connection and first ping.
pub fn setup(ctx: &Ctx, n: usize) -> Result<Fixture, String> {
    let store = ctx.work.join(format!("serve-store-{n}"));
    let (server, client) = start(&store, load_corpus(ctx)?)?;
    Ok(Fixture {
        store,
        server,
        client,
    })
}

pub fn teardown(f: Fixture) {
    stop(f.server, f.client);
    let _ = std::fs::remove_dir_all(&f.store);
}

/// One answered request.
struct Answer {
    req: Request,
    ms: f64,
    frames: u64,
    outcome: Result<SubmitOutcome, String>,
}

fn submit(client: &mut Client, spec: &CellSpec) -> (Result<SubmitOutcome, String>, u64) {
    let mut progress = 0u64;
    let r = client
        .submit(std::slice::from_ref(spec), None, true, true, &mut |_| {
            progress += 1;
        })
        .map_err(|e| e.to_string());
    // accepted + cells + done, plus the progress events.
    let frames = progress + r.as_ref().map_or(0, |o| 2 + o.cells.len() as u64);
    (r, frames)
}

/// Checks every answer; returns the modelled-machine totals of the first
/// visits.
fn check(rep: &mut Rep, inputs: &Inputs, answers: &[Answer]) -> Machine {
    let mut first: HashMap<usize, CellRecord> = HashMap::new();
    let mut m = Machine::default();
    let (mut hit_sum, mut acc_sum, mut done) = (0.0, 0.0, 0u32);
    for a in answers {
        let spec = &inputs.cells[a.req.cell];
        let id = spec.id();
        let o = match &a.outcome {
            Ok(o) if o.cells.len() == 1 && o.failed.is_empty() => o,
            Ok(o) => {
                rep.check(false, || {
                    format!(
                        "{id}: answer holds {} cells, failures {:?}",
                        o.cells.len(),
                        o.failed
                    )
                });
                continue;
            }
            Err(e) => {
                rep.check(false, || format!("{id}: request failed: {e}"));
                continue;
            }
        };
        let rec = &o.cells[0].1;
        if a.req.first {
            let want = inputs.digests.get(&id);
            rep.check(o.scheduled == 1 && want == Some(&digest(rec)), || {
                format!(
                    "{id}: first visit (scheduled {}) answered {} not the recorded {want:?}",
                    o.scheduled,
                    digest(rec)
                )
            });
            if rec.status == CellStatus::Done {
                m.cycles += rec.cycles;
                m.committed += rec.committed;
                hit_sum += rec.hit_rate;
                acc_sum += rec.branch_accuracy;
                done += 1;
            }
            first.insert(a.req.cell, rec.clone());
        } else {
            rep.check(o.cached == 1 && first.get(&a.req.cell) == Some(rec), || {
                format!(
                    "{id}: revisit (cached {}) differs from the first answer",
                    o.cached
                )
            });
        }
    }
    rep.guard = Guard {
        sim_cycles: m.cycles,
        ipc: m.ipc(),
        hit_rate: Some(hit_sum / f64::from(done.max(1))),
        branch_accuracy: Some(acc_sum / f64::from(done.max(1))),
        evaluations: 0,
    };
    m
}

/// The closed loop; `wall_s` is the sum of the request latencies.
pub fn run(ctx: &Ctx, f: &mut Fixture, between: &mut dyn FnMut()) -> Rep {
    let mut rep = Rep::default();
    let inputs = match inputs(ctx) {
        Ok(i) => i,
        Err(e) => {
            rep.check(false, || e);
            return rep;
        }
    };
    let plan = plan(ctx.seed, &inputs.strata, REQUESTS);
    let mut answers = Vec::with_capacity(plan.len());
    for &req in &plan {
        let t = Instant::now();
        let (outcome, frames) = submit(&mut f.client, &inputs.cells[req.cell]);
        answers.push(Answer {
            req,
            ms: stats::ms(t.elapsed()),
            frames,
            outcome,
        });
        between();
    }
    rep.wall_s = answers.iter().map(|a| a.ms).sum::<f64>() / 1e3;
    let m = check(&mut rep, inputs, &answers);
    rep.sim_cycles = m.cycles;
    let split = |first: bool| -> Vec<f64> {
        answers
            .iter()
            .filter(|a| a.req.first == first)
            .map(|a| a.ms)
            .collect()
    };
    rep.latencies = Some((split(true), split(false)));
    rep
}

/// The first-visit and revisit latency lines for the untraced summary:
/// each kind's latencies pooled over the run's repetitions, with its
/// median and its tail at that sample count.
#[must_use]
pub fn latency_lines(reps: &[Rep]) -> Option<String> {
    let lat: Vec<&(Vec<f64>, Vec<f64>)> =
        reps.iter().filter_map(|r| r.latencies.as_ref()).collect();
    if lat.is_empty() {
        return None;
    }
    let mut out = String::new();
    let cold: Vec<f64> = lat.iter().flat_map(|l| l.0.iter().copied()).collect();
    let hit: Vec<f64> = lat.iter().flat_map(|l| l.1.iter().copied()).collect();
    for (kind, samples) in [("cold", cold), ("hit", hit)] {
        let n = samples.len();
        let _ = writeln!(
            out,
            "  {kind}_p50_ms  {:>10.3} ms  (p50 of {n} requests over {} repetitions)",
            stats::percentile(&samples, 50.0),
            lat.len()
        );
        match stats::tail_percentile(n) {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "  {kind}_tail_ms {:>10.3} ms  (p{p} of {n} requests over {} repetitions)",
                    stats::percentile(&samples, p),
                    lat.len()
                );
            }
            None => {
                let _ = writeln!(out, "  {kind}_tail_ms n/a (fewer than 20 requests)");
            }
        }
    }
    Some(out)
}

/// Builds a cell's programs the way the sweep scheduler does: built-ins
/// for the cell's thread count, corpus kernels once, mix slots as
/// single-thread tenants. `Err` means the cell is infeasible.
fn build(spec: &CellSpec, corpus: &Corpus) -> Result<Vec<Program>, String> {
    let one = |r: &WorkRef, threads: usize| match r {
        WorkRef::Builtin(kind) => workload(*kind, Scale::Paper)
            .build(threads)
            .map_err(|e| e.to_string()),
        WorkRef::Corpus(name) => corpus
            .get(name)
            .ok_or_else(|| format!("no corpus kernel {name}"))?
            .build(Scale::Paper)
            .map_err(|e| e.to_string()),
    };
    if spec.work.is_mix() {
        spec.work.refs().iter().map(|r| one(r, 1)).collect()
    } else {
        one(&spec.work.refs()[0], spec.threads).map(|p| vec![p])
    }
}

/// The traced replay of one first visit: the cell through the scheduler
/// with and without CPI telemetry, then its program build and a bare core
/// run, each checked against the served record.
#[allow(clippy::too_many_arguments)]
fn replay_first(
    trace: &mut Trace,
    op: u64,
    spec: &CellSpec,
    served: Option<&CellRecord>,
    (with_cpi, plain): (&Scheduler, &Scheduler),
    corpus: &Corpus,
    rep: &mut Rep,
    m: &mut Machine,
    builds: &mut usize,
) {
    let rec = trace
        .span("sweep.run_cell", op, |_| {
            with_cpi.run_cell(spec, true, &mut |_| {})
        })
        .rec;
    trace.span("sweep.run_cell_plain", op, |_| {
        plain.run_cell(spec, false, &mut |_| {})
    });
    rep.check(served == Some(&rec), || {
        format!(
            "{}: scheduler record differs from the served one",
            spec.id()
        )
    });
    let name = if matches!(spec.work.refs(), [WorkRef::Builtin(_)]) {
        "workloads.build"
    } else {
        "corpus.build"
    };
    let programs = trace.span(name, op, |_| build(spec, corpus));
    *builds += usize::from(name == "workloads.build");
    // A build or machine the configuration rejects is an infeasible cell.
    let Ok(programs) = programs else { return };
    let refs: Vec<&Program> = programs.iter().collect();
    let stats = trace.span("core.run", op, |_| {
        let sim = match refs[..] {
            [p] => Simulator::try_new(spec.config(), p),
            _ => Simulator::try_new_mix(spec.config(), &refs),
        };
        sim.map(|mut s| s.run())
    });
    match stats {
        Ok(Ok(s)) => {
            rep.check(s.cycles == rec.cycles, || {
                format!(
                    "{}: core replay ran {} cycles, the record {}",
                    spec.id(),
                    s.cycles,
                    rec.cycles
                )
            });
            m.add(&s);
        }
        Ok(Err(e)) => rep.check(false, || format!("{}: core replay failed: {e}", spec.id())),
        Err(_) => {}
    }
}

pub fn traced(ctx: &Ctx, size: Size, trace: &mut Trace) -> Result<Traced, String> {
    let inputs = inputs(ctx)?;
    let requests = match size {
        Size::Full => REQUESTS,
        Size::Probe => PROBE_REQUESTS,
    };
    let plan = plan(ctx.seed, &inputs.strata, requests);
    let mark = trace.mark();
    let op0 = trace.new_op();
    let root = trace.enter("bench.serve", op0);
    let corpus = trace.span("corpus.load", op0, |_| load_corpus(ctx))?;
    let store = ctx.work.join("serve-traced-store");
    let (server, mut client) = trace.span("serve.start", op0, |_| start(&store, corpus))?;
    let mut out = Traced::default();
    // Side stores for the replays: the same cells through the scheduler
    // alone, with CPI telemetry as served and without it.
    let side_corpus = load_corpus(ctx)?;
    let with_cpi = Scheduler::new(
        &ctx.work.join("serve-side-cpi"),
        options(side_corpus.clone()),
    )
    .map_err(|e| format!("side store: {e}"))?;
    let plain = Scheduler::new(
        &ctx.work.join("serve-side-plain"),
        options(side_corpus.clone()),
    )
    .map_err(|e| format!("side store: {e}"))?;
    let mut m = Machine::default();
    let mut builds = 0usize;
    let mut ops = Vec::with_capacity(plan.len());
    let mut answers = Vec::with_capacity(plan.len());
    for &req in &plan {
        let op = trace.new_op();
        ops.push(op);
        let spec = &inputs.cells[req.cell];
        let name = if req.first {
            "serve.submit_cold"
        } else {
            "serve.submit_hit"
        };
        let (outcome, frames) = trace.span(name, op, |_| submit(&mut client, spec));
        // Replay the request through the layers below the server right
        // after it, so both see the same host speed.
        let served = outcome
            .as_ref()
            .ok()
            .and_then(|o| o.cells.first())
            .map(|c| c.1.clone());
        let replay = trace.enter("bench.replay", op);
        if req.first {
            replay_first(
                trace,
                op,
                spec,
                served.as_ref(),
                (&with_cpi, &plain),
                &side_corpus,
                &mut out.rep,
                &mut m,
                &mut builds,
            );
        } else {
            let rec = trace.span("sweep.probe", op, |_| with_cpi.probe(spec));
            out.rep.check(rec.is_some() && rec == served, || {
                format!(
                    "{}: side-store probe differs from the served hit",
                    spec.id()
                )
            });
        }
        trace.exit(replay);
        answers.push(Answer {
            req,
            ms: 0.0,
            frames,
            outcome,
        });
    }
    // Fetch every answered cell back over the same connection.
    for (a, &op) in answers.iter().zip(&ops).filter(|(a, _)| a.req.first) {
        let spec = &inputs.cells[a.req.cell];
        let got = trace.span("serve.fetch", op, |_| client.fetch(spec));
        let want = a
            .outcome
            .as_ref()
            .ok()
            .and_then(|o| o.cells.first())
            .map(|c| &c.1);
        out.rep
            .check(matches!(&got, Ok(Some(rec)) if want == Some(rec)), || {
                format!("{}: fetch does not return the submitted record", spec.id())
            });
    }
    trace.exit(root);
    stop(server, client);
    out.workload_s = trace.total(mark, "serve.submit_cold") + trace.total(mark, "serve.submit_hit");
    let served = check(&mut out.rep, inputs, &answers);
    out.rep.sim_cycles = served.cycles;

    let v = &mut out.values;
    let median_ms = |name: &str| stats::median(&trace.secs_of(mark, name)) * 1e3;
    v.set("corpus.load_ms", median_ms("corpus.load"));
    v.set("serve.start_ms", median_ms("serve.start"));
    v.set("serve.submit_cold_ms", median_ms("serve.submit_cold"));
    v.set("serve.submit_hit_ms", median_ms("serve.submit_hit"));
    v.set("serve.fetch_ms", median_ms("serve.fetch"));
    v.set(
        "serve.transport_ms",
        median_ms("serve.submit_cold") - median_ms("sweep.run_cell"),
    );
    v.set(
        "serve.frames",
        answers.iter().map(|a| a.frames).sum::<u64>() as f64,
    );
    v.set("sweep.run_cell_ms", median_ms("sweep.run_cell"));
    v.set("sweep.probe_ms", median_ms("sweep.probe"));
    let cached: u64 = answers
        .iter()
        .filter_map(|a| a.outcome.as_ref().ok())
        .map(|o| o.cached)
        .sum();
    v.set(
        "sweep.store_hit_ratio",
        cached as f64 / answers.len() as f64,
    );
    v.set(
        "trace.cpi_overhead",
        trace.total(mark, "sweep.run_cell") / trace.total(mark, "sweep.run_cell_plain").max(1e-12)
            - 1.0,
    );
    v.set("workloads.build_ms", median_ms("workloads.build"));
    v.set("workloads.programs", builds as f64);
    set_core(v, trace.total(mark, "core.run"), &m);
    Ok(out)
}

/// Records the digest of every cell's record, computed by the sweep
/// scheduler at paper scale, into `data/serve_cells.txt`.
pub fn record(ctx: &Ctx) -> Result<(), String> {
    let sched = Scheduler::new(&ctx.work.join("record-store"), options(load_corpus(ctx)?))
        .map_err(|e| format!("record store: {e}"))?;
    let mut out = String::new();
    for spec in cells() {
        let rec = sched.run_cell(&spec, false, &mut |_| {}).rec;
        let _ = writeln!(out, "{} {}", spec.id(), digest(&rec));
    }
    let path = ctx.data(DIGESTS);
    std::fs::create_dir_all(path.parent().expect("data dir")).map_err(|e| e.to_string())?;
    std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn the_same_seed_always_yields_the_same_requests() {
        let strata = strata(&cells());
        assert_eq!(plan(7, &strata, REQUESTS), plan(7, &strata, REQUESTS));
        assert_ne!(plan(7, &strata, REQUESTS), plan(8, &strata, REQUESTS));
    }

    #[test]
    fn first_visits_take_two_cells_of_every_stratum() {
        let strata = strata(&cells());
        let n_strata = strata.iter().max().unwrap() + 1;
        assert_eq!(
            n_strata,
            11 * 5 + 2,
            "built-ins × 5 thread counts, hetero × 2"
        );
        assert_eq!(REQUESTS, 4 * n_strata);
        for seed in 0..20 {
            let p = plan(seed, &strata, REQUESTS);
            assert_eq!(p.len(), REQUESTS);
            assert!(p[0].first);
            assert_eq!(p.iter().filter(|r| r.first).count(), REQUESTS / 2);
            let mut answered = HashSet::new();
            let mut per_stratum = vec![0usize; n_strata];
            for r in &p {
                if r.first {
                    assert!(answered.insert(r.cell), "a first visit repeats a cell");
                    per_stratum[strata[r.cell]] += 1;
                } else {
                    assert!(answered.contains(&r.cell), "revisit before first visit");
                }
            }
            assert!(per_stratum.iter().all(|&n| n == 2), "{per_stratum:?}");
        }
    }

    #[test]
    fn the_cell_universe_is_the_paper_and_hetero_grids() {
        let c = cells();
        assert_eq!(c.len(), 990 + 14);
        let ids: HashSet<String> = c.iter().map(CellSpec::id).collect();
        assert_eq!(ids.len(), c.len(), "cell ids are unique");
    }

    #[test]
    fn every_cell_has_a_recorded_digest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/serve_cells.txt");
        let text = std::fs::read_to_string(path).unwrap();
        let ids: HashSet<&str> = text.lines().filter_map(|l| l.split(' ').next()).collect();
        for c in cells() {
            assert!(ids.contains(c.id().as_str()), "{} has no digest", c.id());
        }
        let infeasible = text.lines().filter(|l| l.contains(" infeasible ")).count();
        assert_eq!(
            infeasible, 126,
            "the paper grid's infeasible cells are recorded as such"
        );
    }
}
