//! Approximate design-space exploration: warm-forked evaluation plus a
//! deterministic Pareto search over the sweep dimensions.
//!
//! # Warmup forking
//!
//! A full sweep re-simulates every cell from a cold machine, so every
//! variant pays the same warmup cycles again. [`Explorer`] instead takes
//! **one** warm checkpoint per `(workload, threads)` pair: it runs the
//! *canonical* machine (`SimConfig::default()` at the cell's thread
//! count) for a fixed warmup, drains the pipeline to quiescence, and
//! captures a relaxed-identity snapshot ([`Simulator::checkpoint_warm`])
//! holding only configuration-independent architectural state — memory,
//! registers, per-thread PCs. Every microarchitectural variant then
//! forks from that snapshot ([`Simulator::fork_warm`]) and simulates
//! only the measurement window; caches, predictors, and queues restart
//! cold and re-warm under the variant's own geometry. The measured IPC
//! is approximate (the error bound is pinned by `tests/warmup_error.rs`
//! and studied in EXPERIMENTS.md); the architectural answer is still
//! exact, and every forked run re-verifies it.
//!
//! Warm measurements live in their own content-addressed namespace
//! (`<out>/cells-warm/<id>@w<warmup>.cell`, same key discipline as the
//! exact store: code version + config hash + program hash), and warm
//! snapshots under `<out>/warm/`. Neither ever mixes with the exact
//! `cells/` records.
//!
//! # Pareto search
//!
//! [`run_search`] drives the seeded hill-climbing engine of
//! [`smt_search`] over a [`SearchSpace`], maximizing measured IPC
//! against the [`hardware_cost`] model. The search is deterministic end
//! to end: the trajectory artifact (`search_trajectory.json`) is
//! byte-identical across re-runs — including a run resumed over a
//! store whose cells are already populated, because cell records
//! round-trip their floats bit-exactly.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::{fmt, fs};

use smt_checkpoint::{Reader, Writer};
use smt_core::config::{defaults, warm};
use smt_core::{
    program_identity, FetchPolicy, PredictorKind, SimConfig, SimError, Simulator, Snapshot,
};
use smt_isa::Program;
use smt_mem::CacheKind;
use smt_search::{Axis, Evaluation, Objectives, SearchOutcome, SearchParams};

use crate::json::object_to_json;
use crate::sweep::{
    lookup, lowering_failure, write_atomic, Built, CellRecord, CellSpec, CellStatus, Grid, Level,
    Scheduler, WorkSpec, AXES,
};
use crate::Cell;

/// Warmup a search runs when none is named: canonical-machine cycles
/// before the shared warm snapshot.
pub const DEFAULT_WARMUP: u64 = 20_000;

/// How a point's IPC is measured.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalMode {
    /// Cold full run through the exact cell store (ground truth).
    Full,
    /// Fork from the shared warm checkpoint taken after this many
    /// canonical-machine cycles, and measure only the window after it.
    Warm {
        /// Warmup length in cycles on the canonical machine.
        warmup: u64,
    },
}

impl EvalMode {
    /// The mode a requested warmup selects: warm-forked after `warmup`
    /// cycles ([`DEFAULT_WARMUP`] when none is named), or exact cold runs
    /// when it is 0.
    #[must_use]
    pub fn from_warmup(warmup: Option<u64>) -> Self {
        match warmup.unwrap_or(DEFAULT_WARMUP) {
            0 => EvalMode::Full,
            warmup => EvalMode::Warm { warmup },
        }
    }
}

impl fmt::Display for EvalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalMode::Full => f.write_str("full"),
            EvalMode::Warm { warmup } => write!(f, "warm({warmup})"),
        }
    }
}

/// The grid axes a search moves along, as indices into
/// [`CellSpec::levels`]: every axis but the workload and the thread count.
const SEARCHED: [usize; 7] = [1, 2, 4, 5, 6, 7, 8];

/// The searched region: a [`Grid`] of one workload at one thread count,
/// whose other axes the search moves along. Thread count is deliberately
/// *not* searched — warm forking shares architectural state, which is
/// only valid across configurations with identical software-visible
/// shape.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    /// The levels of every axis; `workloads` and `threads` hold one each.
    pub grid: Grid,
}

impl SearchSpace {
    /// The region called `name` (the smoke region when `None`) around
    /// `work` at `threads`, as `sweep --space` and the serve protocol spell
    /// them.
    ///
    /// # Errors
    ///
    /// An unknown name, with the valid ones.
    pub fn named(name: Option<&str>, work: WorkSpec, threads: usize) -> Result<Self, String> {
        let presets = [
            ("smoke", SearchSpace::smoke(work.clone(), threads)),
            ("full", SearchSpace::full(work, threads)),
        ];
        lookup("space", presets, name.unwrap_or("smoke"))
    }

    /// The full exploration region around the paper machine: every
    /// policy and predictor, one or two fetch ports, 4/8-wide fetch,
    /// three scheduling-unit depths, both cache organizations, and
    /// three speculation-depth limits (864 points — far more than a
    /// search should visit, which is the point).
    #[must_use]
    pub fn full(work: WorkSpec, threads: usize) -> Self {
        SearchSpace {
            grid: Grid {
                workloads: vec![work],
                policies: FetchPolicy::ALL.to_vec(),
                predictors: PredictorKind::ALL.to_vec(),
                threads: vec![threads],
                fetch_threads: vec![1, 2],
                fetch_widths: vec![4, 8],
                su_depths: vec![16, 32, 48],
                caches: CacheKind::ALL.to_vec(),
                spec_depths: vec![0, 2, 4],
            },
        }
    }

    /// A 16-point region small enough to enumerate exhaustively — the
    /// CI smoke space, where the searched frontier is checked against
    /// the brute-force one.
    #[must_use]
    pub fn smoke(work: WorkSpec, threads: usize) -> Self {
        SearchSpace {
            grid: Grid {
                workloads: vec![work],
                policies: vec![FetchPolicy::TrueRoundRobin, FetchPolicy::Icount],
                predictors: vec![PredictorKind::SharedBtb],
                threads: vec![threads],
                fetch_threads: vec![1],
                fetch_widths: vec![defaults::FETCH_WIDTH],
                su_depths: vec![16, 32],
                caches: CacheKind::ALL.to_vec(),
                spec_depths: vec![0, 2],
            },
        }
    }

    /// What every point runs.
    #[must_use]
    pub fn work(&self) -> &WorkSpec {
        &self.grid.workloads[0]
    }

    /// Resident threads, fixed across the space.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.grid.threads[0]
    }

    /// The axes in engine form, in the fixed order [`spec_at`]
    /// (Self::spec_at) consumes: policy, predictor, fetch ports, fetch
    /// width, SU depth, cache, speculation depth.
    #[must_use]
    pub fn axes(&self) -> Vec<Axis> {
        SEARCHED
            .iter()
            .map(|&axis| {
                let (name, levels) = self.grid.axis(axis);
                Axis {
                    name: name.to_string(),
                    levels: levels.iter().map(Level::to_string).collect(),
                }
            })
            .collect()
    }

    /// Materializes the cell at one point (level index per axis, in
    /// [`axes`](Self::axes) order).
    #[must_use]
    pub fn spec_at(&self, point: &[usize]) -> CellSpec {
        assert_eq!(
            point.len(),
            SEARCHED.len(),
            "a point indexes all seven axes"
        );
        let mut choice = [0; AXES];
        for (&axis, &level) in SEARCHED.iter().zip(point) {
            choice[axis] = level;
        }
        self.grid.spec(&choice)
    }

    /// IPC ceiling for scalarization: no machine retires more than its
    /// total fetch bandwidth per cycle.
    #[must_use]
    pub fn value_bound(&self) -> f64 {
        let width = self.grid.fetch_widths.iter().copied().max().unwrap_or(1);
        let ports = self.grid.fetch_threads.iter().copied().max().unwrap_or(1);
        (width * ports) as f64
    }

    /// Cost of the most expensive point. [`hardware_cost`] is additive
    /// per dimension, so maximizing each axis independently is exact.
    #[must_use]
    pub fn cost_bound(&self) -> f64 {
        let lens = self.grid.lens();
        let mut point = vec![0usize; SEARCHED.len()];
        for (ai, &axis) in SEARCHED.iter().enumerate() {
            let mut best = (0, f64::NEG_INFINITY);
            for level in 0..lens[axis] {
                point[ai] = level;
                let cost = hardware_cost(&self.spec_at(&point));
                if cost > best.1 {
                    best = (level, cost);
                }
            }
            point[ai] = best.0;
        }
        hardware_cost(&self.spec_at(&point))
    }
}

/// The deterministic hardware-cost model, in arbitrary but fixed "gate
/// units". Nothing here is calibrated silicon — it only has to rank
/// machines plausibly and reproducibly: scheduling-unit entries are CAM
/// (2 units each), fetch bandwidth is multiported I-cache width (2 per
/// instruction slot per port), set-associativity doubles the data-cache
/// tag/way cost, ICOUNT adds its counter network, and *unlimited*
/// speculation costs the full shadow-recovery structure that a depth
/// limit lets a design shrink. Integer arithmetic throughout, so the
/// returned float is exact and platform-independent.
#[must_use]
pub fn hardware_cost(spec: &CellSpec) -> f64 {
    let policy = match spec.policy {
        FetchPolicy::TrueRoundRobin => 0,
        FetchPolicy::MaskedRoundRobin | FetchPolicy::ConditionalSwitch => 1,
        FetchPolicy::Icount => 3,
    };
    let predictor = match spec.predictor {
        PredictorKind::SharedBtb => 8,
        PredictorKind::Gshare => 6,
        PredictorKind::PartitionedBtb => 12,
    };
    let cache = match spec.cache {
        CacheKind::SetAssociative => 16,
        CacheKind::DirectMapped => 8,
    };
    let speculation = if spec.spec_depth == 0 {
        8
    } else {
        spec.spec_depth.min(8)
    };
    let units = policy
        + predictor
        + cache
        + speculation
        + 2 * spec.su_depth
        + 2 * spec.fetch_width * spec.fetch_threads;
    units as f64
}

fn warm_cells_dir(out: &Path) -> PathBuf {
    out.join("cells-warm")
}

fn warm_snap_dir(out: &Path) -> PathBuf {
    out.join("warm")
}

/// Persists a warm snapshot with the same framing discipline as the
/// mid-flight cell checkpoints: code version first (warm state does not
/// survive code changes), then the warmup length it was taken after,
/// then the self-validating snapshot wire format.
fn save_warm(path: &Path, code_version: &str, warmup: u64, snap: &Snapshot) -> io::Result<()> {
    let mut w = Writer::new();
    w.put_bytes(code_version.as_bytes());
    w.put_u64(warmup);
    w.put_bytes(&snap.to_bytes());
    write_atomic(path, &w.into_bytes())
}

/// Loads a persisted warm snapshot; any mismatch or parse failure means
/// "no snapshot" and the caller regenerates (fail closed).
fn load_warm(path: &Path, code_version: &str, warmup: u64) -> Option<Snapshot> {
    let bytes = fs::read(path).ok()?;
    let mut r = Reader::new(&bytes);
    if r.take_bytes().ok()? != code_version.as_bytes() || r.take_u64().ok()? != warmup {
        return None;
    }
    let snap = Snapshot::from_bytes(r.take_bytes().ok()?).ok()?;
    r.finish().ok()?;
    snap.warm.is_some().then_some(snap)
}

/// The per-thread program-identity vector a snapshot for `programs`
/// must carry (mirrors the simulator's own identity shape: one element
/// for a uniform machine, one per thread for a mix).
fn expected_identities(programs: &[Program]) -> Vec<u64> {
    programs.iter().map(program_identity).collect()
}

/// Stateful evaluator over one search space: resolves points to cell
/// records — cache-first against the store, warm-forked or cold —
/// and remembers every record it produced for the frontier report.
pub struct Explorer<'a> {
    sched: &'a Scheduler,
    /// The region being explored.
    pub space: SearchSpace,
    mode: EvalMode,
    /// The shared warm snapshot (one per explorer: work and threads are
    /// fixed across the space).
    warm_snap: Option<Snapshot>,
    records: BTreeMap<Vec<usize>, (CellSpec, CellRecord)>,
    simulated: usize,
}

impl<'a> Explorer<'a> {
    /// Opens the warm namespaces under the scheduler's store.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors creating the `cells-warm`/`warm`
    /// subdirectories.
    pub fn new(sched: &'a Scheduler, space: SearchSpace, mode: EvalMode) -> io::Result<Self> {
        fs::create_dir_all(warm_cells_dir(sched.out()))?;
        fs::create_dir_all(warm_snap_dir(sched.out()))?;
        Ok(Explorer {
            sched,
            space,
            mode,
            warm_snap: None,
            records: BTreeMap::new(),
            simulated: 0,
        })
    }

    /// How this explorer measures IPC.
    #[must_use]
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Evaluates one point: measured IPC (to maximize) against hardware
    /// cost (to minimize); infeasible cells report `feasible: false`.
    ///
    /// # Panics
    ///
    /// Panics if a simulation faults or a forked run produces a wrong
    /// architectural answer — approximation must never corrupt results.
    pub fn objectives(&mut self, point: &[usize]) -> Objectives {
        let spec = self.space.spec_at(point);
        let (rec, ran) = match self.mode {
            EvalMode::Full => {
                let o = self.sched.run_cell(&spec, false, &mut |_| {});
                (o.rec, o.ran)
            }
            EvalMode::Warm { warmup } => self.warm_record(&spec, warmup),
        };
        self.simulated += usize::from(ran);
        let o = Objectives {
            value: rec.ipc,
            cost: hardware_cost(&spec),
            feasible: rec.status == CellStatus::Done,
        };
        self.records.insert(point.to_vec(), (spec, rec));
        o
    }

    /// The record a previous [`objectives`](Self::objectives) call
    /// produced for `point`.
    #[must_use]
    pub fn record(&self, point: &[usize]) -> Option<&(CellSpec, CellRecord)> {
        self.records.get(point)
    }

    /// How many evaluations produced their record (by simulation, or by
    /// finding the point infeasible) rather than reading it from the
    /// store.
    #[must_use]
    pub fn simulated(&self) -> usize {
        self.simulated
    }

    /// One warm-forked measurement, cache-first against the warm
    /// namespace under the same full key as the exact store. Returns the
    /// record and whether it was produced rather than read.
    fn warm_record(&mut self, spec: &CellSpec, warmup: u64) -> (CellRecord, bool) {
        let wid = format!("{}@w{warmup}", spec.id());
        let path = warm_cells_dir(self.sched.out()).join(format!("{wid}.cell"));
        let (config_hash, program_hash, built) = self.sched.identities(spec);
        if let Some(rec) = self
            .sched
            .load_record(&path, &wid, config_hash, program_hash)
        {
            return (rec, false);
        }
        let rec = self.measure_warm(spec, &wid, warmup, (config_hash, program_hash), &built);
        write_atomic(&path, rec.to_lines().as_bytes())
            .unwrap_or_else(|e| panic!("{wid}: cannot persist warm cell: {e}"));
        (rec, true)
    }

    /// Forks `spec` from the shared warm snapshot and measures its
    /// window, or records why it cannot.
    fn measure_warm(
        &mut self,
        spec: &CellSpec,
        wid: &str,
        warmup: u64,
        (config_hash, program_hash): (u64, u64),
        built: &Built,
    ) -> CellRecord {
        let sched = self.sched;
        let code_version = &sched.opts().code_version;
        let infeasible = |program_hash, reason| {
            CellRecord::infeasible(wid, code_version, config_hash, program_hash, reason)
        };
        let programs = match built.as_ref() {
            Err(e) => return infeasible(0, lowering_failure(spec.threads, e)),
            Ok(ps) => ps,
        };
        let snap = match self.shared_warm(programs, warmup) {
            Ok(snap) => snap,
            Err(why) => {
                // The kernel is too short (or otherwise unable) to warm:
                // fall back to the exact cold run, re-recorded under the
                // warm id so the trajectory stays self-contained. The
                // fallback reason travels in the record.
                let mut rec = sched.run_cell(spec, false, &mut |_| {}).rec;
                rec.id = wid.to_string();
                rec.reason = format!("warm fallback: {why}");
                return rec;
            }
        };
        let refs: Vec<&Program> = programs.iter().collect();
        let forked = match refs[..] {
            [p] => Simulator::fork_warm(spec.config(), p, &snap),
            _ => Simulator::fork_warm_mix(spec.config(), &refs, &snap),
        };
        let mut sim = match forked {
            Ok(sim) => sim,
            Err(e @ (SimError::RegisterWindow { .. } | SimError::Config(_))) => {
                return infeasible(program_hash, e.to_string());
            }
            Err(e) => panic!("{wid}: warm fork rejected: {e}"),
        };
        let stats = sim
            .run()
            .unwrap_or_else(|e| panic!("{wid}: measurement window failed: {e}"));
        // The warm path approximates *measurement*, never correctness.
        sched
            .check_answer(&spec.work, &sim)
            .unwrap_or_else(|e| panic!("{wid}: wrong answer after warm fork: {e}"));
        // Measurement-window numbers only: the fork starts its cycle and
        // stat counters at zero, so these exclude the warmup.
        CellRecord::done(wid, code_version, config_hash, program_hash, &stats)
    }

    /// The shared warm snapshot for this space's `(work, threads)`,
    /// memoized in memory and on disk.
    fn shared_warm(&mut self, programs: &[Program], warmup: u64) -> Result<Snapshot, String> {
        if let Some(snap) = &self.warm_snap {
            return Ok(snap.clone());
        }
        let code_version = &self.sched.opts().code_version;
        let path = warm_snap_dir(self.sched.out()).join(format!(
            "{}-t{}-w{warmup}.warm",
            self.space.work().id_part(),
            self.space.threads()
        ));
        let expected = expected_identities(programs);
        let snap =
            match load_warm(&path, code_version, warmup).filter(|s| s.program_hashes == expected) {
                Some(snap) => snap,
                None => {
                    let snap = make_warm(programs, self.space.threads(), warmup)?;
                    save_warm(&path, code_version, warmup, &snap)
                        .map_err(|e| format!("cannot persist warm snapshot: {e}"))?;
                    snap
                }
            };
        self.warm_snap = Some(snap.clone());
        Ok(snap)
    }
}

/// Builds the shared warm checkpoint: canonical machine, `warmup`
/// cycles, drain to quiescence, relaxed-identity snapshot.
fn make_warm(programs: &[Program], threads: usize, warmup: u64) -> Result<Snapshot, String> {
    let config = SimConfig::default().with_threads(threads);
    let refs: Vec<&Program> = programs.iter().collect();
    let mut sim = match refs[..] {
        [p] => Simulator::try_new(config, p),
        _ => Simulator::try_new_mix(config, &refs),
    }
    .map_err(|e| format!("canonical warmup machine rejected: {e}"))?;
    for _ in 0..warmup {
        if sim.finished() {
            return Err(format!("kernel retired within the {warmup}-cycle warmup"));
        }
        sim.step().map_err(|e| format!("warmup failed: {e}"))?;
    }
    sim.drain().map_err(|e| format!("drain failed: {e}"))?;
    if sim.finished() {
        return Err(format!("kernel retired within the {warmup}-cycle warmup"));
    }
    sim.checkpoint_warm(&warm::relax_all())
        .map_err(|e| format!("warm checkpoint failed: {e}"))
}

/// What [`run_search`] produced and where it wrote the artifacts.
pub struct SearchReport {
    /// The engine's raw outcome (evaluations, climb log, frontier).
    pub outcome: SearchOutcome,
    /// The frontier as concrete cells with their records, in the
    /// engine's canonical order (ascending cost).
    pub frontier: Vec<(CellSpec, CellRecord)>,
    /// The reproducible trajectory artifact.
    pub trajectory_path: PathBuf,
    /// The human-facing frontier report.
    pub frontier_path: PathBuf,
    /// The digest the trajectory artifact embeds — equal across runs
    /// iff the artifacts are byte-equal.
    pub trajectory_hash: u64,
    /// Evaluations that produced their record rather than reading it
    /// from the store ([`Explorer::simulated`]).
    pub simulated: usize,
}

/// Renders the frontier report: one JSON object per frontier cell, in
/// ascending-cost order, with the same deterministic float rendering as
/// `results.json`.
#[must_use]
pub fn frontier_json(frontier: &[(CellSpec, CellRecord)]) -> String {
    let mut out = String::from("[\n");
    for (i, (spec, rec)) in frontier.iter().enumerate() {
        let mut fields = vec![("id", Cell::Text(rec.id.clone()))];
        fields.extend(spec.levels().map(|(axis, level)| {
            let cell = match level {
                Level::Name(name) => Cell::Text(name),
                Level::Count(n) => Cell::Int(n as u64),
            };
            (axis, cell)
        }));
        fields.extend([
            ("ipc", Cell::Float(rec.ipc)),
            ("cost", Cell::Float(hardware_cost(spec))),
            ("cycles", Cell::Int(rec.cycles)),
            ("committed", Cell::Int(rec.committed)),
        ]);
        out.push_str(&object_to_json(&fields));
        out.push_str(if i + 1 < frontier.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Runs the deterministic Pareto search over `space` on `sched`'s
/// store, writing `search_trajectory.json` (byte-identical across
/// re-runs, including resumed ones) and `search_frontier.json` into the
/// store directory. `params.value_bound`/`cost_bound` are overwritten
/// from the space so scalarization is a pure function of the region.
///
/// # Errors
///
/// Fails on filesystem errors; simulation faults panic (as everywhere
/// in the sweep layer).
pub fn run_search(
    sched: &Scheduler,
    space: &SearchSpace,
    mode: EvalMode,
    params: &SearchParams,
) -> io::Result<SearchReport> {
    let mut explorer = Explorer::new(sched, space.clone(), mode)?;
    let axes = space.axes();
    let params = SearchParams {
        value_bound: space.value_bound(),
        cost_bound: space.cost_bound(),
        ..*params
    };
    let outcome = smt_search::search(&axes, &params, |p| explorer.objectives(p));
    let frontier: Vec<(CellSpec, CellRecord)> = outcome
        .frontier
        .iter()
        .map(|e| {
            explorer
                .record(&e.point)
                .expect("every frontier point was evaluated")
                .clone()
        })
        .collect();
    let trajectory_path = sched.out().join("search_trajectory.json");
    write_atomic(
        &trajectory_path,
        smt_search::trajectory_json(&axes, &params, &outcome).as_bytes(),
    )?;
    let frontier_path = sched.out().join("search_frontier.json");
    write_atomic(&frontier_path, frontier_json(&frontier).as_bytes())?;
    Ok(SearchReport {
        trajectory_hash: smt_search::trajectory_digest(&axes, &params, &outcome),
        simulated: explorer.simulated(),
        outcome,
        frontier,
        trajectory_path,
        frontier_path,
    })
}

/// Evaluates *every* point of `space` and returns all evaluations plus
/// the brute-force Pareto frontier — the ground truth the searched
/// frontier is compared against on small spaces.
///
/// # Errors
///
/// Fails on filesystem errors opening the warm namespaces.
pub fn run_exhaustive(
    sched: &Scheduler,
    space: &SearchSpace,
    mode: EvalMode,
) -> io::Result<(Vec<Evaluation>, Vec<Evaluation>)> {
    let mut explorer = Explorer::new(sched, space.clone(), mode)?;
    Ok(smt_search::exhaustive(&space.axes(), |p| {
        explorer.objectives(p)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_workloads::WorkloadKind;

    fn space() -> SearchSpace {
        SearchSpace::smoke(WorkloadKind::Sieve.into(), 2)
    }

    #[test]
    fn axes_and_points_map_onto_cells() {
        // Axis names, level strings and their order are embedded in every
        // trajectory artifact and its digest.
        let spelled = |s: &SearchSpace| -> Vec<(String, Vec<String>)> {
            s.axes().into_iter().map(|a| (a.name, a.levels)).collect()
        };
        let expect = |axes: &[(&str, &[&str])]| -> Vec<(String, Vec<String>)> {
            axes.iter()
                .map(|(n, l)| (n.to_string(), l.iter().map(ToString::to_string).collect()))
                .collect()
        };
        assert_eq!(
            spelled(&SearchSpace::full(WorkloadKind::Matrix.into(), 4)),
            expect(&[
                ("policy", &["trr", "mrr", "cs", "ic"]),
                ("predictor", &["btb", "gsh", "pbtb"]),
                ("fetch_threads", &["1", "2"]),
                ("fetch_width", &["4", "8"]),
                ("su_depth", &["16", "32", "48"]),
                ("cache", &["sa", "dm"]),
                ("spec_depth", &["0", "2", "4"]),
            ])
        );
        let s = space();
        assert_eq!(
            spelled(&s),
            expect(&[
                ("policy", &["trr", "ic"]),
                ("predictor", &["btb"]),
                ("fetch_threads", &["1"]),
                ("fetch_width", &["4"]),
                ("su_depth", &["16", "32"]),
                ("cache", &["sa", "dm"]),
                ("spec_depth", &["0", "2"]),
            ])
        );
        let spec = s.spec_at(&[1, 0, 0, 0, 1, 1, 1]);
        assert_eq!(spec.policy, FetchPolicy::Icount);
        assert_eq!(spec.su_depth, 32);
        assert_eq!(spec.cache, CacheKind::DirectMapped);
        assert_eq!(spec.spec_depth, 2);
        assert_eq!(spec.threads, 2);
    }

    #[test]
    fn cost_model_is_additive_and_orders_plausibly() {
        let base = space().spec_at(&[0, 0, 0, 0, 0, 0, 0]);
        let deeper = CellSpec {
            su_depth: base.su_depth + 16,
            ..base.clone()
        };
        assert_eq!(
            hardware_cost(&deeper) - hardware_cost(&base),
            32.0,
            "2 units per SU entry"
        );
        let dm = CellSpec {
            cache: CacheKind::DirectMapped,
            ..base.clone()
        };
        assert!(hardware_cost(&dm) < hardware_cost(&base));
        let limited = CellSpec {
            spec_depth: 2,
            ..base.clone()
        };
        assert!(
            hardware_cost(&limited) < hardware_cost(&base),
            "a speculation limit shrinks recovery hardware"
        );
    }

    #[test]
    fn cost_bound_dominates_every_point_of_the_space() {
        let s = space();
        let bound = s.cost_bound();
        let (evals, _) = smt_search::exhaustive(&s.axes(), |p| Objectives {
            value: 0.0,
            cost: hardware_cost(&s.spec_at(p)),
            feasible: true,
        });
        for e in &evals {
            assert!(e.objectives.cost <= bound, "{:?}", e.point);
        }
        assert!(evals.iter().any(|e| e.objectives.cost == bound));
    }

    #[test]
    fn warm_snapshot_files_fail_closed() {
        let dir = std::env::temp_dir().join(format!("smt-warm-io-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.warm");
        assert!(load_warm(&path, "v", 10).is_none(), "absent file");
        fs::write(&path, b"garbage").unwrap();
        assert!(load_warm(&path, "v", 10).is_none(), "unparseable file");
        let _ = fs::remove_dir_all(&dir);
    }
}
