//! Resumable parallel design-space sweep.
//!
//! A [`Grid`] declares the swept dimensions: the workload and the machine
//! axes of [`CellSpec::levels`] (fetch policy, predictor, threads, fetch
//! ports, fetch width, scheduling-unit depth, cache organization,
//! speculation depth). [`run_sweep`] flattens it into cells and runs them
//! across work-stealing workers. Every finished cell is persisted to a
//! content-addressed on-disk cache keyed by the *identity* of the work —
//! the stable hashes of the lowered configuration and built program plus
//! the code version — so re-running the same sweep over the same directory
//! re-executes only cells that are missing or whose key no longer matches.
//! The cache fails closed: a record whose key or payload does not validate
//! is discarded and its cell re-run.
//!
//! Long simulations additionally checkpoint their machine state every
//! `checkpoint_every` cycles (atomic tmp+rename, like every other write
//! here). A sweep killed mid-cell resumes that cell from its last snapshot;
//! because [`Simulator::restore`] is bit-identical to never having stopped,
//! the merged `results.json` of an interrupted-and-resumed sweep is
//! byte-identical to an uninterrupted one.
//!
//! Cells whose kernel cannot be lowered at a thread count, or whose program
//! names a register outside the shrunken per-thread window
//! ([`SimError::RegisterWindow`]), are recorded as `infeasible` rather than
//! aborting the sweep — the design space legitimately contains such points.
//!
//! Every cell runs through [`Scheduler::run_cell`], whoever asks: the
//! workers of [`run_sweep`] claim one cell at a time, and the serve daemon
//! and the Pareto search call it per cell too. Kernels are memoized by
//! `(workload, threads)`, so a grid still builds each program once.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::{fmt, fs};

use smt_checkpoint::{Reader, Writer};
use smt_core::config::defaults;
use smt_core::{
    config_identity, FetchPolicy, PredictorKind, SimConfig, SimError, SimStats, Simulator, Snapshot,
};
use smt_corpus::Corpus;
use smt_isa::Program;
use smt_mem::CacheKind;
use smt_trace::{CpiBreakdown, CpiStack};
use smt_workloads::{workload, Scale, WorkloadKind};

use crate::json::object_to_json;
use crate::Cell;

/// One program source a cell can run: a built-in benchmark or a named
/// workload of the on-disk corpus ([`SweepOptions::corpus`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum WorkRef {
    /// A built-in benchmark.
    Builtin(WorkloadKind),
    /// A corpus workload, by manifest name.
    Corpus(String),
}

impl WorkRef {
    /// Display name: the builtin's canonical name, or the corpus name
    /// (corpus names are already lowercase by manifest rule).
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            WorkRef::Builtin(k) => k.name().to_string(),
            WorkRef::Corpus(n) => n.clone(),
        }
    }

    /// The lowercase spelling used inside cell ids.
    #[must_use]
    pub fn id_part(&self) -> String {
        self.name().to_lowercase()
    }

    /// Parses one name: built-in benchmarks match case-insensitively,
    /// anything else that is a legal corpus identifier is a corpus
    /// reference (resolved against the attached corpus at run time).
    ///
    /// # Errors
    ///
    /// An explanation when `s` is neither.
    pub fn parse(s: &str) -> Result<WorkRef, String> {
        if let Some(kind) = WorkloadKind::from_name(s) {
            return Ok(WorkRef::Builtin(kind));
        }
        if smt_corpus::manifest::valid_name(s) {
            return Ok(WorkRef::Corpus(s.to_string()));
        }
        Err(format!(
            "workload {s:?} is neither a built-in benchmark nor a legal corpus name"
        ))
    }
}

impl From<WorkloadKind> for WorkRef {
    fn from(kind: WorkloadKind) -> Self {
        WorkRef::Builtin(kind)
    }
}

/// What a cell runs: one program on every thread (uniform — the
/// homogeneous-multitasking model of the paper), or one program *per*
/// thread (a heterogeneous mix, spelled `a+b` in ids and the serve
/// protocol). A mix's arity must equal the cell's thread count.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct WorkSpec {
    refs: Vec<WorkRef>,
}

impl WorkSpec {
    /// A uniform workload (every thread runs the same program).
    #[must_use]
    pub fn uniform(r: impl Into<WorkRef>) -> Self {
        WorkSpec {
            refs: vec![r.into()],
        }
    }

    /// A named corpus workload, uniform across threads.
    #[must_use]
    pub fn corpus(name: &str) -> Self {
        WorkSpec::uniform(WorkRef::Corpus(name.to_string()))
    }

    /// A heterogeneous per-thread mix. A single-element mix collapses
    /// to the uniform spec (the two are the same machine).
    #[must_use]
    pub fn mix(refs: Vec<WorkRef>) -> Self {
        assert!(!refs.is_empty(), "a work spec needs at least one program");
        WorkSpec { refs }
    }

    /// The per-thread program references (length 1 = uniform).
    #[must_use]
    pub fn refs(&self) -> &[WorkRef] {
        &self.refs
    }

    /// Whether this is a per-thread mix.
    #[must_use]
    pub fn is_mix(&self) -> bool {
        self.refs.len() > 1
    }

    /// Canonical display name: single name, or `'+'`-joined mix.
    #[must_use]
    pub fn name(&self) -> String {
        self.refs
            .iter()
            .map(WorkRef::name)
            .collect::<Vec<_>>()
            .join("+")
    }

    /// The lowercase `'+'`-joined spelling used inside cell ids.
    #[must_use]
    pub fn id_part(&self) -> String {
        self.refs
            .iter()
            .map(WorkRef::id_part)
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Parses `a` or `a+b+c` (the wire spelling of the serve protocol).
    ///
    /// # Errors
    ///
    /// An explanation when any component fails [`WorkRef::parse`].
    pub fn parse(s: &str) -> Result<WorkSpec, String> {
        let refs = s
            .split('+')
            .map(WorkRef::parse)
            .collect::<Result<Vec<_>, _>>()?;
        if refs.is_empty() {
            return Err("empty workload name".into());
        }
        Ok(WorkSpec { refs })
    }
}

impl From<WorkloadKind> for WorkSpec {
    fn from(kind: WorkloadKind) -> Self {
        WorkSpec::uniform(kind)
    }
}

impl fmt::Display for WorkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// The declarative sweep space: the cross product of every field.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Workloads to sweep: built-in benchmarks, corpus kernels, or
    /// per-thread mixes.
    pub workloads: Vec<WorkSpec>,
    /// Fetch policies.
    pub policies: Vec<FetchPolicy>,
    /// Branch-predictor families.
    pub predictors: Vec<PredictorKind>,
    /// Resident thread counts.
    pub threads: Vec<usize>,
    /// Threads fetched per cycle (fetch ports).
    pub fetch_threads: Vec<usize>,
    /// Fetch-block widths in instructions.
    pub fetch_widths: Vec<usize>,
    /// Scheduling-unit depths in entries.
    pub su_depths: Vec<usize>,
    /// Cache organizations.
    pub caches: Vec<CacheKind>,
    /// Speculation-depth limits (0 = unlimited).
    pub spec_depths: Vec<usize>,
}

/// The option `options` spells `s`. The error names what was looked up
/// and lists every valid spelling.
///
/// # Errors
///
/// `s` spells none of the options.
pub fn lookup<T>(
    what: &str,
    options: impl IntoIterator<Item = (&'static str, T)>,
    s: &str,
) -> Result<T, String> {
    let mut names = Vec::new();
    for (name, option) in options {
        if name == s {
            return Ok(option);
        }
        names.push(name);
    }
    Err(format!("unknown {what} {s:?} ({})", names.join("|")))
}

impl Grid {
    /// The preset called `name`, as `sweep --grid` and the serve protocol
    /// spell them.
    ///
    /// # Errors
    ///
    /// An unknown name, with the valid ones.
    pub fn named(name: &str) -> Result<Grid, String> {
        let presets = [
            ("smoke", Grid::smoke()),
            ("paper", Grid::paper()),
            ("frontend", Grid::frontend()),
            ("hetero", Grid::hetero()),
        ];
        lookup("grid", presets, name)
    }

    /// Small grid for CI smoke runs: two benchmarks across every policy and
    /// thread count at the default machine point (24 cells, including the
    /// infeasible 8-thread corners if a kernel does not fit the partition).
    #[must_use]
    pub fn smoke() -> Self {
        Grid {
            workloads: vec![WorkloadKind::Sieve.into(), WorkloadKind::Ll3.into()],
            policies: POLICIES.to_vec(),
            predictors: vec![PredictorKind::SharedBtb],
            threads: vec![1, 2, 4, 8],
            fetch_threads: vec![1],
            fetch_widths: vec![defaults::FETCH_WIDTH],
            su_depths: vec![32],
            caches: vec![CacheKind::SetAssociative],
            spec_depths: vec![defaults::SPEC_DEPTH],
        }
    }

    /// The paper's full evaluation space.
    #[must_use]
    pub fn paper() -> Self {
        Grid {
            workloads: WorkloadKind::ALL.iter().map(|&k| k.into()).collect(),
            policies: POLICIES.to_vec(),
            predictors: vec![PredictorKind::SharedBtb],
            threads: vec![1, 2, 4, 6, 8],
            fetch_threads: vec![1],
            fetch_widths: vec![defaults::FETCH_WIDTH],
            su_depths: vec![16, 32, 48],
            caches: CacheKind::ALL.to_vec(),
            spec_depths: vec![defaults::SPEC_DEPTH],
        }
    }

    /// The front-end design space beyond the paper: every fetch policy
    /// (including ICOUNT), every predictor family, one and two fetch ports,
    /// and 4- vs 8-wide fetch blocks, over the two workloads whose
    /// saturation knee moves the most (Matrix and LL7). Cells with more
    /// fetch ports than resident threads are legitimately infeasible.
    #[must_use]
    pub fn frontend() -> Self {
        Grid {
            workloads: vec![WorkloadKind::Matrix.into(), WorkloadKind::Ll7.into()],
            policies: FetchPolicy::ALL.to_vec(),
            predictors: PredictorKind::ALL.to_vec(),
            threads: vec![1, 2, 4, 8],
            fetch_threads: vec![1, 2],
            fetch_widths: vec![4, 8],
            su_depths: vec![32],
            caches: vec![CacheKind::SetAssociative],
            spec_depths: vec![defaults::SPEC_DEPTH],
        }
    }

    /// The heterogeneous-mix study: two corpus kernels solo (for the
    /// interference baselines), two 2-program mixes pairing a cache-hungry
    /// streamer with a compute-bound kernel, and one 4-program mix —
    /// each under round-robin and ICOUNT fetch so the fairness question
    /// has an answer in the same results file. Mixes only materialize at
    /// the thread count matching their arity ([`Grid::cells`] skips the
    /// rest), so the grid flattens to 14 cells.
    #[must_use]
    pub fn hetero() -> Self {
        let mpd = WorkRef::Builtin(WorkloadKind::Mpd);
        let ll7 = WorkRef::Builtin(WorkloadKind::Ll7);
        let matmul = WorkRef::Corpus("matmul".into());
        let memstress = WorkRef::Corpus("memstress".into());
        Grid {
            workloads: vec![
                WorkSpec::corpus("quicksort"),
                WorkSpec::corpus("matmul"),
                WorkSpec::mix(vec![mpd.clone(), matmul.clone()]),
                WorkSpec::mix(vec![memstress.clone(), ll7.clone()]),
                WorkSpec::mix(vec![mpd, matmul, memstress, ll7]),
            ],
            policies: vec![FetchPolicy::TrueRoundRobin, FetchPolicy::Icount],
            predictors: vec![PredictorKind::SharedBtb],
            threads: vec![2, 4],
            fetch_threads: vec![1],
            fetch_widths: vec![defaults::FETCH_WIDTH],
            su_depths: vec![32],
            caches: vec![CacheKind::SetAssociative],
            spec_depths: vec![defaults::SPEC_DEPTH],
        }
    }

    /// How many levels the grid gives each axis, in
    /// [`CellSpec::levels`] order.
    pub(crate) fn lens(&self) -> [usize; AXES] {
        [
            self.workloads.len(),
            self.policies.len(),
            self.predictors.len(),
            self.threads.len(),
            self.fetch_threads.len(),
            self.fetch_widths.len(),
            self.su_depths.len(),
            self.caches.len(),
            self.spec_depths.len(),
        ]
    }

    /// The cell at one level index per axis, in [`CellSpec::levels`]
    /// order.
    pub(crate) fn spec(&self, choice: &[usize; AXES]) -> CellSpec {
        let [work, policy, predictor, threads, ports, width, su, cache, depth] = *choice;
        CellSpec {
            work: self.workloads[work].clone(),
            policy: self.policies[policy],
            predictor: self.predictors[predictor],
            threads: self.threads[threads],
            fetch_threads: self.fetch_threads[ports],
            fetch_width: self.fetch_widths[width],
            su_depth: self.su_depths[su],
            cache: self.caches[cache],
            spec_depth: self.spec_depths[depth],
        }
    }

    /// The name of axis `axis` (an index into [`CellSpec::levels`]) and
    /// the levels this grid gives it, in order.
    pub(crate) fn axis(&self, axis: usize) -> (&'static str, Vec<Level>) {
        let mut choice = [0; AXES];
        let levels = (0..self.lens()[axis])
            .map(|i| {
                choice[axis] = i;
                self.spec(&choice).levels()[axis].1.clone()
            })
            .collect();
        (CellSpec::default().levels()[axis].0, levels)
    }

    /// Flattens the grid into cells, in a deterministic order (workload
    /// outermost, speculation depth innermost). Per-thread mixes pair only
    /// with the thread count matching their arity — the other thread
    /// counts are not holes to record but points that do not exist.
    #[must_use]
    pub fn cells(&self) -> Vec<CellSpec> {
        let lens = self.lens();
        (0..lens.iter().product())
            .map(|mut n: usize| {
                let mut choice = [0; AXES];
                for (level, len) in choice.iter_mut().zip(lens).rev() {
                    *level = n % len;
                    n /= len;
                }
                self.spec(&choice)
            })
            .filter(|c| !c.work.is_mix() || c.work.refs().len() == c.threads)
            .collect()
    }
}

const POLICIES: [FetchPolicy; 3] = [
    FetchPolicy::TrueRoundRobin,
    FetchPolicy::MaskedRoundRobin,
    FetchPolicy::ConditionalSwitch,
];

/// How many axes a cell has: the workload plus eight machine axes.
pub const AXES: usize = 9;

/// A cell's level on one axis, as the serve wire format, the search axes
/// and the frontier report spell it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Level {
    /// A workload name, or an enumerated level's abbreviation (`trr`,
    /// `gsh`, `sa`, …).
    Name(String),
    /// A count: threads, fetch ports, fetch width or a depth.
    Count(usize),
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Name(s) => f.write_str(s),
            Level::Count(n) => write!(f, "{n}"),
        }
    }
}

/// One point of the sweep space.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CellSpec {
    /// What the threads run: one program, or one per thread.
    pub work: WorkSpec,
    /// Fetch policy.
    pub policy: FetchPolicy,
    /// Branch-predictor family.
    pub predictor: PredictorKind,
    /// Resident threads.
    pub threads: usize,
    /// Threads fetched per cycle.
    pub fetch_threads: usize,
    /// Fetch-block width in instructions.
    pub fetch_width: usize,
    /// Scheduling-unit depth in entries.
    pub su_depth: usize,
    /// Cache organization.
    pub cache: CacheKind,
    /// Speculation-depth limit: unresolved conditional branches a thread
    /// may have in flight before its fetch stalls (0 = unlimited).
    pub spec_depth: usize,
}

impl Default for CellSpec {
    /// The paper's default machine point running Sieve: every dimension
    /// matches what an absent field means in the serve protocol.
    fn default() -> Self {
        CellSpec {
            work: WorkloadKind::Sieve.into(),
            policy: FetchPolicy::default(),
            predictor: PredictorKind::default(),
            threads: defaults::THREADS,
            fetch_threads: defaults::FETCH_THREADS,
            fetch_width: defaults::FETCH_WIDTH,
            su_depth: defaults::SU_DEPTH,
            cache: CacheKind::default(),
            spec_depth: defaults::SPEC_DEPTH,
        }
    }
}

impl CellSpec {
    /// Lowers the spec to a full simulator configuration.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        SimConfig::default()
            .with_threads(self.threads)
            .with_fetch_policy(self.policy)
            .with_predictor(self.predictor)
            .with_fetch_threads(self.fetch_threads)
            .with_fetch_width(self.fetch_width)
            .with_su_depth(self.su_depth)
            .with_cache_kind(self.cache)
            .with_spec_depth(self.spec_depth)
    }

    /// Every axis's name and this cell's level on it, in grid order. The
    /// names are the field names of the serve wire format and the frontier
    /// report, and the search's axis names; the levels are their spellings.
    #[must_use]
    pub fn levels(&self) -> [(&'static str, Level); AXES] {
        let name = |s: &str| Level::Name(s.to_string());
        [
            ("workload", Level::Name(self.work.name())),
            ("policy", name(self.policy.abbrev())),
            ("predictor", name(self.predictor.abbrev())),
            ("threads", Level::Count(self.threads)),
            ("fetch_threads", Level::Count(self.fetch_threads)),
            ("fetch_width", Level::Count(self.fetch_width)),
            ("su_depth", Level::Count(self.su_depth)),
            ("cache", name(self.cache.abbrev())),
            ("spec_depth", Level::Count(self.spec_depth)),
        ]
    }

    /// Stable, filesystem-safe cell name, e.g. `sieve-trr-t4-su32-sa`.
    ///
    /// Front-end dimensions appear only when they differ from the default
    /// machine (`-gsh`/`-pbtb`, `-ft2`, `-fw8`), so every id from before
    /// those axes existed — and every cell cached under one — is unchanged.
    #[must_use]
    pub fn id(&self) -> String {
        let mut id = format!(
            "{}-{}-t{}-su{}-{}",
            self.work.id_part(),
            self.policy.abbrev(),
            self.threads,
            self.su_depth,
            self.cache.abbrev(),
        );
        if self.predictor != PredictorKind::SharedBtb {
            id.push('-');
            id.push_str(self.predictor.abbrev());
        }
        if self.fetch_threads != defaults::FETCH_THREADS {
            id.push_str(&format!("-ft{}", self.fetch_threads));
        }
        if self.fetch_width != defaults::FETCH_WIDTH {
            id.push_str(&format!("-fw{}", self.fetch_width));
        }
        if self.spec_depth != defaults::SPEC_DEPTH {
            id.push_str(&format!("-sd{}", self.spec_depth));
        }
        id
    }
}

impl fmt::Display for CellSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

/// Terminal state of one cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellStatus {
    /// Simulated to completion and verified against the workload checker.
    Done,
    /// The kernel does not fit this configuration point (lowering failed or
    /// the register window is too small) — a legitimate hole in the space.
    Infeasible,
}

impl CellStatus {
    /// Stable wire/cache spelling (`done` / `infeasible`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Done => "done",
            CellStatus::Infeasible => "infeasible",
        }
    }

    /// Inverse of [`as_str`](Self::as_str); anything else is `None`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "done" => Some(CellStatus::Done),
            "infeasible" => Some(CellStatus::Infeasible),
            _ => None,
        }
    }
}

/// One cell's persisted measurement (or infeasibility record).
#[derive(Clone, PartialEq, Debug)]
pub struct CellRecord {
    /// The cell's stable name ([`CellSpec::id`]).
    pub id: String,
    /// Code version the record was produced under.
    pub code_version: String,
    /// [`config_identity`] of the lowered configuration.
    pub config_hash: u64,
    /// [`Program::identity`] of the built kernel; 0 when lowering failed.
    pub program_hash: u64,
    /// Terminal state.
    pub status: CellStatus,
    /// Total cycles (0 if infeasible).
    pub cycles: u64,
    /// Architecturally committed instructions (0 if infeasible).
    pub committed: u64,
    /// Instructions per cycle (0 if infeasible).
    pub ipc: f64,
    /// Data-cache hit rate in percent (0 if infeasible).
    pub hit_rate: f64,
    /// Branch-prediction accuracy in percent (0 if infeasible).
    pub branch_accuracy: f64,
    /// Scheduling-unit stall cycles (0 if infeasible).
    pub su_stalls: u64,
    /// Why the cell is infeasible; empty for done cells.
    pub reason: String,
}

impl CellRecord {
    /// The record of a cell that ran to completion with `stats`.
    pub(crate) fn done(
        id: &str,
        code_version: &str,
        config_hash: u64,
        program_hash: u64,
        stats: &SimStats,
    ) -> Self {
        CellRecord {
            id: id.to_string(),
            code_version: code_version.to_string(),
            config_hash,
            program_hash,
            status: CellStatus::Done,
            cycles: stats.cycles,
            committed: stats.committed_total(),
            ipc: stats.ipc(),
            hit_rate: stats.cache.hit_rate(),
            branch_accuracy: stats.branches.accuracy(),
            su_stalls: stats.su_stall_cycles,
            reason: String::new(),
        }
    }

    /// The record of a cell whose kernel or configuration cannot run,
    /// with the reason.
    pub(crate) fn infeasible(
        id: &str,
        code_version: &str,
        config_hash: u64,
        program_hash: u64,
        reason: String,
    ) -> Self {
        CellRecord {
            id: id.to_string(),
            code_version: code_version.to_string(),
            config_hash,
            program_hash,
            status: CellStatus::Infeasible,
            cycles: 0,
            committed: 0,
            ipc: 0.0,
            hit_rate: 0.0,
            branch_accuracy: 0.0,
            su_stalls: 0,
            reason,
        }
    }

    /// Serializes the record as `key=value` lines, the cell store's
    /// fail-closed format: every field is one line that
    /// [`parse`](Self::parse) must find and read back exactly, so a torn,
    /// truncated or hand-edited file reads as absent and the cell runs
    /// again.
    #[must_use]
    pub fn to_lines(&self) -> String {
        // Floats use `{:?}` (shortest round-trip form): a parsed-back value
        // is bit-equal to the original, so a cache hit serializes into
        // results.json byte-identically to a fresh run.
        format!(
            "id={}\ncode_version={}\nconfig_hash={:#018x}\nprogram_hash={:#018x}\n\
             status={}\ncycles={}\ncommitted={}\nipc={:?}\nhit_rate={:?}\n\
             branch_accuracy={:?}\nsu_stalls={}\nreason={}\n",
            self.id,
            self.code_version,
            self.config_hash,
            self.program_hash,
            self.status.as_str(),
            self.cycles,
            self.committed,
            self.ipc,
            self.hit_rate,
            self.branch_accuracy,
            self.su_stalls,
            self.reason.replace('\n', " "),
        )
    }

    /// Parses a record back from its `key=value` form. Any missing or
    /// malformed field yields `None` — the caller treats the record as
    /// absent and re-runs the cell (fail closed).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        let mut kv = HashMap::new();
        for line in text.lines() {
            let (k, v) = line.split_once('=')?;
            kv.insert(k, v);
        }
        let hex = |k: &str| {
            kv.get(k)
                .and_then(|v| v.strip_prefix("0x"))
                .and_then(|v| u64::from_str_radix(v, 16).ok())
        };
        let int = |k: &str| kv.get(k).and_then(|v| v.parse::<u64>().ok());
        let float = |k: &str| kv.get(k).and_then(|v| v.parse::<f64>().ok());
        Some(CellRecord {
            id: (*kv.get("id")?).to_string(),
            code_version: (*kv.get("code_version")?).to_string(),
            config_hash: hex("config_hash")?,
            program_hash: hex("program_hash")?,
            status: CellStatus::parse(kv.get("status")?)?,
            cycles: int("cycles")?,
            committed: int("committed")?,
            ipc: float("ipc")?,
            hit_rate: float("hit_rate")?,
            branch_accuracy: float("branch_accuracy")?,
            su_stalls: int("su_stalls")?,
            reason: (*kv.get("reason")?).to_string(),
        })
    }

    /// The record as a JSON object (one element of `results.json`).
    #[must_use]
    pub fn to_json(&self, spec: &CellSpec) -> String {
        object_to_json(&[
            ("id", Cell::Text(self.id.clone())),
            ("workload", Cell::Text(spec.work.name())),
            ("policy", Cell::Text(format!("{:?}", spec.policy))),
            ("predictor", Cell::Text(format!("{:?}", spec.predictor))),
            ("threads", Cell::Int(spec.threads as u64)),
            ("fetch_threads", Cell::Int(spec.fetch_threads as u64)),
            ("fetch_width", Cell::Int(spec.fetch_width as u64)),
            ("su_depth", Cell::Int(spec.su_depth as u64)),
            ("cache", Cell::Text(format!("{:?}", spec.cache))),
            ("spec_depth", Cell::Int(spec.spec_depth as u64)),
            (
                "config_hash",
                Cell::Text(format!("{:#018x}", self.config_hash)),
            ),
            (
                "program_hash",
                Cell::Text(format!("{:#018x}", self.program_hash)),
            ),
            ("status", Cell::Text(self.status.as_str().to_string())),
            ("cycles", Cell::Int(self.cycles)),
            ("committed", Cell::Int(self.committed)),
            ("ipc", Cell::Float(self.ipc)),
            ("hit_rate", Cell::Float(self.hit_rate)),
            ("branch_accuracy", Cell::Float(self.branch_accuracy)),
            ("su_stalls", Cell::Int(self.su_stalls)),
            ("reason", Cell::Text(self.reason.clone())),
        ])
    }
}

/// Sweep knobs beyond the grid itself.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Problem scale the kernels are built at.
    pub scale: Scale,
    /// Worker threads (cells are work-stolen off a shared queue).
    pub workers: usize,
    /// Snapshot in-flight simulations every this many cycles; `None`
    /// disables mid-cell checkpointing (cells then resume from scratch).
    pub checkpoint_every: Option<u64>,
    /// Cache key component: records written under a different code version
    /// are invalid. Defaults to this crate's version; tests override it to
    /// prove stale caches fail closed.
    pub code_version: String,
    /// The on-disk workload corpus, when one is attached. Cells that
    /// reference a corpus kernel by name resolve against this; without
    /// one, such cells record as infeasible with a "no corpus" reason.
    pub corpus: Option<Arc<Corpus>>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            scale: Scale::Paper,
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            checkpoint_every: None,
            code_version: env!("CARGO_PKG_VERSION").to_string(),
            corpus: None,
        }
    }
}

/// What a sweep did, for reporting and for the resume tests.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SweepSummary {
    /// Cells in the grid.
    pub total: usize,
    /// Cells actually simulated this invocation.
    pub executed: usize,
    /// Cells satisfied from the on-disk cache.
    pub cached: usize,
    /// Cells recorded infeasible (cached or fresh).
    pub infeasible: usize,
    /// Cells that resumed from a mid-flight snapshot instead of cycle 0.
    pub resumed: usize,
    /// Cycles stepped by this invocation (cache hits contribute nothing;
    /// a resumed cell counts only the cycles it actually re-simulated).
    pub simulated_cycles: u64,
    /// Where the merged results were written.
    pub results_path: PathBuf,
}

/// The built kernel(s) of a cell — one program for a uniform workload,
/// one per thread for a mix — or why lowering failed at this thread
/// count.
pub(crate) type Built = Arc<Result<Vec<Program>, String>>;

/// Kernel memo shared by the workers: the program text depends only on
/// `(work, threads)` at a fixed scale, and both cache validation and
/// execution need it.
struct Programs {
    scale: Scale,
    corpus: Option<Arc<Corpus>>,
    built: Mutex<HashMap<(WorkSpec, usize), Built>>,
}

impl Programs {
    fn new(scale: Scale, corpus: Option<Arc<Corpus>>) -> Self {
        Programs {
            scale,
            corpus,
            built: Mutex::new(HashMap::new()),
        }
    }

    /// Builds one program reference. Built-ins take the thread count the
    /// partition must fit; corpus kernels are SPMD over a runtime thread
    /// id and assemble identically at every thread count.
    fn build_ref(&self, r: &WorkRef, threads: usize) -> Result<Program, String> {
        match r {
            WorkRef::Builtin(kind) => workload(*kind, self.scale)
                .build(threads)
                .map_err(|e| e.to_string()),
            WorkRef::Corpus(name) => {
                let corpus = self
                    .corpus
                    .as_deref()
                    .ok_or_else(|| format!("workload {name:?} needs a corpus (--corpus)"))?;
                let w = corpus
                    .get(name)
                    .ok_or_else(|| format!("no workload {name:?} in the corpus"))?;
                w.build(self.scale).map_err(|e| e.to_string())
            }
        }
    }

    fn get(&self, work: &WorkSpec, threads: usize) -> Built {
        let mut built = self.built.lock().expect("program memo poisoned");
        if let Some(b) = built.get(&(work.clone(), threads)) {
            return Arc::clone(b);
        }
        let result = if work.is_mix() {
            if work.refs().len() == threads {
                // Each mix slot is a single-threaded tenant of its own
                // address-space segment.
                work.refs()
                    .iter()
                    .map(|r| self.build_ref(r, 1))
                    .collect::<Result<Vec<_>, _>>()
            } else {
                Err(format!(
                    "mix of {} programs cannot run on {threads} threads",
                    work.refs().len()
                ))
            }
        } else {
            self.build_ref(&work.refs()[0], threads).map(|p| vec![p])
        };
        let b: Built = Arc::new(result);
        built.insert((work.clone(), threads), Arc::clone(&b));
        b
    }
}

/// Writes `bytes` to `path` atomically (tmp file + rename), so a kill at
/// any instant leaves either the old file or the new one — never a torn
/// write. The tmp name carries a process id and sequence number: within
/// one sweep workers touch distinct paths, but several *processes*
/// sharing a store (the serve daemon's scale-out mode) can produce the
/// same cell concurrently, and a shared tmp name would let one writer
/// rename away — or truncate under — the other's half-written file.
/// Orphaned tmp files from a killed writer are inert: nothing loads them.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let base = path.file_name().and_then(|n| n.to_str()).unwrap_or("write");
    let tmp = path.with_file_name(format!(
        "{base}.{}-{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

fn cell_path(out: &Path, id: &str) -> PathBuf {
    out.join("cells").join(format!("{id}.cell"))
}

fn ckpt_path(out: &Path, id: &str) -> PathBuf {
    out.join("ckpt").join(format!("{id}.ckpt"))
}

/// Persists one in-flight snapshot: the code version (snapshots do not
/// survive code changes) followed by the snapshot wire format, which
/// carries its own magic, version, identity hashes, and checksum.
fn save_ckpt(out: &Path, id: &str, code_version: &str, snap: &Snapshot) -> io::Result<()> {
    let mut w = Writer::new();
    w.put_bytes(code_version.as_bytes());
    w.put_bytes(&snap.to_bytes());
    write_atomic(&ckpt_path(out, id), &w.into_bytes())
}

/// Loads a cell's in-flight snapshot if one exists and was written under
/// the same code version. Any parse failure means "no checkpoint" — the
/// cell just starts from cycle 0, which is always correct.
fn load_ckpt(out: &Path, id: &str, code_version: &str) -> Option<Snapshot> {
    let bytes = fs::read(ckpt_path(out, id)).ok()?;
    let mut r = Reader::new(&bytes);
    let version = r.take_bytes().ok()?;
    if version != code_version.as_bytes() {
        return None;
    }
    let snap = Snapshot::from_bytes(r.take_bytes().ok()?).ok()?;
    r.finish().ok()?;
    Some(snap)
}

/// Writes a mid-flight snapshot for `spec` exactly as a killed invocation
/// would have left it. Test hook for the resume path: the next
/// [`run_sweep`] over `out` picks the cell up from this snapshot instead
/// of cycle 0 (and counts it in [`SweepSummary::resumed`]).
///
/// # Errors
///
/// Fails on filesystem errors creating the checkpoint directory or file.
pub fn plant_checkpoint(
    out: &Path,
    spec: &CellSpec,
    code_version: &str,
    snap: &Snapshot,
) -> io::Result<()> {
    fs::create_dir_all(out.join("ckpt"))?;
    save_ckpt(out, &spec.id(), code_version, snap)
}

/// How many cycles a cell simulates between two progress ticks.
pub const TICK_CYCLES: u64 = 512;

/// One progress observation, emitted after every [`TICK_CYCLES`] cycles
/// a cell simulates (the `smt-serve` daemon forwards these to subscribed
/// clients as live telemetry).
#[derive(Clone, Copy, Debug)]
pub struct ProgressTick<'a> {
    /// The cell's stable id.
    pub id: &'a str,
    /// Current simulated cycle.
    pub cycle: u64,
    /// Instructions architecturally committed so far.
    pub committed: u64,
}

/// Outcome of scheduling one cell: the record that was produced or
/// fetched, plus how it was produced.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The cell.
    pub spec: CellSpec,
    /// Its terminal record (identical whether simulated or cached).
    pub rec: CellRecord,
    /// Whether the cell was simulated (vs. satisfied from cache).
    pub ran: bool,
    /// Whether it resumed from a mid-flight snapshot.
    pub resumed: bool,
    /// Cycles this invocation stepped for the cell.
    pub stepped: u64,
    /// Live CPI-stack breakdown; present only when telemetry was
    /// requested and the cell actually simulated from cycle 0.
    pub cpi: Option<CpiBreakdown>,
}

/// The reusable scheduling core of the sweep engine: one result-store
/// directory plus the execution knobs and the shared program memo.
///
/// Everything that executes cells — the batch `sweep` binary through
/// [`run_sweep`], the `smt-serve` daemon's worker pool, and the Pareto
/// search — goes through this handle, so the cache-first, resume and
/// infeasibility semantics (and therefore the produced bytes) are
/// identical no matter who asks. The handle is `Sync`: workers share one
/// `&Scheduler` across threads, and multiple *processes* can safely share
/// one store directory because every write is atomic tmp+rename.
pub struct Scheduler {
    out: PathBuf,
    opts: SweepOptions,
    programs: Programs,
}

impl Scheduler {
    /// Opens (creating if needed) the store layout under `out`.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors creating the `cells`/`ckpt`
    /// subdirectories.
    pub fn new(out: &Path, opts: SweepOptions) -> io::Result<Self> {
        fs::create_dir_all(out.join("cells"))?;
        fs::create_dir_all(out.join("ckpt"))?;
        Ok(Scheduler {
            out: out.to_path_buf(),
            programs: Programs::new(opts.scale, opts.corpus.clone()),
            opts,
        })
    }

    /// Checks that every program reference of `work` can resolve under
    /// this scheduler — builtin names always do; corpus names need an
    /// attached corpus that knows them. The serve daemon calls this at
    /// admission so a typo'd workload name becomes a typed protocol error
    /// instead of an infeasible record polluting the shared store.
    ///
    /// # Errors
    ///
    /// An explanation naming the unresolvable reference.
    pub fn resolve(&self, work: &WorkSpec) -> Result<(), String> {
        for r in work.refs() {
            if let WorkRef::Corpus(name) = r {
                let corpus = self
                    .opts
                    .corpus
                    .as_deref()
                    .ok_or_else(|| format!("workload {name:?} needs a corpus (--corpus)"))?;
                if corpus.get(name).is_none() {
                    return Err(format!(
                        "no workload {name:?} in the corpus (have: {})",
                        corpus.names().collect::<Vec<_>>().join(", ")
                    ));
                }
            }
        }
        Ok(())
    }

    /// The execution knobs this scheduler runs with.
    #[must_use]
    pub fn opts(&self) -> &SweepOptions {
        &self.opts
    }

    /// The store directory.
    #[must_use]
    pub fn out(&self) -> &Path {
        &self.out
    }

    /// The identity hashes a record for `spec` must carry to be valid
    /// under this scheduler: `(config hash, program hash)`. Builds (or
    /// reuses the memoized) program; a kernel that fails to lower hashes
    /// as 0, exactly as its infeasible record is written.
    pub(crate) fn identities(&self, spec: &CellSpec) -> (u64, u64, Built) {
        let built = self.programs.get(&spec.work, spec.threads);
        let program_hash = match built.as_ref() {
            // A uniform cell hashes its single program exactly as before
            // mixes existed (existing caches stay valid); a mix hashes
            // the ordered vector of per-program identities.
            Ok(ps) => match ps.as_slice() {
                [p] => p.identity(),
                ps => smt_checkpoint::stable_hash(
                    &ps.iter().map(Program::identity).collect::<Vec<u64>>(),
                ),
            },
            Err(_) => 0,
        };
        (config_identity(&spec.config()), program_hash, built)
    }

    /// The record stored at `path` if it is `id`'s and its full key — code
    /// version, configuration hash, program hash — matches what this
    /// scheduler would produce. Anything else is a miss.
    pub(crate) fn load_record(
        &self,
        path: &Path,
        id: &str,
        config_hash: u64,
        program_hash: u64,
    ) -> Option<CellRecord> {
        let rec = CellRecord::parse(&fs::read_to_string(path).ok()?)?;
        (rec.id == id
            && rec.code_version == self.opts.code_version
            && rec.config_hash == config_hash
            && rec.program_hash == program_hash)
            .then_some(rec)
    }

    /// Cache-only lookup: the cell's record if the store holds one whose
    /// full key (code version, config hash, program hash) matches what
    /// this scheduler would produce. Never simulates.
    #[must_use]
    pub fn probe(&self, spec: &CellSpec) -> Option<CellRecord> {
        let (config_hash, program_hash, _) = self.identities(spec);
        let id = spec.id();
        self.load_record(&cell_path(&self.out, &id), &id, config_hash, program_hash)
    }

    /// Produces one cell: from cache if valid, else by simulation
    /// (resuming from a mid-flight snapshot when one exists). `on_tick`
    /// fires after every [`TICK_CYCLES`] simulated cycles; `cpi`
    /// requests a live CPI-stack breakdown on freshly simulated cells.
    ///
    /// # Panics
    ///
    /// Panics if the simulation faults, exceeds its cycle watchdog, fails
    /// its workload check, or the store is unwritable — the same contract
    /// as the batch sweep, whose results must never contain broken runs.
    pub fn run_cell(
        &self,
        spec: &CellSpec,
        cpi: bool,
        on_tick: &mut dyn FnMut(ProgressTick<'_>),
    ) -> CellOutcome {
        let id = spec.id();
        let path = cell_path(&self.out, &id);
        let (config_hash, program_hash, built) = self.identities(spec);
        if let Some(rec) = self.load_record(&path, &id, config_hash, program_hash) {
            return CellOutcome {
                spec: spec.clone(),
                rec,
                ran: false,
                resumed: false,
                stepped: 0,
                cpi: None,
            };
        }
        let outcome = self.simulate(spec, &id, (config_hash, program_hash), &built, cpi, on_tick);
        write_atomic(&path, outcome.rec.to_lines().as_bytes())
            .unwrap_or_else(|e| panic!("{id}: cannot persist cell: {e}"));
        outcome
    }

    /// Simulates a cell the store does not hold — from its mid-flight
    /// snapshot when one exists, else from cycle 0 — or records why it
    /// is infeasible.
    fn simulate(
        &self,
        spec: &CellSpec,
        id: &str,
        (config_hash, program_hash): (u64, u64),
        built: &Built,
        cpi: bool,
        on_tick: &mut dyn FnMut(ProgressTick<'_>),
    ) -> CellOutcome {
        let code_version = &self.opts.code_version;
        let outcome = |rec, resumed, stepped, cpi| CellOutcome {
            spec: spec.clone(),
            rec,
            ran: true,
            resumed,
            stepped,
            cpi,
        };
        let infeasible = |program_hash, reason| {
            let rec = CellRecord::infeasible(id, code_version, config_hash, program_hash, reason);
            outcome(rec, false, 0, None)
        };
        // A uniform cell's one program runs on every thread; a mix places
        // one single-threaded program per thread.
        let programs: Vec<&Program> = match built.as_ref() {
            Err(e) => return infeasible(0, lowering_failure(spec.threads, e)),
            Ok(ps) => ps.iter().collect(),
        };
        let config = spec.config();
        let restored = load_ckpt(&self.out, id, code_version)
            .and_then(|snap| Simulator::restore_mix(config.clone(), &programs, &snap).ok());
        let resumed = restored.is_some();
        let fresh = || Simulator::try_new_mix(config.clone(), &programs);
        let mut sim = match restored.map_or_else(fresh, Ok) {
            Ok(sim) => sim,
            // Config rejections are holes in the space too: e.g. two fetch
            // ports with a single resident thread.
            Err(e @ (SimError::RegisterWindow { .. } | SimError::Config(_))) => {
                return infeasible(program_hash, e.to_string());
            }
            Err(e) => panic!("{id}: simulator rejected the cell: {e}"),
        };
        // The CPI-stack accountant's slot invariant needs to observe every
        // decode, so a snapshot resume (with instructions already in
        // flight) runs untraced.
        let mut stack = (cpi && !resumed).then(|| CpiStack::new(config.trace_shape().width));
        let start_cycle = sim.cycle();
        loop {
            for _ in 0..TICK_CYCLES {
                if sim.finished() {
                    break;
                }
                assert!(
                    sim.cycle() < sim.config().max_cycles,
                    "{id}: watchdog: exceeded {} cycles",
                    sim.config().max_cycles
                );
                match stack.as_mut() {
                    Some(stack) => sim.step_with(stack),
                    None => sim.step(),
                }
                .unwrap_or_else(|e| panic!("{id}: simulation failed: {e}"));
                if let Some(every) = self.opts.checkpoint_every {
                    if sim.cycle() % every == 0 && !sim.finished() {
                        save_ckpt(&self.out, id, code_version, &sim.checkpoint())
                            .unwrap_or_else(|e| panic!("{id}: cannot write checkpoint: {e}"));
                    }
                }
            }
            on_tick(ProgressTick {
                id,
                cycle: sim.cycle(),
                committed: sim.stats().committed_total(),
            });
            if sim.finished() {
                break;
            }
        }
        // The machine is drained; `run` performs no steps and finalizes
        // the statistics (cache counters, FU busy cycles).
        let stats = sim
            .run()
            .unwrap_or_else(|e| panic!("{id}: finalize failed: {e}"));
        self.check_answer(&spec.work, &sim)
            .unwrap_or_else(|e| panic!("{id}: wrong answer: {e}"));
        let _ = fs::remove_file(ckpt_path(&self.out, id));
        let rec = CellRecord::done(id, code_version, config_hash, program_hash, &stats);
        outcome(
            rec,
            resumed,
            stats.cycles - start_cycle,
            stack.map(CpiStack::finish),
        )
    }

    /// Verifies one program's architectural answer against the memory
    /// words of its (possibly thread-local) address space.
    fn check_ref(&self, r: &WorkRef, words: &[u64]) -> Result<(), String> {
        match r {
            WorkRef::Builtin(kind) => workload(*kind, self.opts.scale)
                .check(words)
                .map_err(|e| e.to_string()),
            WorkRef::Corpus(name) => {
                let corpus = self
                    .opts
                    .corpus
                    .as_deref()
                    .ok_or_else(|| format!("workload {name:?} needs a corpus"))?;
                let w = corpus
                    .get(name)
                    .ok_or_else(|| format!("no workload {name:?} in the corpus"))?;
                w.verify(words, self.opts.scale)
            }
        }
    }

    /// Verifies a finished machine's architectural answer. Each program
    /// is checked against the segment of the first thread that runs it:
    /// all of memory for a uniform cell, and for each tenant of a mix its
    /// own segment, exactly as if it had run alone.
    pub(crate) fn check_answer(&self, work: &WorkSpec, sim: &Simulator<'_>) -> Result<(), String> {
        let words = sim.memory().words();
        for (tid, r) in work.refs().iter().enumerate() {
            let (base, span) = sim.thread_segment(tid);
            let local = &words[(base / 8) as usize..((base + span) / 8) as usize];
            self.check_ref(r, local)
                .map_err(|e| format!("thread {tid}: {e}"))?;
        }
        Ok(())
    }
}

/// Why a cell whose kernel does not build at its thread count is
/// infeasible.
pub(crate) fn lowering_failure(threads: usize, e: &str) -> String {
    format!("kernel does not lower at {threads} threads: {e}")
}

/// Renders the merged results of a sweep: one JSON object per cell, sorted
/// by cell id, independent of worker scheduling — so equal inputs always
/// produce byte-equal files.
#[must_use]
pub fn results_json(cells: &[(CellSpec, CellRecord)]) -> String {
    let mut out = String::from("[\n");
    for (i, (spec, rec)) in cells.iter().enumerate() {
        out.push_str(&rec.to_json(spec));
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out.push('\n');
    out
}

/// Runs (or resumes) the sweep over `grid` into `out`, writing one cell
/// file per point plus a merged, deterministically ordered `results.json`.
///
/// # Errors
///
/// Fails on filesystem errors creating the output layout or writing the
/// merged results.
///
/// # Panics
///
/// Panics if any cell's simulation faults or fails its workload check.
pub fn run_sweep(grid: &Grid, out: &Path, opts: &SweepOptions) -> io::Result<SweepSummary> {
    let sched = Scheduler::new(out, opts.clone())?;
    let specs = grid.cells();
    let next = AtomicUsize::new(0);
    let workers = opts.workers.clamp(1, specs.len().max(1));
    // Work stealing: each worker repeatedly claims the next unclaimed
    // cell, so a worker stuck on one long cell never strands the queue.
    let outcomes: Vec<CellOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (specs, next, sched) = (&specs, &next, &sched);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(spec) = specs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        mine.push(sched.run_cell(spec, false, &mut |_| {}));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let count = |f: fn(&CellOutcome) -> bool| outcomes.iter().filter(|o| f(o)).count();
    let summary = SweepSummary {
        total: specs.len(),
        executed: count(|o| o.ran),
        cached: count(|o| !o.ran),
        infeasible: count(|o| o.rec.status == CellStatus::Infeasible),
        resumed: count(|o| o.resumed),
        simulated_cycles: outcomes.iter().map(|o| o.stepped).sum(),
        results_path: out.join("results.json"),
    };
    let mut cells: Vec<(CellSpec, CellRecord)> =
        outcomes.into_iter().map(|o| (o.spec, o.rec)).collect();
    cells.sort_by(|a, b| a.1.id.cmp(&b.1.id));
    write_atomic(&summary.results_path, results_json(&cells).as_bytes())?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CellSpec {
        CellSpec {
            work: WorkloadKind::Sieve.into(),
            policy: FetchPolicy::TrueRoundRobin,
            predictor: PredictorKind::SharedBtb,
            threads: 4,
            fetch_threads: 1,
            fetch_width: 4,
            su_depth: 32,
            cache: CacheKind::SetAssociative,
            spec_depth: 0,
        }
    }

    #[test]
    fn cell_ids_encode_every_dimension() {
        assert_eq!(spec().id(), "sieve-trr-t4-su32-sa");
        assert_eq!(
            CellSpec {
                spec_depth: 2,
                ..spec()
            }
            .id(),
            "sieve-trr-t4-su32-sa-sd2",
            "the limit appears only when engaged, so existing ids are stable"
        );
        let other = CellSpec {
            policy: FetchPolicy::ConditionalSwitch,
            cache: CacheKind::DirectMapped,
            threads: 8,
            su_depth: 16,
            work: WorkloadKind::Ll12.into(),
            ..spec()
        };
        assert_eq!(other.id(), "ll12-cs-t8-su16-dm");
    }

    #[test]
    fn mix_and_corpus_specs_spell_their_ids_with_plus_joins() {
        let solo = CellSpec {
            work: WorkSpec::corpus("quicksort"),
            threads: 2,
            ..spec()
        };
        assert_eq!(solo.id(), "quicksort-trr-t2-su32-sa");
        let mixed = CellSpec {
            work: WorkSpec::mix(vec![
                WorkRef::Builtin(WorkloadKind::Mpd),
                WorkRef::Corpus("matmul".into()),
            ]),
            threads: 2,
            policy: FetchPolicy::Icount,
            ..spec()
        };
        assert_eq!(mixed.id(), "mpd+matmul-ic-t2-su32-sa");
    }

    #[test]
    fn work_specs_parse_their_own_spelling() {
        for s in ["sieve", "quicksort", "mpd+matmul", "memstress+ll7"] {
            let w = WorkSpec::parse(s).expect(s);
            assert_eq!(w.id_part(), s, "parse/id round trip");
        }
        assert_eq!(
            WorkSpec::parse("SIEVE").unwrap().refs()[0],
            WorkRef::Builtin(WorkloadKind::Sieve),
            "builtins match case-insensitively"
        );
        assert!(WorkSpec::parse("not-a-name!").is_err());
        assert!(WorkSpec::parse("sieve+").is_err(), "empty mix slot");
    }

    #[test]
    fn hetero_grid_pairs_mixes_only_with_their_arity() {
        let cells = Grid::hetero().cells();
        // 2 solo workloads x 2 policies x {2,4} threads = 8 cells, plus
        // 2 two-program mixes and 1 four-program mix at 2 policies each.
        assert_eq!(cells.len(), 14);
        for c in &cells {
            if c.work.is_mix() {
                assert_eq!(c.work.refs().len(), c.threads);
            }
        }
        let ids: std::collections::HashSet<String> = cells.iter().map(CellSpec::id).collect();
        assert_eq!(ids.len(), cells.len(), "ids are unique");
    }

    #[test]
    fn front_end_dimensions_suffix_the_id_only_off_default() {
        let cell = CellSpec {
            policy: FetchPolicy::Icount,
            predictor: PredictorKind::Gshare,
            fetch_threads: 2,
            fetch_width: 8,
            ..spec()
        };
        assert_eq!(cell.id(), "sieve-ic-t4-su32-sa-gsh-ft2-fw8");
        let pbtb = CellSpec {
            predictor: PredictorKind::PartitionedBtb,
            ..spec()
        };
        assert_eq!(pbtb.id(), "sieve-trr-t4-su32-sa-pbtb");
    }

    #[test]
    fn grid_flattens_to_the_full_cross_product() {
        let g = Grid::smoke();
        let cells = g.cells();
        assert_eq!(cells.len(), 2 * 3 * 4);
        let ids: std::collections::HashSet<String> = cells.iter().map(CellSpec::id).collect();
        assert_eq!(ids.len(), cells.len(), "ids are unique");
    }

    #[test]
    fn preset_cell_ids_and_order_are_pinned() {
        // Every id keys a store entry, and the end-to-end benchmark picks
        // paper ∪ hetero cells by position: neither the spelling nor the
        // order of a preset's cells may move.
        for (name, grid, digest) in [
            ("smoke", Grid::smoke(), 0x7d61_c809_841e_5fddu64),
            ("paper", Grid::paper(), 0xfff4_ef6f_7bda_b201),
            ("frontend", Grid::frontend(), 0xa44b_98e9_5285_851a),
            ("hetero", Grid::hetero(), 0xe255_f732_bb2b_2cc3),
        ] {
            let ids: Vec<String> = grid.cells().iter().map(CellSpec::id).collect();
            assert_eq!(smt_checkpoint::stable_hash(&ids), digest, "{name}");
        }
    }

    #[test]
    fn frontend_grid_spans_the_new_axes_with_unique_ids() {
        let cells = Grid::frontend().cells();
        assert_eq!(cells.len(), 2 * 4 * 3 * 4 * 2 * 2);
        let ids: std::collections::HashSet<String> = cells.iter().map(CellSpec::id).collect();
        assert_eq!(ids.len(), cells.len(), "ids are unique");
    }

    #[test]
    fn records_round_trip_through_the_cell_format() {
        let rec = CellRecord {
            id: spec().id(),
            code_version: "1.2.3".into(),
            config_hash: 0xdead_beef_0badu64,
            program_hash: 0x1234,
            status: CellStatus::Done,
            cycles: 987_654,
            committed: 123_456,
            ipc: 1.234_567_890_123,
            hit_rate: 99.017_234,
            branch_accuracy: 87.5,
            su_stalls: 42,
            reason: String::new(),
        };
        let parsed = CellRecord::parse(&rec.to_lines()).expect("round trip");
        assert_eq!(parsed, rec);
        // Bit-exact float round trip is what makes cache hits serialize
        // byte-identically into results.json.
        assert_eq!(parsed.ipc.to_bits(), rec.ipc.to_bits());
    }

    #[test]
    fn malformed_records_fail_closed() {
        assert_eq!(CellRecord::parse(""), None);
        assert_eq!(CellRecord::parse("id=x\nstatus=done"), None);
        let rec = CellRecord::infeasible(&spec().id(), "v", 1, 0, "no fit".into());
        let mangled = rec.to_lines().replace("status=infeasible", "status=maybe");
        assert_eq!(CellRecord::parse(&mangled), None);
    }

    #[test]
    fn reasons_survive_equals_signs_and_newlines() {
        let rec = CellRecord::infeasible(
            &spec().id(),
            "v",
            1,
            0,
            "window=21 < needed\nregs=32".into(),
        );
        let parsed = CellRecord::parse(&rec.to_lines()).expect("round trip");
        assert_eq!(parsed.reason, "window=21 < needed regs=32");
    }
}
