//! Memoizing simulation runner used by the figure generators.
//!
//! The paper's figures share many configuration points (the 4-thread
//! True-RR default appears in nearly every one), so the runner caches
//! results keyed by the swept dimensions. Every run is *verified* against
//! the workload's reference checker before being cached — a figure can
//! never be generated from a wrong-answer simulation.
//!
//! # Parallel prewarming
//!
//! Generating the full report serially means hundreds of independent
//! simulations back to back. The runner therefore supports a three-step
//! parallel mode used by the `report` binary:
//!
//! 1. **Record** — run every generator against a [`Runner::recorder`],
//!    which executes nothing and instead collects the demanded [`Job`]s
//!    (dummy outcomes keep the generators' arithmetic well-defined);
//! 2. **Prewarm** — [`Runner::prewarm`] deduplicates the jobs and runs
//!    them across `std::thread::scope` workers, merging the verified
//!    outcomes into the memo caches;
//! 3. **Generate** — rerun the generators serially against the warmed
//!    runner. Every lookup hits the cache, so the emitted tables are
//!    byte-identical to a fully serial run (simulations are
//!    deterministic), only faster.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use smt_core::{CommitPolicy, FetchPolicy, SimConfig, SimStats, Simulator};
use smt_isa::{FuClass, Program};
use smt_mem::CacheKind;
use smt_trace::{CpiBreakdown, CpiStack, SlotCause};
use smt_uarch::FuConfig;
use smt_workloads::{workload, Scale, WorkloadKind};

/// The dimensions the paper sweeps, as a hashable cache key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RunKey {
    /// Benchmark.
    pub kind: WorkloadKind,
    /// Resident threads.
    pub threads: usize,
    /// Fetch policy.
    pub fetch: FetchPolicy,
    /// Commit policy.
    pub commit: CommitPolicy,
    /// Cache organization.
    pub cache: CacheKind,
    /// Scheduling-unit depth in entries.
    pub su_depth: usize,
    /// Whether the enhanced ("++") functional-unit complement is used.
    pub enhanced_fu: bool,
}

impl RunKey {
    /// The paper's default configuration point for `kind`: 4 threads,
    /// True Round Robin, flexible commit, 4-way cache, 32-entry SU,
    /// default functional units.
    #[must_use]
    pub fn default_point(kind: WorkloadKind) -> Self {
        RunKey {
            kind,
            threads: 4,
            fetch: FetchPolicy::TrueRoundRobin,
            commit: CommitPolicy::Flexible,
            cache: CacheKind::SetAssociative,
            su_depth: 32,
            enhanced_fu: false,
        }
    }

    /// The single-threaded base case of the same benchmark.
    #[must_use]
    pub fn base_case(kind: WorkloadKind) -> Self {
        RunKey {
            threads: 1,
            ..Self::default_point(kind)
        }
    }

    /// Lowers the key to a full simulator configuration.
    #[must_use]
    pub fn to_config(self) -> SimConfig {
        let fu = if self.enhanced_fu {
            FuConfig::paper_enhanced()
        } else {
            FuConfig::paper_default()
        };
        SimConfig::default()
            .with_threads(self.threads)
            .with_fetch_policy(self.fetch)
            .with_commit_policy(self.commit)
            .with_cache_kind(self.cache)
            .with_su_depth(self.su_depth)
            .with_fu(fu)
    }
}

/// Measurements kept from one verified run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Total cycles.
    pub cycles: u64,
    /// Data-cache hit rate in percent.
    pub hit_rate: f64,
    /// Branch-prediction accuracy in percent.
    pub branch_accuracy: f64,
    /// Scheduling-unit stall cycles.
    pub su_stalls: u64,
    /// Full statistics (for Table 3's functional-unit usage etc.).
    pub stats: SimStats,
}

/// One simulation demanded by a figure generator, captured by the
/// recording pass and replayed in parallel by [`Runner::prewarm`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Job {
    /// A memoized sweep point ([`Runner::run`]).
    Key(RunKey),
    /// An arbitrary-configuration run ([`Runner::run_config`]). The
    /// configuration is boxed to keep the enum small next to [`RunKey`].
    Config(WorkloadKind, Box<SimConfig>),
    /// A traced run accumulating the CPI stack ([`Runner::run_cpi`]).
    Cpi(RunKey),
}

/// The result of one prewarm job, matching the [`Job`] variant.
enum WarmOutcome {
    Plain(Box<RunOutcome>),
    Cpi(Box<CpiBreakdown>),
}

/// Memo of built (and predecoded) kernels keyed `(kind, threads)`. The
/// paper's sweeps revisit the same kernel at the same thread count under
/// hundreds of machine configurations; the program text depends only on
/// `(kind, threads)` at a fixed scale, so each is built once and shared —
/// across the serial paths and the prewarm workers alike. One cache serves
/// exactly one [`Runner`] (and hence one scale); the scale is deliberately
/// not part of the key.
#[derive(Default, Debug)]
struct ProgramCache {
    built: Mutex<HashMap<(WorkloadKind, usize), Arc<Program>>>,
}

impl ProgramCache {
    /// The built kernel for `(kind, threads)`, building and caching it on
    /// first demand.
    fn get(&self, scale: Scale, kind: WorkloadKind, threads: usize) -> Arc<Program> {
        let mut built = self.built.lock().expect("program cache poisoned");
        Arc::clone(built.entry((kind, threads)).or_insert_with(|| {
            Arc::new(
                workload(kind, scale)
                    .build(threads)
                    .expect("kernel fits the partition"),
            )
        }))
    }

    /// Number of distinct kernels built so far.
    fn len(&self) -> usize {
        self.built.lock().expect("program cache poisoned").len()
    }
}

/// Builds, runs, and verifies one simulation. Shared by the serial paths
/// and the prewarm workers.
///
/// # Panics
///
/// Panics if the simulation errors or its architectural result fails the
/// workload checker — a figure must never be built from a broken run.
fn execute(
    scale: Scale,
    kind: WorkloadKind,
    config: &SimConfig,
    programs: &ProgramCache,
) -> RunOutcome {
    let w = workload(kind, scale);
    let program = programs.get(scale, kind, config.threads);
    let mut sim = Simulator::new(config.clone(), &program);
    let stats = sim
        .run()
        .unwrap_or_else(|e| panic!("{} under {config:?}: {e}", w.name()));
    w.check(sim.memory().words())
        .unwrap_or_else(|e| panic!("{} under {config:?}: wrong answer: {e}", w.name()));
    RunOutcome {
        cycles: stats.cycles,
        hit_rate: stats.cache.hit_rate(),
        branch_accuracy: stats.branches.accuracy(),
        su_stalls: stats.su_stall_cycles,
        stats,
    }
}

/// Like [`execute`], but with a [`CpiStack`] attached: returns the slot
/// attribution of the run instead of the raw counters. Verified the same
/// way, and the sum invariant (`slots == block_size × cycles`) is asserted
/// on every prewarmed/memoized breakdown.
fn execute_cpi(
    scale: Scale,
    kind: WorkloadKind,
    config: &SimConfig,
    programs: &ProgramCache,
) -> CpiBreakdown {
    let w = workload(kind, scale);
    let program = programs.get(scale, kind, config.threads);
    let mut sim = Simulator::new(config.clone(), &program);
    let mut cpi = CpiStack::new(config.block_size as u32);
    let stats = sim
        .run_with(&mut cpi)
        .unwrap_or_else(|e| panic!("{} under {config:?}: {e}", w.name()));
    w.check(sim.memory().words())
        .unwrap_or_else(|e| panic!("{} under {config:?}: wrong answer: {e}", w.name()));
    let breakdown = cpi.finish();
    assert_eq!(
        breakdown.total_slots(),
        config.block_size as u64 * stats.cycles,
        "{}: CPI stack must account every slot",
        w.name()
    );
    breakdown
}

/// A placeholder outcome handed out while recording. `cycles` is 1 so the
/// generators' ratios and speedup formulas stay finite.
fn dummy_outcome() -> RunOutcome {
    RunOutcome {
        cycles: 1,
        hit_rate: 0.0,
        branch_accuracy: 0.0,
        su_stalls: 0,
        stats: SimStats::default(),
    }
}

/// Placeholder breakdown for the recording pass: one committed slot in one
/// one-wide cycle, so shares and CPIs stay finite.
fn dummy_breakdown() -> CpiBreakdown {
    let mut slots = [0u64; SlotCause::COUNT];
    slots[SlotCause::Committed.index()] = 1;
    CpiBreakdown {
        width: 1,
        cycles: 1,
        committed: 1,
        slots,
    }
}

/// Memoizing, self-verifying runner.
pub struct Runner {
    scale: Scale,
    cache: HashMap<RunKey, RunOutcome>,
    config_cache: HashMap<(WorkloadKind, SimConfig), RunOutcome>,
    cpi_cache: HashMap<RunKey, CpiBreakdown>,
    programs: ProgramCache,
    runs: u64,
    sim_cycles: u64,
    recording: Option<Vec<Job>>,
}

impl Runner {
    /// Creates a runner at the given problem scale.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        Runner {
            scale,
            cache: HashMap::new(),
            config_cache: HashMap::new(),
            cpi_cache: HashMap::new(),
            programs: ProgramCache::default(),
            runs: 0,
            sim_cycles: 0,
            recording: None,
        }
    }

    /// Creates a *recording* runner: [`Runner::run`] and
    /// [`Runner::run_config`] execute nothing, return dummy outcomes, and
    /// log the demanded [`Job`]s for [`Runner::into_recorded`].
    #[must_use]
    pub fn recorder(scale: Scale) -> Self {
        Runner {
            recording: Some(Vec::new()),
            ..Self::new(scale)
        }
    }

    /// The jobs demanded of a [`Runner::recorder`], in demand order
    /// (with duplicates; [`Runner::prewarm`] deduplicates).
    #[must_use]
    pub fn into_recorded(self) -> Vec<Job> {
        self.recording.unwrap_or_default()
    }

    /// The problem scale in use.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Number of actual (non-memoized) simulations performed.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total simulated cycles across all actual runs (for throughput
    /// reporting).
    #[must_use]
    pub fn sim_cycles(&self) -> u64 {
        self.sim_cycles
    }

    /// Number of distinct `(kind, threads)` kernels built so far — every
    /// other run at the same point reuses the shared program.
    #[must_use]
    pub fn programs_built(&self) -> usize {
        self.programs.len()
    }

    /// Runs the deduplicated `jobs` across `workers` scoped threads and
    /// merges the verified outcomes into the memo caches. Jobs already
    /// cached are skipped. Subsequent [`Runner::run`]/[`Runner::run_config`]
    /// calls for these points are cache hits, so a generation pass after a
    /// prewarm emits exactly what a serial pass would.
    ///
    /// # Panics
    ///
    /// Panics if any worker's simulation errors or fails verification.
    pub fn prewarm(&mut self, jobs: &[Job], workers: usize) {
        let mut seen = HashSet::new();
        let pending: Vec<&Job> = jobs
            .iter()
            .filter(|job| seen.insert(*job))
            .filter(|job| match job {
                Job::Key(key) => !self.cache.contains_key(key),
                Job::Config(kind, cfg) => !self
                    .config_cache
                    .contains_key(&(*kind, cfg.as_ref().clone())),
                Job::Cpi(key) => !self.cpi_cache.contains_key(key),
            })
            .collect();
        if pending.is_empty() {
            return;
        }
        let workers = workers.clamp(1, pending.len());
        let scale = self.scale;
        let programs = &self.programs;
        // Shard round-robin: neighbouring jobs (same figure, similar cost)
        // spread across workers, which balances better than contiguous
        // chunks when one sweep's simulations dwarf another's.
        let outcomes: Vec<Vec<(&Job, WarmOutcome)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let shard: Vec<&Job> =
                        pending.iter().skip(w).step_by(workers).copied().collect();
                    s.spawn(move || {
                        shard
                            .into_iter()
                            .map(|job| {
                                let outcome = match job {
                                    Job::Key(key) => WarmOutcome::Plain(Box::new(execute(
                                        scale,
                                        key.kind,
                                        &key.to_config(),
                                        programs,
                                    ))),
                                    Job::Config(kind, cfg) => WarmOutcome::Plain(Box::new(
                                        execute(scale, *kind, cfg, programs),
                                    )),
                                    Job::Cpi(key) => WarmOutcome::Cpi(Box::new(execute_cpi(
                                        scale,
                                        key.kind,
                                        &key.to_config(),
                                        programs,
                                    ))),
                                };
                                (job, outcome)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("prewarm worker panicked"))
                .collect()
        });
        for (job, outcome) in outcomes.into_iter().flatten() {
            self.runs += 1;
            match (job, outcome) {
                (Job::Key(key), WarmOutcome::Plain(o)) => {
                    self.sim_cycles += o.cycles;
                    self.cache.insert(*key, *o);
                }
                (Job::Config(kind, cfg), WarmOutcome::Plain(o)) => {
                    self.sim_cycles += o.cycles;
                    self.config_cache.insert((*kind, cfg.as_ref().clone()), *o);
                }
                (Job::Cpi(key), WarmOutcome::Cpi(b)) => {
                    self.sim_cycles += b.cycles;
                    self.cpi_cache.insert(*key, *b);
                }
                _ => unreachable!("job and outcome variants always match"),
            }
        }
    }

    /// Runs (or recalls) the simulation at `key`.
    ///
    /// # Panics
    ///
    /// Panics if the simulation errors or its architectural result fails the
    /// workload checker — a figure must never be built from a broken run.
    pub fn run(&mut self, key: RunKey) -> RunOutcome {
        if let Some(jobs) = &mut self.recording {
            jobs.push(Job::Key(key));
            return dummy_outcome();
        }
        if let Some(hit) = self.cache.get(&key) {
            return hit.clone();
        }
        let outcome = execute(self.scale, key.kind, &key.to_config(), &self.programs);
        self.runs += 1;
        self.sim_cycles += outcome.cycles;
        self.cache.insert(key, outcome.clone());
        outcome
    }

    /// Cycles at `key` (convenience).
    pub fn cycles(&mut self, key: RunKey) -> u64 {
        self.run(key).cycles
    }

    /// The paper's Table 3 metric at `key`: percentage of cycles the *extra*
    /// unit of `class` was occupied.
    pub fn extra_fu_usage(&mut self, key: RunKey, class: FuClass) -> f64 {
        let o = self.run(key);
        o.stats.fu.extra_unit_pct(class, o.cycles)
    }

    /// Runs (or recalls) the simulation at `key` with a [`CpiStack`]
    /// attached, returning the slot-bandwidth attribution. Traced runs are
    /// cycle-for-cycle identical to untraced ones (the golden tests prove
    /// it), so this shares the program cache but keeps its own memo — the
    /// untraced caches stay warm for the counter-based figures.
    ///
    /// # Panics
    ///
    /// Panics if the simulation errors, fails verification, or the stack
    /// does not sum to `block_size × cycles`.
    pub fn run_cpi(&mut self, key: RunKey) -> CpiBreakdown {
        if let Some(jobs) = &mut self.recording {
            jobs.push(Job::Cpi(key));
            return dummy_breakdown();
        }
        if let Some(hit) = self.cpi_cache.get(&key) {
            return hit.clone();
        }
        let breakdown = execute_cpi(self.scale, key.kind, &key.to_config(), &self.programs);
        self.runs += 1;
        self.sim_cycles += breakdown.cycles;
        self.cpi_cache.insert(key, breakdown.clone());
        breakdown
    }

    /// Runs a benchmark under an arbitrary configuration (for the ablation
    /// and extension tables whose knobs lie outside [`RunKey`]). Memoized
    /// on the full configuration and verified like every other run.
    ///
    /// # Panics
    ///
    /// Panics if the simulation errors or fails its result check.
    pub fn run_config(&mut self, kind: WorkloadKind, config: SimConfig) -> RunOutcome {
        if let Some(jobs) = &mut self.recording {
            jobs.push(Job::Config(kind, Box::new(config)));
            return dummy_outcome();
        }
        if let Some(hit) = self.config_cache.get(&(kind, config.clone())) {
            return hit.clone();
        }
        let outcome = execute(self.scale, kind, &config, &self.programs);
        self.runs += 1;
        self.sim_cycles += outcome.cycles;
        self.config_cache.insert((kind, config), outcome.clone());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoization_avoids_reruns() {
        let mut r = Runner::new(Scale::Test);
        let key = RunKey::default_point(WorkloadKind::Sieve);
        let first = r.run(key);
        let again = r.run(key);
        assert_eq!(first.cycles, again.cycles);
        assert_eq!(r.runs(), 1);
    }

    #[test]
    fn programs_are_built_once_per_kind_and_thread_count() {
        let mut r = Runner::new(Scale::Test);
        let key = RunKey::default_point(WorkloadKind::Sieve);
        let masked = RunKey {
            fetch: FetchPolicy::MaskedRoundRobin,
            ..key
        };
        let base = RunKey::base_case(WorkloadKind::Sieve);
        let a = r.run(key);
        let b = r.run(masked);
        let c = r.run(base);
        assert_eq!(r.runs(), 3);
        assert_eq!(
            r.programs_built(),
            2,
            "two sweep points at 4 threads share one built kernel"
        );
        assert!(a.cycles > 0 && b.cycles > 0 && c.cycles > 0);
    }

    #[test]
    fn default_and_base_points_differ_only_in_threads() {
        let d = RunKey::default_point(WorkloadKind::Ll1);
        let b = RunKey::base_case(WorkloadKind::Ll1);
        assert_eq!(d.threads, 4);
        assert_eq!(b.threads, 1);
        assert_eq!(d.fetch, b.fetch);
        assert_eq!(d.su_depth, b.su_depth);
    }

    #[test]
    fn key_lowers_to_validated_config() {
        let key = RunKey {
            kind: WorkloadKind::Matrix,
            threads: 6,
            fetch: FetchPolicy::ConditionalSwitch,
            commit: CommitPolicy::LowestOnly,
            cache: CacheKind::DirectMapped,
            su_depth: 48,
            enhanced_fu: true,
        };
        let cfg = key.to_config();
        cfg.validate().unwrap();
        assert_eq!(cfg.threads, 6);
        assert_eq!(cfg.cache.ways, 1);
        assert_eq!(cfg.fu.class(FuClass::Alu).count, 6);
    }

    #[test]
    fn recorder_collects_jobs_without_running() {
        let mut r = Runner::recorder(Scale::Test);
        let key = RunKey::default_point(WorkloadKind::Sieve);
        let out = r.run(key);
        assert_eq!(out.cycles, 1, "recording returns a dummy outcome");
        let cfg = key.to_config().with_bypass(false);
        r.run_config(WorkloadKind::Sieve, cfg.clone());
        assert_eq!(r.runs(), 0);
        let jobs = r.into_recorded();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0], Job::Key(key));
        assert_eq!(jobs[1], Job::Config(WorkloadKind::Sieve, Box::new(cfg)));
    }

    #[test]
    fn prewarm_matches_serial_results() {
        let key = RunKey::default_point(WorkloadKind::Sieve);
        let other = RunKey { threads: 2, ..key };
        let cfg = key.to_config().with_bypass(false);

        let mut serial = Runner::new(Scale::Test);
        let expected = [
            serial.run(key).cycles,
            serial.run(other).cycles,
            serial.run_config(WorkloadKind::Sieve, cfg.clone()).cycles,
        ];

        let mut warmed = Runner::new(Scale::Test);
        let jobs = vec![
            Job::Key(key),
            Job::Key(key), // duplicate: deduplicated before sharding
            Job::Key(other),
            Job::Config(WorkloadKind::Sieve, Box::new(cfg.clone())),
        ];
        warmed.prewarm(&jobs, 3);
        assert_eq!(warmed.runs(), 3, "duplicates are not rerun");
        let runs_after_warm = warmed.runs();
        let got = [
            warmed.run(key).cycles,
            warmed.run(other).cycles,
            warmed.run_config(WorkloadKind::Sieve, cfg).cycles,
        ];
        assert_eq!(got, expected);
        assert_eq!(
            warmed.runs(),
            runs_after_warm,
            "generation pass is all cache hits"
        );
    }

    #[test]
    fn cpi_runs_memoize_and_prewarm() {
        let key = RunKey::default_point(WorkloadKind::Sieve);
        let mut serial = Runner::new(Scale::Test);
        let expected = serial.run_cpi(key);
        let again = serial.run_cpi(key);
        assert_eq!(serial.runs(), 1, "second demand is a cache hit");
        assert_eq!(expected.slots, again.slots);
        assert_eq!(expected.total_slots(), 4 * expected.cycles);

        let mut warmed = Runner::new(Scale::Test);
        warmed.prewarm(&[Job::Cpi(key), Job::Cpi(key)], 2);
        assert_eq!(warmed.runs(), 1, "duplicates are not rerun");
        let got = warmed.run_cpi(key);
        assert_eq!(warmed.runs(), 1, "generation pass is a cache hit");
        assert_eq!(got.slots, expected.slots);
    }

    #[test]
    fn cpi_recording_returns_a_finite_dummy() {
        let mut r = Runner::recorder(Scale::Test);
        let key = RunKey::default_point(WorkloadKind::Sieve);
        let b = r.run_cpi(key);
        assert!(b.cpi().is_finite());
        assert_eq!(r.runs(), 0);
        assert_eq!(r.into_recorded(), vec![Job::Cpi(key)]);
    }

    #[test]
    fn run_config_memoizes_on_the_full_configuration() {
        let mut r = Runner::new(Scale::Test);
        let cfg = RunKey::default_point(WorkloadKind::Sieve).to_config();
        let first = r.run_config(WorkloadKind::Sieve, cfg.clone());
        let again = r.run_config(WorkloadKind::Sieve, cfg.clone());
        assert_eq!(first.cycles, again.cycles);
        assert_eq!(r.runs(), 1);
        r.run_config(WorkloadKind::Sieve, cfg.with_bypass(false));
        assert_eq!(r.runs(), 2, "a different configuration is a real run");
    }
}
