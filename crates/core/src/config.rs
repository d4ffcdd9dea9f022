//! Simulator configuration — the knobs of the paper's Table 2.

use std::fmt;

use smt_isa::MAX_THREADS;
use smt_mem::{CacheConfig, CacheKind};
use smt_uarch::{FuConfig, PredictorKind};

/// How the instruction unit chooses which thread fetches each cycle
/// (Section 5.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum FetchPolicy {
    /// One fetch slot per thread in strict cyclic order, advanced every
    /// cycle "irrespective of the state of execution of the threads" —
    /// a waiting thread's slot is simply wasted. The default, and the
    /// paper's recommendation ("the easiest to implement").
    #[default]
    TrueRoundRobin,
    /// Round robin, but a thread is masked out while it fails to commit
    /// results from the lower-most reorder-buffer block.
    MaskedRoundRobin,
    /// Keep fetching the same thread until the decoder sees a long-latency
    /// trigger (integer divide, FP multiply/divide, or a synchronization
    /// primitive), then switch.
    ConditionalSwitch,
    /// Occupancy-driven selection (Tullsen et al.'s ICOUNT, not in the
    /// source paper): each cycle the fetchable thread with the fewest
    /// instructions resident in the front end and scheduling unit wins,
    /// ties broken by rotating priority. Starvation-free — a thread that
    /// monopolizes the window loses fetch priority by construction.
    Icount,
}

impl fmt::Display for FetchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FetchPolicy::TrueRoundRobin => "True Round Robin",
            FetchPolicy::MaskedRoundRobin => "Masked Round Robin",
            FetchPolicy::ConditionalSwitch => "Conditional Switch",
            FetchPolicy::Icount => "ICOUNT",
        })
    }
}

/// Which reorder-buffer blocks may commit results (Section 3.5, Figure 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CommitPolicy {
    /// Flexible Result Commit: the bottom four blocks are examined and the
    /// lowest eligible block (ready, and with no older block of the same
    /// thread below it) commits. The paper's default.
    #[default]
    Flexible,
    /// Only the lower-most block may commit (the single-threaded baseline
    /// behaviour).
    LowestOnly,
}

impl fmt::Display for CommitPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CommitPolicy::Flexible => "Flexible (bottom four blocks)",
            CommitPolicy::LowestOnly => "Lower-most block only",
        })
    }
}

/// How the decoder tracks dependences (Table 2's "Register Renaming" row).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum RenamingMode {
    /// Full renaming through globally unique tags (the paper's design).
    #[default]
    Full,
    /// Scoreboarding ablation: no renaming — the decoder stalls an
    /// instruction until every pending producer of its source registers has
    /// written back.
    Scoreboard,
}

impl fmt::Display for RenamingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RenamingMode::Full => "full renaming",
            RenamingMode::Scoreboard => "scoreboarding",
        })
    }
}

/// Reconstructed default parameters (see DESIGN.md for provenance).
pub mod defaults {
    /// Default number of resident threads.
    pub const THREADS: usize = 4;
    /// Instructions fetched per cycle (one block).
    pub const FETCH_WIDTH: usize = 4;
    /// Threads fetched per cycle (fetch-unit ports).
    pub const FETCH_THREADS: usize = 1;
    /// Scheduling-unit depth in entries (8 blocks of 4).
    pub const SU_DEPTH: usize = 32;
    /// Instructions per reorder-buffer block.
    pub const BLOCK_SIZE: usize = 4;
    /// Maximum instructions issued to functional units per cycle.
    pub const ISSUE_WIDTH: usize = 8;
    /// Maximum results written back to the scheduling unit per cycle.
    pub const WRITEBACK_WIDTH: usize = 8;
    /// Blocks examined by Flexible Result Commit.
    pub const COMMIT_WINDOW_BLOCKS: usize = 4;
    /// Store-buffer entries.
    pub const STORE_BUFFER: usize = 8;
    /// Branch-target-buffer entries.
    pub const BTB_ENTRIES: usize = 512;
    /// Speculation-depth limit: maximum unresolved conditional branches a
    /// thread may have in flight before its fetch stalls (0 = unlimited,
    /// the paper's machine).
    pub const SPEC_DEPTH: usize = 0;
    /// Watchdog: a run exceeding this many cycles is reported as hung.
    pub const MAX_CYCLES: u64 = 200_000_000;
}

/// Full hardware configuration of a simulation run.
///
/// Construct with [`SimConfig::default`] (the paper's Table 2 defaults) and
/// adjust with the `with_*` methods:
///
/// ```
/// use smt_core::{FetchPolicy, SimConfig};
///
/// let cfg = SimConfig::default()
///     .with_threads(2)
///     .with_fetch_policy(FetchPolicy::ConditionalSwitch)
///     .with_su_depth(48);
/// assert_eq!(cfg.threads, 2);
/// cfg.validate().expect("consistent configuration");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SimConfig {
    /// Number of simultaneously resident threads (1–6).
    pub threads: usize,
    /// Fetch policy.
    pub fetch_policy: FetchPolicy,
    /// Branch-predictor family.
    pub predictor: PredictorKind,
    /// Instructions fetched per selected thread per cycle (the fetch-block
    /// width). Defaults to `block_size`; wider values deliver one oversize
    /// group the decoder drains one block per cycle.
    pub fetch_width: usize,
    /// Threads fetched per cycle (fetch-unit ports). Each port selects a
    /// *distinct* thread; the decoder correspondingly drains up to this
    /// many blocks per cycle.
    pub fetch_threads: usize,
    /// Commit policy.
    pub commit_policy: CommitPolicy,
    /// Dependence-tracking mode.
    pub renaming: RenamingMode,
    /// Result bypassing: a result written back in cycle *c* may wake a
    /// dependant that issues in cycle *c* (Table 2's "Bypassing of results").
    pub bypass: bool,
    /// Fetch blocks are aligned to `block_size` boundaries: entering a block
    /// mid-way wastes the leading slots. This is the stricter reading of the
    /// SDSP's "block of four contiguous instructions" and the machine model
    /// under which the paper's Section 6 suggestion — align branch targets
    /// to block starts — pays off. Default `false` (fetch starts anywhere).
    pub aligned_fetch: bool,
    /// Scheduling-unit depth in entries (a multiple of `block_size`).
    pub su_depth: usize,
    /// Instructions per block (fetch width and commit granule).
    pub block_size: usize,
    /// Issue width (instructions per cycle).
    pub issue_width: usize,
    /// Writeback width (results per cycle).
    pub writeback_width: usize,
    /// Blocks examined by the flexible commit mux.
    pub commit_window_blocks: usize,
    /// Functional-unit complement.
    pub fu: FuConfig,
    /// Data-cache organization.
    pub cache_kind: CacheKind,
    /// Data-cache geometry and timing.
    pub cache: CacheConfig,
    /// Store-buffer capacity.
    pub store_buffer: usize,
    /// BTB entries.
    pub btb_entries: usize,
    /// Speculation-depth limit: a thread with this many unresolved
    /// conditional branches in flight stops fetching until one resolves
    /// (under True Round Robin its slot is wasted, like a suspension; the
    /// other policies skip it). 0 disables the limit.
    pub spec_depth: usize,
    /// Watchdog limit in cycles.
    pub max_cycles: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            threads: defaults::THREADS,
            fetch_policy: FetchPolicy::default(),
            predictor: PredictorKind::default(),
            fetch_width: defaults::FETCH_WIDTH,
            fetch_threads: defaults::FETCH_THREADS,
            commit_policy: CommitPolicy::default(),
            renaming: RenamingMode::default(),
            bypass: true,
            aligned_fetch: false,
            su_depth: defaults::SU_DEPTH,
            block_size: defaults::BLOCK_SIZE,
            issue_width: defaults::ISSUE_WIDTH,
            writeback_width: defaults::WRITEBACK_WIDTH,
            commit_window_blocks: defaults::COMMIT_WINDOW_BLOCKS,
            fu: FuConfig::paper_default(),
            cache_kind: CacheKind::SetAssociative,
            cache: CacheConfig::paper(CacheKind::SetAssociative),
            store_buffer: defaults::STORE_BUFFER,
            btb_entries: defaults::BTB_ENTRIES,
            spec_depth: defaults::SPEC_DEPTH,
            max_cycles: defaults::MAX_CYCLES,
        }
    }
}

/// Error from [`SimConfig::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl SimConfig {
    /// Sets the thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the fetch policy.
    #[must_use]
    pub fn with_fetch_policy(mut self, policy: FetchPolicy) -> Self {
        self.fetch_policy = policy;
        self
    }

    /// Sets the branch-predictor family.
    #[must_use]
    pub fn with_predictor(mut self, kind: PredictorKind) -> Self {
        self.predictor = kind;
        self
    }

    /// Sets the per-thread fetch-block width.
    #[must_use]
    pub fn with_fetch_width(mut self, width: usize) -> Self {
        self.fetch_width = width;
        self
    }

    /// Sets the number of threads fetched per cycle.
    #[must_use]
    pub fn with_fetch_threads(mut self, ports: usize) -> Self {
        self.fetch_threads = ports;
        self
    }

    /// Sets the commit policy.
    #[must_use]
    pub fn with_commit_policy(mut self, policy: CommitPolicy) -> Self {
        self.commit_policy = policy;
        self
    }

    /// Sets the dependence-tracking mode.
    #[must_use]
    pub fn with_renaming(mut self, renaming: RenamingMode) -> Self {
        self.renaming = renaming;
        self
    }

    /// Enables or disables result bypassing.
    #[must_use]
    pub fn with_bypass(mut self, bypass: bool) -> Self {
        self.bypass = bypass;
        self
    }

    /// Selects aligned or free fetch-block placement.
    #[must_use]
    pub fn with_aligned_fetch(mut self, aligned: bool) -> Self {
        self.aligned_fetch = aligned;
        self
    }

    /// Sets the scheduling-unit depth in entries.
    #[must_use]
    pub fn with_su_depth(mut self, entries: usize) -> Self {
        self.su_depth = entries;
        self
    }

    /// Sets the functional-unit complement.
    #[must_use]
    pub fn with_fu(mut self, fu: FuConfig) -> Self {
        self.fu = fu;
        self
    }

    /// Selects the cache organization (geometry follows the paper's 8 KB).
    #[must_use]
    pub fn with_cache_kind(mut self, kind: CacheKind) -> Self {
        self.cache_kind = kind;
        self.cache = CacheConfig::paper(kind);
        self
    }

    /// Overrides the cache geometry/timing directly.
    #[must_use]
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the store-buffer capacity.
    #[must_use]
    pub fn with_store_buffer(mut self, entries: usize) -> Self {
        self.store_buffer = entries;
        self
    }

    /// Sets the speculation-depth limit (0 = unlimited).
    #[must_use]
    pub fn with_spec_depth(mut self, depth: usize) -> Self {
        self.spec_depth = depth;
        self
    }

    /// Sets the watchdog limit.
    #[must_use]
    pub fn with_max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// Number of blocks the scheduling unit holds.
    #[must_use]
    pub fn su_blocks(&self) -> usize {
        self.su_depth / self.block_size
    }

    /// The structure capacities the trace instruments size their
    /// histograms from. `smt-trace` cannot see `SimConfig` without a
    /// dependency cycle, so the fields are copied over here.
    #[must_use]
    pub fn trace_shape(&self) -> smt_trace::MachineShape {
        smt_trace::MachineShape {
            width: (self.block_size * self.fetch_threads) as u32,
            su_depth: self.su_depth as u32,
            su_blocks: self.su_blocks() as u32,
            store_buffer: self.store_buffer as u32,
            mshrs: self.cache.mshrs as u32,
            threads: self.threads,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.threads == 0 || self.threads > MAX_THREADS {
            return Err(ConfigError(format!(
                "threads must be 1..={MAX_THREADS}, got {}",
                self.threads
            )));
        }
        if self.block_size == 0 {
            return Err(ConfigError("block_size must be positive".into()));
        }
        if self.su_depth == 0 || !self.su_depth.is_multiple_of(self.block_size) {
            return Err(ConfigError(format!(
                "su_depth {} must be a positive multiple of block_size {}",
                self.su_depth, self.block_size
            )));
        }
        if self.issue_width == 0 || self.writeback_width == 0 {
            return Err(ConfigError(
                "issue and writeback widths must be positive".into(),
            ));
        }
        if self.commit_window_blocks == 0 {
            return Err(ConfigError(
                "commit window must examine at least one block".into(),
            ));
        }
        if self.store_buffer == 0 {
            return Err(ConfigError(
                "store buffer must have at least one entry".into(),
            ));
        }
        if !self.btb_entries.is_power_of_two() {
            return Err(ConfigError(format!(
                "btb_entries {} must be a power of two",
                self.btb_entries
            )));
        }
        if self.fetch_width == 0 {
            return Err(ConfigError("fetch_width must be positive".into()));
        }
        if self.aligned_fetch && !self.fetch_width.is_power_of_two() {
            return Err(ConfigError(format!(
                "aligned fetch requires a power-of-two fetch_width, got {}",
                self.fetch_width
            )));
        }
        if self.fetch_threads == 0 || self.fetch_threads > self.threads {
            return Err(ConfigError(format!(
                "fetch_threads must be 1..=threads ({}), got {}",
                self.threads, self.fetch_threads
            )));
        }
        Ok(())
    }
}

/// Configuration-field identity registry for **warmup forking**.
///
/// A warm snapshot names the fields a forked run may change as a
/// list of these ids, and binds everything else with a hash of the
/// source configuration after [`canonicalize`] replaced every relaxed
/// field with its default. `Simulator::fork_warm` recomputes that hash
/// for the target configuration against the snapshot's own relaxed list:
/// two configurations pass iff they agree on every non-relaxed field.
///
/// `threads` deliberately has **no** id — the register-file partition,
/// per-thread memory segments, and program seeding all depend on it, so
/// a warm fork can never change the thread count.
pub mod warm {
    use super::SimConfig;

    /// `fetch_policy`.
    pub const FETCH_POLICY: u32 = 1;
    /// `predictor` (the family; the BTB geometry is [`BTB_ENTRIES`]).
    pub const PREDICTOR: u32 = 2;
    /// `fetch_width`.
    pub const FETCH_WIDTH: u32 = 3;
    /// `fetch_threads`.
    pub const FETCH_THREADS: u32 = 4;
    /// `commit_policy`.
    pub const COMMIT_POLICY: u32 = 5;
    /// `renaming`.
    pub const RENAMING: u32 = 6;
    /// `bypass`.
    pub const BYPASS: u32 = 7;
    /// `aligned_fetch`.
    pub const ALIGNED_FETCH: u32 = 8;
    /// `su_depth`.
    pub const SU_DEPTH: u32 = 9;
    /// `block_size`.
    pub const BLOCK_SIZE: u32 = 10;
    /// `issue_width`.
    pub const ISSUE_WIDTH: u32 = 11;
    /// `writeback_width`.
    pub const WRITEBACK_WIDTH: u32 = 12;
    /// `commit_window_blocks`.
    pub const COMMIT_WINDOW_BLOCKS: u32 = 13;
    /// `fu` (the whole functional-unit complement).
    pub const FU: u32 = 14;
    /// `cache_kind` + `cache` (organization and geometry together).
    pub const CACHE: u32 = 15;
    /// `store_buffer`.
    pub const STORE_BUFFER: u32 = 16;
    /// `btb_entries`.
    pub const BTB_ENTRIES: u32 = 17;
    /// `max_cycles` (the watchdog is not part of the machine).
    pub const MAX_CYCLES: u32 = 18;
    /// `spec_depth`.
    pub const SPEC_DEPTH: u32 = 19;

    /// Whether `id` names a field this build knows how to relax. A warm
    /// snapshot naming an unknown id (written by a newer build) fails
    /// closed instead of silently binding the wrong fields.
    #[must_use]
    pub fn is_known(id: u32) -> bool {
        (FETCH_POLICY..=SPEC_DEPTH).contains(&id)
    }

    /// Every relaxable field — the standard relaxation the sweep's
    /// warmup-fork store uses, leaving exactly `threads` bound.
    #[must_use]
    pub fn relax_all() -> Vec<u32> {
        (FETCH_POLICY..=SPEC_DEPTH).collect()
    }

    /// `config` with every relaxed field replaced by its default value.
    /// Unknown ids canonicalize nothing (callers reject them first; they
    /// still perturb [`identity`] through the relaxed list itself).
    #[must_use]
    pub fn canonicalize(config: &SimConfig, relaxed: &[u32]) -> SimConfig {
        let d = SimConfig::default();
        let mut c = config.clone();
        for &id in relaxed {
            match id {
                FETCH_POLICY => c.fetch_policy = d.fetch_policy,
                PREDICTOR => c.predictor = d.predictor,
                FETCH_WIDTH => c.fetch_width = d.fetch_width,
                FETCH_THREADS => c.fetch_threads = d.fetch_threads,
                COMMIT_POLICY => c.commit_policy = d.commit_policy,
                RENAMING => c.renaming = d.renaming,
                BYPASS => c.bypass = d.bypass,
                ALIGNED_FETCH => c.aligned_fetch = d.aligned_fetch,
                SU_DEPTH => c.su_depth = d.su_depth,
                BLOCK_SIZE => c.block_size = d.block_size,
                ISSUE_WIDTH => c.issue_width = d.issue_width,
                WRITEBACK_WIDTH => c.writeback_width = d.writeback_width,
                COMMIT_WINDOW_BLOCKS => c.commit_window_blocks = d.commit_window_blocks,
                FU => c.fu = d.fu,
                CACHE => {
                    c.cache_kind = d.cache_kind;
                    c.cache = d.cache;
                }
                STORE_BUFFER => c.store_buffer = d.store_buffer,
                BTB_ENTRIES => c.btb_entries = d.btb_entries,
                MAX_CYCLES => c.max_cycles = d.max_cycles,
                SPEC_DEPTH => c.spec_depth = d.spec_depth,
                _ => {}
            }
        }
        c
    }

    /// The warm identity hash: a stable digest of the canonicalized
    /// configuration *and* the relaxed list itself, so editing the list
    /// changes the hash along with the fields it unbinds.
    #[must_use]
    pub fn identity(config: &SimConfig, relaxed: &[u32]) -> u64 {
        smt_checkpoint::stable_hash(&(canonicalize(config, relaxed), relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.fetch_policy, FetchPolicy::TrueRoundRobin);
        assert_eq!(cfg.predictor, PredictorKind::SharedBtb);
        assert_eq!(cfg.fetch_width, 4);
        assert_eq!(cfg.fetch_threads, 1);
        assert_eq!(cfg.commit_policy, CommitPolicy::Flexible);
        assert_eq!(cfg.su_depth, 32);
        assert_eq!(cfg.su_blocks(), 8);
        assert_eq!(cfg.issue_width, 8);
        assert_eq!(cfg.writeback_width, 8);
        assert_eq!(cfg.store_buffer, 8);
        assert!(cfg.bypass);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builder_methods_chain() {
        let cfg = SimConfig::default()
            .with_threads(6)
            .with_commit_policy(CommitPolicy::LowestOnly)
            .with_su_depth(64)
            .with_bypass(false);
        assert_eq!(cfg.threads, 6);
        assert_eq!(cfg.su_blocks(), 16);
        assert!(!cfg.bypass);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn trace_shape_mirrors_the_config() {
        let shape = SimConfig::default().with_threads(6).trace_shape();
        assert_eq!(shape.width, 4);
        assert_eq!(shape.su_depth, 32);
        assert_eq!(shape.su_blocks, 8);
        assert_eq!(shape.store_buffer, 8);
        assert_eq!(shape.mshrs, 1);
        assert_eq!(shape.threads, 6);
    }

    #[test]
    fn cache_kind_switches_geometry() {
        let cfg = SimConfig::default().with_cache_kind(CacheKind::DirectMapped);
        assert_eq!(cfg.cache.ways, 1);
        assert_eq!(cfg.cache.size_bytes, 8 * 1024);
    }

    #[test]
    fn validation_catches_inconsistencies() {
        assert!(SimConfig::default().with_threads(0).validate().is_err());
        assert!(SimConfig::default().with_threads(9).validate().is_err());
        assert!(SimConfig::default().with_threads(8).validate().is_ok());
        assert!(SimConfig::default().with_su_depth(30).validate().is_err());
        assert!(SimConfig::default()
            .with_store_buffer(0)
            .validate()
            .is_err());
        let cfg = SimConfig {
            btb_entries: 300,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn front_end_knobs_validate() {
        assert!(SimConfig::default().with_fetch_width(0).validate().is_err());
        assert!(SimConfig::default().with_fetch_width(6).validate().is_ok());
        assert!(SimConfig::default()
            .with_aligned_fetch(true)
            .with_fetch_width(6)
            .validate()
            .is_err());
        assert!(SimConfig::default()
            .with_aligned_fetch(true)
            .with_fetch_width(8)
            .validate()
            .is_ok());
        assert!(SimConfig::default()
            .with_fetch_threads(0)
            .validate()
            .is_err());
        assert!(SimConfig::default()
            .with_threads(1)
            .with_fetch_threads(2)
            .validate()
            .is_err());
        assert!(SimConfig::default()
            .with_fetch_threads(2)
            .with_predictor(PredictorKind::Gshare)
            .with_fetch_policy(FetchPolicy::Icount)
            .validate()
            .is_ok());
    }

    #[test]
    fn two_ported_fetch_widens_the_trace_shape() {
        let shape = SimConfig::default().with_fetch_threads(2).trace_shape();
        assert_eq!(shape.width, 8, "slot bandwidth doubles with two ports");
    }

    #[test]
    fn spec_depth_defaults_off_and_chains() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.spec_depth, 0, "paper machine: unlimited speculation");
        let cfg = cfg.with_spec_depth(2);
        assert_eq!(cfg.spec_depth, 2);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn warm_identity_binds_exactly_the_non_relaxed_fields() {
        let base = SimConfig::default();
        let relaxed = warm::relax_all();
        let id = warm::identity(&base, &relaxed);
        // Any relaxed field may differ without changing the identity.
        let variant = base
            .clone()
            .with_su_depth(64)
            .with_fetch_policy(FetchPolicy::Icount)
            .with_predictor(PredictorKind::Gshare)
            .with_cache_kind(CacheKind::DirectMapped)
            .with_spec_depth(3);
        assert_eq!(warm::identity(&variant, &relaxed), id);
        // The non-relaxed field (threads) must not.
        let other = base.clone().with_threads(2);
        assert_ne!(warm::identity(&other, &relaxed), id);
        // A shorter relaxed list re-binds the dropped fields…
        let partial: Vec<u32> = relaxed
            .iter()
            .copied()
            .filter(|&f| f != warm::SU_DEPTH)
            .collect();
        assert_ne!(
            warm::identity(&base.clone().with_su_depth(64), &partial),
            warm::identity(&base, &partial),
            "su_depth binds once it is not relaxed"
        );
        // …and the list itself is part of the identity.
        assert_ne!(
            warm::identity(&base, &partial),
            warm::identity(&base, &relaxed)
        );
    }

    #[test]
    fn warm_ids_are_known_and_complete() {
        for id in warm::relax_all() {
            assert!(warm::is_known(id));
        }
        assert!(!warm::is_known(0));
        assert!(!warm::is_known(warm::SPEC_DEPTH + 1));
    }

    #[test]
    fn display_strings() {
        assert_eq!(FetchPolicy::TrueRoundRobin.to_string(), "True Round Robin");
        assert_eq!(
            CommitPolicy::LowestOnly.to_string(),
            "Lower-most block only"
        );
        assert_eq!(RenamingMode::Scoreboard.to_string(), "scoreboarding");
    }
}
