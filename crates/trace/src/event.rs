//! The trace event stream: what the simulator tells an installed
//! [`TraceSink`] about every pipeline-visible thing that happens.
//!
//! The event model is built around one accounting discipline, chosen so the
//! CPI-stack invariant holds *by construction* rather than by correlation:
//!
//! * **Every cycle the decoder disposes of exactly
//!   `block_size × fetch_threads` slots** — `block_size` per decode lane,
//!   one lane per fetch port. Each slot either admits an instruction into
//!   the scheduling unit ([`TraceEvent::Decoded`]) or is lost to a
//!   classified cause ([`TraceEvent::SlotsLost`]). An empty frontend, a
//!   full scheduling unit, a scoreboard retry, and a short decode group
//!   all emit their missing slots with the cause in effect that cycle.
//! * **Every decoded instruction leaves the window exactly once**, via
//!   [`TraceEvent::Retired`] (architectural commit, a discarded `WAIT`
//!   spin poll, or the fault that aborts the run) or
//!   [`TraceEvent::Squashed`] (wrong-path discard). Its slot's final
//!   classification is deferred until that moment.
//!
//! Summing admitted-slot fates and lost slots therefore reproduces
//! `width × cycles` exactly — see [`crate::cpi::CpiStack`].
//!
//! Identity: every instruction that enters the scheduling unit gets a
//! monotonically increasing `uid`, assigned at decode. Instructions fetched
//! but never decoded (wrong-path fetch groups discarded by a squash, dead
//! slots after a jump) have no uid and produce no events.

use smt_isa::{DecodedInsn, FuClass, MAX_THREADS};

/// Cause classification for one slot of frontend/commit bandwidth.
///
/// The taxonomy refines the coarse "SU full" of the paper's stall
/// accounting into the *reason the head block cannot drain*, probed at
/// decode time — decode runs after this cycle's issue/writeback/commit, so
/// the head block's state is fully up to date when classified.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum SlotCause {
    /// The slot carried an instruction that architecturally committed.
    Committed,
    /// Decode group shorter than the machine width: a taken-branch
    /// truncated fetch group, dead slots after a jump/`WAIT`/`halt`, or a
    /// text-segment boundary.
    Fragment,
    /// No block at the decoder: the selected thread could not fetch, every
    /// thread is drained/masked, or the slot was wasted on a non-fetchable
    /// thread (True Round Robin).
    FetchStarved,
    /// Synchronization wait: the frontend is idle because every unretired
    /// thread is suspended on a `WAIT`, the head of the window is an
    /// unfinished sync primitive, or the slot carried a `WAIT` poll that
    /// retired as a spin.
    SyncWait,
    /// Scheduling unit full with the head block still waiting on a source
    /// operand — or a scoreboard-mode decode retry.
    OperandWait,
    /// Scheduling unit full with the head block ready to issue but its
    /// functional-unit class occupied, or executing a long-latency op.
    FuBusy,
    /// Scheduling unit full with the head block executing a load whose data
    /// missed in the data cache.
    DCacheMiss,
    /// Scheduling unit full with the head block's load shut out of the
    /// cache: the refill slot (MSHR) is busy with another line.
    DCachePort,
    /// Scheduling unit full with the head block's memory access held by the
    /// restricted load/store ordering policy (an older same-thread
    /// store/sync has not resolved).
    MemOrder,
    /// Scheduling unit full with the head block fully executed but its
    /// stores unable to enter the full store buffer.
    StoreBufFull,
    /// Scheduling unit full with the head block fully executed and the
    /// store buffer free: commit bandwidth itself (one block per cycle) is
    /// the limit.
    SuFull,
    /// The slot carried an instruction later discarded on the wrong path of
    /// a mispredicted branch.
    SquashDiscard,
    /// The slot carried an instruction still in flight when the run ended —
    /// zero on a run that drains, non-zero only on aborted/truncated runs.
    InFlight,
}

impl SlotCause {
    /// Every cause, in display order (committed first, losses after).
    pub const ALL: [SlotCause; 13] = [
        SlotCause::Committed,
        SlotCause::Fragment,
        SlotCause::FetchStarved,
        SlotCause::SyncWait,
        SlotCause::OperandWait,
        SlotCause::FuBusy,
        SlotCause::DCacheMiss,
        SlotCause::DCachePort,
        SlotCause::MemOrder,
        SlotCause::StoreBufFull,
        SlotCause::SuFull,
        SlotCause::SquashDiscard,
        SlotCause::InFlight,
    ];

    /// Number of causes (array-sizing constant).
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index of this cause in [`SlotCause::ALL`].
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short stable name for tables and exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SlotCause::Committed => "committed",
            SlotCause::Fragment => "fragment",
            SlotCause::FetchStarved => "fetch-starved",
            SlotCause::SyncWait => "sync-wait",
            SlotCause::OperandWait => "operand-wait",
            SlotCause::FuBusy => "fu-busy",
            SlotCause::DCacheMiss => "dcache-miss",
            SlotCause::DCachePort => "dcache-port",
            SlotCause::MemOrder => "mem-order",
            SlotCause::StoreBufFull => "storebuf-full",
            SlotCause::SuFull => "su-full",
            SlotCause::SquashDiscard => "squash-discard",
            SlotCause::InFlight => "in-flight",
        }
    }
}

impl std::fmt::Display for SlotCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a load's (or other memory access's) data was sourced at issue.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MemKind {
    /// Not a data-memory access, or the access faulted speculatively.
    #[default]
    None,
    /// Data-cache hit.
    Hit,
    /// Data-cache miss: a refill was started for this access.
    Miss,
    /// Hit on a line already being refilled (no new memory traffic, but
    /// data arrives at refill time).
    PendingHit,
    /// Store-to-load forwarding from a resident or buffered store; the
    /// cache was bypassed entirely.
    Forwarded,
}

impl MemKind {
    /// Short stable name for exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MemKind::None => "-",
            MemKind::Hit => "hit",
            MemKind::Miss => "miss",
            MemKind::PendingHit => "pending-hit",
            MemKind::Forwarded => "forwarded",
        }
    }
}

/// Why an instruction left the scheduling unit through the commit stage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RetireKind {
    /// Architectural commit: register/memory effects landed.
    Arch,
    /// A `WAIT` poll that found its condition unsatisfied: discarded and
    /// refetched (a later poll gets a fresh uid).
    Spin,
    /// The memory fault that aborts the run; no architectural effect.
    Fault,
}

/// One instruction admitted into the scheduling unit, observed at decode.
#[derive(Clone, Copy, Debug)]
pub struct DecodedSlot {
    /// Monotone per-run instruction identity, assigned at decode.
    pub uid: u64,
    /// Owning thread.
    pub tid: usize,
    /// Program counter.
    pub pc: usize,
    /// The predecoded instruction (displays as its disassembly).
    pub insn: DecodedInsn,
    /// Scheduling-unit block id the instruction entered.
    pub block: u64,
    /// Entry index within the block.
    pub entry: usize,
    /// Cycle the instruction's fetch group was fetched.
    pub fetched_at: u64,
}

/// Machine occupancy at the end of one cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Occupancy {
    /// Scheduling-unit entries resident.
    pub su_entries: u32,
    /// Scheduling-unit blocks resident.
    pub su_blocks: u32,
    /// Store-buffer entries occupied.
    pub store_buffer: u32,
    /// Data-cache line refills in flight.
    pub outstanding_misses: u32,
    /// Whether a fetched block is parked at the decoder.
    pub fetch_buffer: bool,
    /// Scheduling-unit entries per thread (indices ≥ thread count are 0).
    pub resident: [u32; MAX_THREADS],
}

/// One pipeline-visible event.
///
/// Borrowed payloads keep the disabled path allocation-free: the simulator
/// builds the event on the stack only when a sink is installed.
#[derive(Debug)]
pub enum TraceEvent<'a> {
    /// An instruction entered the scheduling unit.
    Decoded {
        /// Cycle of the decode.
        cycle: u64,
        /// The admitted instruction.
        slot: &'a DecodedSlot,
    },
    /// `slots` units of this cycle's decode bandwidth were lost to `cause`.
    SlotsLost {
        /// Cycle the loss occurred.
        cycle: u64,
        /// Classified cause.
        cause: SlotCause,
        /// Number of slots lost (1..=block_size).
        slots: u32,
    },
    /// An instruction issued to a functional unit.
    Issued {
        /// Cycle of the issue.
        cycle: u64,
        /// Instruction identity.
        uid: u64,
        /// Functional-unit class it issued to.
        fu: FuClass,
        /// Cycle its result becomes available.
        done_at: u64,
        /// How memory data was sourced, for loads.
        mem: MemKind,
    },
    /// An instruction's result was written back (entry is `Done`).
    Completed {
        /// Cycle of the writeback.
        cycle: u64,
        /// Instruction identity.
        uid: u64,
    },
    /// An instruction left through the commit stage.
    Retired {
        /// Cycle of the commit.
        cycle: u64,
        /// Instruction identity.
        uid: u64,
        /// Architectural, spin, or fault.
        kind: RetireKind,
    },
    /// An instruction was discarded as wrong-path.
    Squashed {
        /// Cycle of the squash.
        cycle: u64,
        /// Instruction identity.
        uid: u64,
    },
    /// End-of-cycle marker with machine occupancy.
    CycleEnd {
        /// The cycle that just finished.
        cycle: u64,
        /// Occupancy snapshot.
        occ: &'a Occupancy,
    },
}

/// Observer of the pipeline event stream.
///
/// Every sink is an `smt_core::Observer`, so it observes the machine and
/// cannot perturb it; a run with any sink installed is bit-identical to one
/// without (pinned by the cycle-exactness goldens).
pub trait TraceSink {
    /// Whether the simulator builds events for this sink. Only the `()`
    /// sink clears it; the simulator reads it at compile time, so an
    /// untraced run skips every trace-only computation.
    const ENABLED: bool = true;

    /// Called once per event, in pipeline order within each cycle
    /// (commit → writeback → issue → decode, then the cycle-end marker).
    fn event(&mut self, ev: &TraceEvent<'_>);
}

/// The "no sink" sink: receives nothing, because it disables event
/// construction altogether.
impl TraceSink for () {
    const ENABLED: bool = false;

    fn event(&mut self, _ev: &TraceEvent<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_indices_are_dense_and_stable() {
        for (i, c) in SlotCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(SlotCause::COUNT, 13);
        assert_eq!(SlotCause::Committed.index(), 0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = SlotCause::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SlotCause::COUNT);
    }
}
