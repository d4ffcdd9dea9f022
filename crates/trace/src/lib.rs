//! # smt-trace — zero-cost pipeline observability
//!
//! Instrumentation layer for the SMT superscalar simulator: per-instruction
//! lifecycle tracing, CPI-stack stall attribution, and per-cycle occupancy
//! telemetry. The simulator emits [`TraceEvent`]s into any [`TraceSink`];
//! when no sink is installed the event path compiles away entirely, so the
//! cycle-exact golden traces and the simulator's throughput are untouched.
//!
//! ## Module map
//!
//! | module | contents |
//! |--------|----------|
//! | [`event`] | [`TraceEvent`], [`TraceSink`], the [`SlotCause`] leaf taxonomy |
//! | [`lifecycle`] | [`LifecycleRecorder`] — bounded ring of per-instruction [`InsnRecord`]s |
//! | [`cpi`] | [`CpiStack`] accountant → [`CpiBreakdown`] (components sum to `width × cycles` exactly) |
//! | [`occupancy`] | [`OccupancyStats`] — structure-fill histograms + bounded raw series |
//! | [`hist`] | [`Histogram`] — fixed-size bounded histogram with mean/quantiles |
//! | [`tracer`] | [`Tracer`] — all three instruments behind one fan-out sink |
//! | [`export`] | Konata pipeline-viewer text and Chrome `trace_event` JSON |
//!
//! ## Slot accounting contract
//!
//! Every cycle the decode stage disposes of exactly `width` slots: each is
//! either a [`TraceEvent::Decoded`] instruction (whose slot's fate resolves
//! later, at retire or squash) or part of a [`TraceEvent::SlotsLost`] with a
//! leaf [`SlotCause`]. The [`CpiStack`] therefore balances by construction —
//! `Σ slots == width × cycles` — and a unit test plus an integration matrix
//! over every workload × policy × thread count enforce it.
//!
//! Like the rest of the workspace this crate has **zero external
//! dependencies**: the exporters hand-roll their tiny JSON/text emitters.

pub mod cpi;
pub mod event;
pub mod export;
pub mod hist;
pub mod lifecycle;
pub mod occupancy;
pub mod tracer;

pub use cpi::{CpiBreakdown, CpiStack};
pub use event::{DecodedSlot, MemKind, Occupancy, RetireKind, SlotCause, TraceEvent, TraceSink};
pub use hist::Histogram;
pub use lifecycle::{Fate, InsnRecord, LifecycleRecorder, NEVER};
pub use occupancy::OccupancyStats;
pub use tracer::{MachineShape, Tracer};
