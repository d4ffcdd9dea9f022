//! The paper's eleven benchmarks, written for the SDSP-like ISA in the
//! *homogeneous multitasking* style: every thread executes the same code on
//! a different partition of the data, distinguished only by the `tid`
//! register seeded at reset (Section 4 of the paper).
//!
//! **Group I** is the six Livermore loops; **Group II** is Laplace, MPD,
//! Matrix, Sieve, and Water. The OCR of the paper lost the loop numbers
//! (only LL7 survives), so LL1/LL2/LL3/LL5/LL7/LL12 were chosen to match
//! the stated selection criterion — "varying amounts of data parallelism,
//! and of different granularity" — with LL5 carrying the cross-iteration
//! dependence that requires explicit synchronization (the benchmark the
//! paper singles out as degrading under many threads). See DESIGN.md.
//!
//! Every workload carries a *checker* that validates the architectural
//! memory produced by a run against a plain-Rust reference implementation
//! performing the identical arithmetic, so both the functional interpreter
//! and the cycle simulator are verified end to end.
//!
//! ```
//! use smt_workloads::{workload, Scale, WorkloadKind};
//! use smt_isa::interp::Interp;
//!
//! let w = workload(WorkloadKind::Matrix, Scale::Test);
//! let program = w.build(2)?;
//! let mut interp = Interp::new(&program, 2);
//! interp.run()?;
//! w.check(interp.mem_words())?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod common;
pub mod laplace;
pub mod livermore;
pub mod matrix;
pub mod mpd;
pub mod sieve;
pub mod water;

use std::fmt;

use smt_isa::builder::{BuildError, ProgramBuilder};
use smt_isa::Program;

pub use common::{CheckError, MemView};

/// The two benchmark groups of Section 5.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Group {
    /// Livermore loops.
    I,
    /// Laplace, MPD, Matrix, Sieve, Water.
    II,
}

impl fmt::Display for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Group::I => f.write_str("Group I (Livermore loops)"),
            Group::II => f.write_str("Group II"),
        }
    }
}

/// Identifies one of the eleven benchmarks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WorkloadKind {
    /// Livermore loop 1 — hydro fragment (fully parallel).
    Ll1,
    /// Livermore loop 2 — ICCG-style strided gather (simplified; see docs).
    Ll2,
    /// Livermore loop 3 — inner product (parallel reduction + combine).
    Ll3,
    /// Livermore loop 5 — tri-diagonal elimination (serial chain, explicit
    /// synchronization).
    Ll5,
    /// Livermore loop 7 — equation of state (FLOP-dense, fully parallel).
    Ll7,
    /// Livermore loop 12 — first difference (memory-bound).
    Ll12,
    /// Jacobi relaxation on a 2-D grid with per-iteration barriers.
    Laplace,
    /// Particle advection with irregular table lookups (MP3D stand-in).
    Mpd,
    /// Dense matrix multiply.
    Matrix,
    /// Sieve of Eratosthenes (benign write races, deterministic memory).
    Sieve,
    /// O(N²) pairwise forces + integration with a barrier (Water stand-in).
    Water,
}

impl WorkloadKind {
    /// All eleven benchmarks, Group I first.
    pub const ALL: [WorkloadKind; 11] = [
        WorkloadKind::Ll1,
        WorkloadKind::Ll2,
        WorkloadKind::Ll3,
        WorkloadKind::Ll5,
        WorkloadKind::Ll7,
        WorkloadKind::Ll12,
        WorkloadKind::Laplace,
        WorkloadKind::Mpd,
        WorkloadKind::Matrix,
        WorkloadKind::Sieve,
        WorkloadKind::Water,
    ];

    /// Display name, matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Ll1 => "LL1",
            WorkloadKind::Ll2 => "LL2",
            WorkloadKind::Ll3 => "LL3",
            WorkloadKind::Ll5 => "LL5",
            WorkloadKind::Ll7 => "LL7",
            WorkloadKind::Ll12 => "LL12",
            WorkloadKind::Laplace => "Laplace",
            WorkloadKind::Mpd => "MPD",
            WorkloadKind::Matrix => "Matrix",
            WorkloadKind::Sieve => "Sieve",
            WorkloadKind::Water => "Water",
        }
    }

    /// The benchmark whose [`name`](Self::name) is `name`, ignoring ASCII
    /// case (`ll7`, `MATRIX`, …).
    #[must_use]
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Which benchmark group the workload belongs to.
    #[must_use]
    pub fn group(self) -> Group {
        match self {
            WorkloadKind::Ll1
            | WorkloadKind::Ll2
            | WorkloadKind::Ll3
            | WorkloadKind::Ll5
            | WorkloadKind::Ll7
            | WorkloadKind::Ll12 => Group::I,
            _ => Group::II,
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Problem sizes: small for fast unit tests, paper-scale for experiments.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Scale {
    /// Tiny inputs for test suites.
    Test,
    /// Evaluation-scale inputs used by the experiment harness.
    #[default]
    Paper,
}

type CheckFn = Box<dyn Fn(&[u64]) -> Result<(), CheckError> + Send + Sync>;

/// A benchmark: emitted kernel code plus a result checker.
///
/// The same `Workload` builds for any thread count (homogeneous
/// multitasking: the code partitions itself at runtime via `tid` and
/// `nthreads`).
pub struct Workload {
    kind: WorkloadKind,
    builder: ProgramBuilder,
    checker: CheckFn,
}

impl Workload {
    /// Assembles a workload from emitted code and its checker. Used by the
    /// per-benchmark constructors.
    #[must_use]
    pub fn from_parts(kind: WorkloadKind, builder: ProgramBuilder, checker: CheckFn) -> Self {
        Workload {
            kind,
            builder,
            checker,
        }
    }

    /// Which benchmark this is.
    #[must_use]
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Benchmark group.
    #[must_use]
    pub fn group(&self) -> Group {
        self.kind.group()
    }

    /// Links the kernel for an `n_threads` register partition.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] — in practice only if a kernel ever
    /// exceeded the 6-thread register window (the test suite builds every
    /// kernel at 6 threads to prove none does).
    pub fn build(&self, n_threads: usize) -> Result<Program, BuildError> {
        self.builder.build(n_threads)
    }

    /// Validates the architectural memory of a completed run against the
    /// plain-Rust reference implementation.
    ///
    /// # Errors
    ///
    /// [`CheckError`] describing the first mismatching location.
    pub fn check(&self, mem_words: &[u64]) -> Result<(), CheckError> {
        (self.checker)(mem_words)
    }
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

/// Constructs one benchmark at the given scale.
#[must_use]
pub fn workload(kind: WorkloadKind, scale: Scale) -> Workload {
    match kind {
        WorkloadKind::Ll1 => livermore::ll1(scale),
        WorkloadKind::Ll2 => livermore::ll2(scale),
        WorkloadKind::Ll3 => livermore::ll3(scale),
        WorkloadKind::Ll5 => livermore::ll5(scale),
        WorkloadKind::Ll7 => livermore::ll7(scale),
        WorkloadKind::Ll12 => livermore::ll12(scale),
        WorkloadKind::Laplace => laplace::laplace(scale),
        WorkloadKind::Mpd => mpd::mpd(scale),
        WorkloadKind::Matrix => matrix::matrix(scale),
        WorkloadKind::Sieve => sieve::sieve(scale),
        WorkloadKind::Water => water::water(scale),
    }
}

/// All eleven benchmarks at the given scale.
#[must_use]
pub fn suite(scale: Scale) -> Vec<Workload> {
    WorkloadKind::ALL
        .iter()
        .map(|&k| workload(k, scale))
        .collect()
}

/// The Group-I (Livermore) benchmarks.
#[must_use]
pub fn group_i(scale: Scale) -> Vec<Workload> {
    suite(scale)
        .into_iter()
        .filter(|w| w.group() == Group::I)
        .collect()
}

/// The Group-II benchmarks.
#[must_use]
pub fn group_ii(scale: Scale) -> Vec<Workload> {
    suite(scale)
        .into_iter()
        .filter(|w| w.group() == Group::II)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::interp::Interp;

    #[test]
    fn groups_partition_the_suite() {
        assert_eq!(group_i(Scale::Test).len(), 6);
        assert_eq!(group_ii(Scale::Test).len(), 5);
        assert_eq!(suite(Scale::Test).len(), 11);
    }

    #[test]
    fn every_kernel_fits_the_six_thread_register_window() {
        for w in suite(Scale::Test) {
            w.build(6).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        }
    }

    #[test]
    fn every_kernel_is_correct_on_the_reference_interpreter() {
        for w in suite(Scale::Test) {
            for threads in [1, 2, 3, 6] {
                let program = w.build(threads).unwrap();
                let mut interp = Interp::new(&program, threads);
                interp
                    .run()
                    .unwrap_or_else(|e| panic!("{} × {threads} threads: {e}", w.name()));
                w.check(interp.mem_words())
                    .unwrap_or_else(|e| panic!("{} × {threads} threads: {e}", w.name()));
            }
        }
    }

    #[test]
    fn names_and_groups_are_stable() {
        assert_eq!(WorkloadKind::Ll5.name(), "LL5");
        assert_eq!(WorkloadKind::Ll5.group(), Group::I);
        assert_eq!(WorkloadKind::Water.group(), Group::II);
        assert_eq!(WorkloadKind::ALL.len(), 11);
    }
}
