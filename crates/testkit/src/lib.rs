//! Property-testing and fuzzing support, free of external dependencies.
//!
//! The build container has no access to crates.io, so the repository's
//! randomized differential tests run on this tiny deterministic generator
//! instead of `proptest`/`rand`. Tests iterate over a fixed seed range —
//! every failure is reproducible from its seed alone, which the
//! [`cases`] runner prints on panic.
//!
//! On top of the [`Rng`] sit the differential-fuzzing pieces: [`progen`]
//! generates constrained-random SPMD programs from a seed, and [`shrink`]
//! greedily minimizes a failing configuration, so a fuzzer repro is always
//! just `(seed, segment mask)`. [`assert_refused`] checks how a binary
//! refuses a malformed command line.
//!
//! ```
//! use smt_testkit::Rng;
//!
//! let mut rng = Rng::new(7);
//! let die = rng.below(6) + 1;
//! assert!((1..=6).contains(&die));
//! // Same seed, same stream.
//! assert_eq!(Rng::new(7).next_u64(), Rng::new(7).next_u64());
//! ```

pub mod netfuzz;
pub mod progen;
pub mod shrink;

/// SplitMix64: tiny, fast, and statistically solid for test-case generation
/// (it seeds xoshiro in the reference implementations).
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Multiply-shift rejection-free mapping; bias is < 2^-64 * n, far
        // below anything a test-case generator can observe.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform value in the half-open range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo.wrapping_add(self.below(hi.abs_diff(lo)) as i64)
    }

    /// Uniform `usize` in `lo..hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_i64(lo as i64, hi as i64) as usize
    }

    /// Fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniformly picks an element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// Copy-out variant of [`pick`](Self::pick) for `Copy` types.
    pub fn pick_copy<T: Copy>(&mut self, xs: &[T]) -> T {
        *self.pick(xs)
    }
}

/// Runs `body` for seeds `0..cases`, labelling any panic with the failing
/// seed so it can be replayed in isolation.
pub fn cases(cases: u64, mut body: impl FnMut(&mut Rng)) {
    for seed in 0..cases {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = Rng::new(seed);
            body(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("property failed at seed {seed} of {cases}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Runs `command` (a workspace binary) and asserts that it refused its
/// command line the way every binary must: exit code 2 and exactly one
/// stderr line, which contains `culprit`, with no panic. Returns that line.
///
/// # Panics
///
/// Panics when the binary cannot be run or did anything else.
pub fn assert_refused(command: &mut std::process::Command, culprit: &str) -> String {
    let output = command.output().expect("the binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    let context = format!("{command:?}: {stderr:?}");
    assert_eq!(output.status.code(), Some(2), "{context}");
    assert_eq!(stderr.lines().count(), 1, "{context}");
    assert!(stderr.contains(culprit), "no `{culprit}` in {context}");
    assert!(!stderr.contains("panicked"), "{context}");
    stderr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = Rng::new(43).next_u64();
        assert_ne!(a[0], c, "different seeds diverge");
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut r = Rng::new(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached");
    }

    #[test]
    fn signed_ranges() {
        let mut r = Rng::new(2);
        for _ in 0..1000 {
            let v = r.range_i64(-64, 64);
            assert!((-64..64).contains(&v));
        }
    }

    #[test]
    fn case_runner_reports_seed() {
        let caught = std::panic::catch_unwind(|| {
            cases(10, |rng| {
                // Fails on some seed quickly.
                assert!(rng.below(4) != 3, "forced failure");
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn pick_covers_slice() {
        let mut r = Rng::new(3);
        let xs = [10, 20, 30];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(r.pick_copy(&xs));
        }
        assert_eq!(seen.len(), 3);
    }
}
