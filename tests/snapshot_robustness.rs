//! Snapshot decoding is bounded by the configuration, never by the bytes.
//!
//! Two properties, under a global allocator that counts allocation events
//! and refuses any single request above 64 MiB (the process then aborts
//! with "memory allocation failed", which fails this binary):
//!
//! * one `Simulator::restore` makes a small, thread-count-independent
//!   number of allocation events — it builds each component once — one
//!   `Simulator::restore_into` on a machine that has run makes none, and
//!   one `checkpoint` + `to_bytes` makes at most four: the encode buffer,
//!   the identity vector, the memory-delta baseline and the wire buffer;
//! * every single-bit flip of a real snapshot is a typed decode error;
//! * well-checksummed garbage never panics: payload bytes are overwritten
//!   and the checksum re-sealed, so every mutation reaches the
//!   component decoders, and `Snapshot::from_bytes` +
//!   `Simulator::restore_mix` must return a typed error or a machine that
//!   steps 300 cycles without panicking. `restore_into` must agree, and
//!   its typed error must leave the machine exactly as cold as a fresh
//!   `Simulator::try_new_mix`.
//!
//! This lives in its own integration-test binary because
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use smt_checkpoint::DecodeError;
use smt_superscalar::core::{FetchPolicy, PredictorKind, SimConfig, Simulator, Snapshot};
use smt_superscalar::isa::Program;
use smt_testkit::progen::{GenConfig, MixPlan, Plan};
use smt_testkit::Rng;

/// The largest single allocation any test here may request. Paper-scale
/// machines need well under a megabyte per component; a request this
/// large can only come from a length word the decoder failed to bound.
const MAX_REQUEST: usize = 64 << 20;

/// Counts allocation events (alloc + realloc) and refuses oversized
/// requests; frees are not interesting.
struct GuardedAlloc;

thread_local! {
    /// Per-thread count: the harness runs tests on parallel threads, and
    /// one test's work must not count against another's window.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for GuardedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        if layout.size() > MAX_REQUEST {
            return std::ptr::null_mut();
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        if new_size > MAX_REQUEST {
            return std::ptr::null_mut();
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: GuardedAlloc = GuardedAlloc;

/// Allocation events one `Simulator::restore` may make, at any thread
/// count and under every predictor family.
const RESTORE_ALLOC_BOUND: u64 = 100;

/// Allocation events one `Simulator::restore_into` may make on a machine
/// that has already run, at any thread count and under every predictor
/// family: every component decodes into storage it already owns.
const RESTORE_INTO_ALLOC_BOUND: u64 = 0;

/// Allocation events one `checkpoint()` + `to_bytes()` may make together,
/// homogeneous or mix, at any thread count and under every predictor
/// family: one per buffer.
const ENCODE_ALLOC_BOUND: u64 = 4;

/// A generated fuzz program for `threads` threads.
fn generated(seed: u64, threads: usize) -> Program {
    Plan::generate(seed, &GenConfig::default())
        .build_full(threads)
        .expect("generated plans fit every thread count")
}

/// Steps `sim` `cycles` cycles (or until it finishes) and returns its
/// snapshot's wire bytes.
fn snapshot_bytes(sim: &mut Simulator<'_>, cycles: u64) -> Vec<u8> {
    for _ in 0..cycles {
        if sim.finished() || sim.step().is_err() {
            break;
        }
    }
    sim.checkpoint().to_bytes()
}

#[test]
fn restore_makes_a_bounded_number_of_allocations() {
    let mut worst = 0;
    for threads in [1, 2, 4, 8] {
        let program = generated(0xa110c, threads);
        for predictor in PredictorKind::ALL {
            let config = SimConfig::default()
                .with_threads(threads)
                .with_predictor(predictor);
            let mut sim = Simulator::new(config.clone(), &program);
            while sim.cycle() < 100 || sim.is_quiescent() {
                assert!(!sim.finished(), "blocks must be in flight");
                sim.step().expect("prefix steps complete");
            }
            let snap = Snapshot::from_bytes(&sim.checkpoint().to_bytes()).expect("round trip");
            let before = ALLOCS.with(Cell::get);
            let back = Simulator::restore(config, &program, &snap).expect("snapshot restores");
            let n = ALLOCS.with(Cell::get) - before;
            drop(back);
            println!("{threads} threads, {predictor}: {n} allocation events per restore");
            worst = worst.max(n);
        }
    }
    assert!(
        worst <= RESTORE_ALLOC_BOUND,
        "a restore made {worst} allocation events (bound {RESTORE_ALLOC_BOUND})"
    );
}

#[test]
fn restore_into_a_machine_that_has_run_allocates_nothing() {
    let mut worst = 0;
    for threads in [1, 2, 4, 8] {
        let uniform = vec![generated(0xa110c, threads)];
        let mix = (threads > 1).then(|| {
            MixPlan::generate(0xa110c, threads, &GenConfig::default())
                .build_full()
                .expect("generated mixes fit")
        });
        for programs in std::iter::once(uniform).chain(mix) {
            let refs: Vec<&Program> = programs.iter().collect();
            let shape = if refs.len() > 1 { "mix" } else { "homogeneous" };
            for predictor in PredictorKind::ALL {
                let config = SimConfig::default()
                    .with_threads(threads)
                    .with_predictor(predictor)
                    .with_fetch_threads(2.min(threads))
                    .with_fetch_width(8);
                let mut sim = Simulator::try_new_mix(config, &refs).expect("fits");
                while sim.cycle() < 100 || sim.is_quiescent() {
                    assert!(!sim.finished(), "blocks must be in flight");
                    sim.step().expect("prefix steps complete");
                }
                let snap = Snapshot::from_bytes(&sim.checkpoint().to_bytes()).expect("round trip");
                // Run on past the snapshot, so the machine holds different
                // state (and storage grown to its high-water marks).
                for _ in 0..100 {
                    if sim.finished() || sim.step().is_err() {
                        break;
                    }
                }
                let before = ALLOCS.with(Cell::get);
                sim.restore_into(&snap).expect("snapshot restores");
                let n = ALLOCS.with(Cell::get) - before;
                assert_eq!(sim.cycle(), snap.cycle);
                println!("{threads} threads, {shape}, {predictor}: {n} allocation events");
                worst = worst.max(n);
            }
        }
    }
    assert_eq!(
        worst, RESTORE_INTO_ALLOC_BOUND,
        "a restore_into made {worst} allocation events (bound {RESTORE_INTO_ALLOC_BOUND})"
    );
}

#[test]
fn checkpoint_and_to_bytes_allocate_once_per_buffer() {
    let mut worst = 0;
    for threads in [1, 2, 4, 8] {
        let uniform = vec![generated(0xa110c, threads)];
        let mix = (threads > 1).then(|| {
            MixPlan::generate(0xa110c, threads, &GenConfig::default())
                .build_full()
                .expect("generated mixes fit")
        });
        for programs in std::iter::once(uniform).chain(mix) {
            let refs: Vec<&Program> = programs.iter().collect();
            let shape = if refs.len() > 1 { "mix" } else { "homogeneous" };
            for predictor in PredictorKind::ALL {
                let config = SimConfig::default()
                    .with_threads(threads)
                    .with_predictor(predictor);
                let mut sim = Simulator::try_new_mix(config, &refs).expect("fits");
                while sim.cycle() < 100 || sim.is_quiescent() {
                    assert!(!sim.finished(), "blocks must be in flight");
                    sim.step().expect("prefix steps complete");
                }
                let before = ALLOCS.with(Cell::get);
                let wire = sim.checkpoint().to_bytes();
                let n = ALLOCS.with(Cell::get) - before;
                drop(wire);
                println!("{threads} threads, {shape}, {predictor}: {n} allocation events");
                worst = worst.max(n);
            }
        }
    }
    assert!(
        worst <= ENCODE_ALLOC_BOUND,
        "a checkpoint + to_bytes made {worst} allocation events (bound {ENCODE_ALLOC_BOUND})"
    );
}

#[test]
fn every_single_bit_flip_is_a_typed_decode_error() {
    let program = generated(0xb17f, 8);
    let wire = snapshot_bytes(
        &mut Simulator::new(SimConfig::default().with_threads(8), &program),
        150,
    );
    Snapshot::from_bytes(&wire).expect("the unflipped snapshot decodes");
    let mut flipped = wire.clone();
    let mut caught = [0u64; 6];
    for bit in 0..wire.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let kind = match Snapshot::from_bytes(&flipped) {
            Ok(_) => panic!(
                "flipping bit {bit} of {} left a snapshot that decodes",
                wire.len() * 8
            ),
            Err(DecodeError::Checksum { .. }) => 0,
            Err(DecodeError::Version { .. }) => 1,
            Err(DecodeError::BadMagic) => 2,
            Err(DecodeError::Truncated { .. }) => 3,
            Err(DecodeError::Malformed(_)) => 4,
            Err(DecodeError::Section { .. }) => 5,
        };
        caught[kind] += 1;
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    println!(
        "{} flips: checksum {}, version {}, magic {}, truncated {}, malformed {}, section {}",
        wire.len() * 8,
        caught[0],
        caught[1],
        caught[2],
        caught[3],
        caught[4],
        caught[5]
    );
    assert!(
        wire.len() * 8 > 40_000,
        "a fuzz-shaped snapshot has tens of thousands of bits"
    );
}

/// Overwrites one to four payload bytes of `wire` and re-seals the
/// checksum, so the mutation passes the integrity check and reaches the
/// component decoders. `payload_len` is the decoded payload's length.
fn mutate(wire: &[u8], payload_len: usize, rng: &mut Rng) -> Vec<u8> {
    let mut bytes = wire.to_vec();
    let end = bytes.len() - 8;
    let start = end - payload_len;
    for _ in 0..1 + rng.below(4) {
        let at = rng.range_usize(start, end);
        bytes[at] = match rng.below(4) {
            0 => 0,
            1 => 0xff,
            2 => bytes[at] ^ (1 << rng.below(8)),
            _ => rng.next_u64() as u8,
        };
    }
    let sum = smt_checkpoint::checksum(&bytes[..end]);
    bytes[end..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// Steps a restored machine 300 cycles (or until it stops).
fn step_300(sim: &mut Simulator<'_>) {
    for _ in 0..300 {
        if sim.finished() || sim.step().is_err() {
            break;
        }
    }
}

/// Decodes and restores one mutated snapshot twice: fresh through
/// `restore_mix`, and in place through `restore_into` on `ran`, a machine
/// that has run. Both must accept or both reject; an accepted machine is
/// stepped 300 cycles, and a rejecting `restore_into` must leave `ran`
/// printing exactly as `cold` does. Returns whether the decoders rejected
/// the snapshot.
fn exercise<'p>(
    bytes: &[u8],
    restore: impl FnOnce(&Snapshot) -> Option<Simulator<'p>>,
    mut ran: Simulator<'p>,
    cold: &str,
) -> bool {
    let Ok(snap) = Snapshot::from_bytes(bytes) else {
        return true;
    };
    let fresh = restore(&snap);
    let in_place = ran.restore_into(&snap);
    assert_eq!(
        fresh.is_some(),
        in_place.is_ok(),
        "restore_mix and restore_into disagree: {in_place:?}"
    );
    let Some(mut sim) = fresh else {
        assert_eq!(
            format!("{ran:?}"),
            cold,
            "a rejected restore_into must leave the machine cold"
        );
        return true;
    };
    step_300(&mut sim);
    step_300(&mut ran);
    false
}

#[test]
fn mutated_snapshots_fail_closed_or_run() {
    const MACHINES: u64 = 48;
    const MUTATIONS: u64 = 100;
    let policies = FetchPolicy::ALL;
    let (mut rejected, mut accepted) = (0u64, 0u64);
    let mut rng = Rng::new(0x5eed_f022);
    for case in 0..MACHINES {
        let predictor = PredictorKind::ALL[case as usize % PredictorKind::ALL.len()];
        let policy = policies[case as usize / 3 % policies.len()];
        let seed = 0xf022_0000 + case;
        let cycles = 1 + rng.below(200);
        let mix = case % 4 == 3;
        let threads = if mix {
            [2, 4][rng.range_usize(0, 2)]
        } else {
            [1, 2, 4, 8][rng.range_usize(0, 4)]
        };
        let config = SimConfig::default()
            .with_threads(threads)
            .with_predictor(predictor)
            .with_fetch_policy(policy);
        let programs: Vec<Program> = if mix {
            MixPlan::generate(seed, threads, &GenConfig::default())
                .build_full()
                .expect("generated mixes fit")
        } else {
            vec![generated(seed, threads)]
        };
        let refs: Vec<&Program> = programs.iter().collect();
        let cold = format!(
            "{:?}",
            Simulator::try_new_mix(config.clone(), &refs).unwrap()
        );
        let mut ran = Simulator::try_new_mix(config.clone(), &refs).unwrap();
        let wire = snapshot_bytes(&mut ran, cycles);
        let payload_len = Snapshot::from_bytes(&wire)
            .expect("round trip")
            .payload
            .len();
        for m in 0..MUTATIONS {
            let bytes = mutate(&wire, payload_len, &mut rng);
            let point = format!(
                "seed {seed:#x}, {threads} threads{}, {predictor}, {policy:?}, \
                 cycle {cycles}, mutation {m}",
                if mix { " (mix)" } else { "" }
            );
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                exercise(
                    &bytes,
                    |snap| Simulator::restore_mix(config.clone(), &refs, snap).ok(),
                    ran.clone(),
                    &cold,
                )
            }));
            match outcome {
                Ok(true) => rejected += 1,
                Ok(false) => accepted += 1,
                Err(_) => panic!("{point}: a well-checksummed mutation panicked"),
            }
        }
    }
    println!("{rejected} mutations rejected with typed errors, {accepted} restored and ran");
    assert!(
        rejected > 0 && accepted > 0,
        "the sweep must exercise both outcomes"
    );
}
