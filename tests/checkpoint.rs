//! Checkpoint/restore equivalence: interrupting a run is unobservable.
//!
//! For every workload × fetch policy × thread count at test scale, the
//! machine is checkpointed at a pseudo-random mid-run cycle, serialized
//! through the wire format, restored into a fresh simulator, and run to
//! completion. The spliced run's *entire* `SimStats` and final memory
//! image must be bit-identical to an uninterrupted run — and the golden
//! file pins both halves, so a checkpoint bug and a behavior change are
//! distinguishable at review time.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test checkpoint
//! ```

mod support;

use std::fmt::Write as _;

use smt_superscalar::core::{
    FetchPolicy, Observer, PredictorKind, Retirement, SimConfig, SimError, Simulator, Snapshot,
};
use smt_superscalar::isa::Program;
use smt_testkit::progen::{GenConfig, MixPlan, Plan};
use smt_testkit::Rng;
use smt_workloads::{workload, Scale, WorkloadKind};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/checkpoint.txt");
const FRONTEND_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/checkpoint_frontend.txt"
);

const FETCH: [FetchPolicy; 3] = [
    FetchPolicy::TrueRoundRobin,
    FetchPolicy::MaskedRoundRobin,
    FetchPolicy::ConditionalSwitch,
];
const THREADS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn interrupted_runs_are_bit_identical_to_uninterrupted() {
    let mut rng = Rng::new(0x5eed_c4ec);
    let mut golden = String::new();
    let mut skipped = Vec::new();
    for kind in WorkloadKind::ALL {
        let w = workload(kind, Scale::Test);
        for threads in THREADS {
            let Ok(program) = w.build(threads) else {
                // Register-hungry kernels outgrow the 16-register window of
                // an 8-thread partition; those points are legitimately
                // infeasible (asserted below), not silently dropped.
                skipped.push((kind, threads));
                continue;
            };
            for fetch in FETCH {
                let config = SimConfig::default()
                    .with_threads(threads)
                    .with_fetch_policy(fetch);

                let mut straight = Simulator::new(config.clone(), &program);
                let uninterrupted = straight.run().expect("test-scale runs complete");

                // Interrupt somewhere strictly inside the run (cycle 0 and
                // the final cycle are valid but degenerate).
                let k = 1 + rng.below(uninterrupted.cycles.max(2) - 1);
                let mut front = Simulator::new(config.clone(), &program);
                for _ in 0..k {
                    front.step().expect("prefix steps complete");
                }
                let wire = front.checkpoint().to_bytes();
                let snap = smt_superscalar::core::Snapshot::from_bytes(&wire)
                    .expect("wire format round-trips");
                let mut back = Simulator::restore(config, &program, &snap)
                    .expect("snapshot matches its own (config, program)");
                let resumed = back.run().expect("resumed runs complete");

                let point = format!("{}/{fetch:?}/{threads}t@{k}", w.name());
                assert_eq!(
                    uninterrupted, resumed,
                    "{point}: a checkpoint/restore splice must not perturb the statistics"
                );
                assert_eq!(
                    straight.memory().words(),
                    back.memory().words(),
                    "{point}: final memory images must be bit-identical"
                );
                assert_eq!(
                    straight.reg_file(),
                    back.reg_file(),
                    "{point}: final register files must be bit-identical"
                );
                w.check(back.memory().words())
                    .unwrap_or_else(|e| panic!("{point}: wrong answer after resume: {e}"));
                writeln!(golden, "{point} {resumed:?}").expect("writing to a String cannot fail");
            }
        }
    }
    assert!(
        skipped.iter().all(|&(_, threads)| threads == 8),
        "kernels only outgrow the register window at 8 threads: {skipped:?}"
    );
    support::check_golden(GOLDEN_PATH, &golden);
}

/// The front-end design space added after the paper grid: the ICOUNT
/// policy, each alternative predictor family, and the two-port/wide shape.
/// Same splice protocol as the main matrix, own golden file — so the
/// original golden stays byte-identical row for row.
#[test]
fn front_end_splices_are_bit_identical() {
    type MakeConfig = fn(usize) -> SimConfig;
    let variants: [(&str, MakeConfig); 4] = [
        ("Icount", |t| {
            SimConfig::default()
                .with_threads(t)
                .with_fetch_policy(FetchPolicy::Icount)
        }),
        ("Gshare", |t| {
            SimConfig::default()
                .with_threads(t)
                .with_predictor(PredictorKind::Gshare)
        }),
        ("PartitionedBtb", |t| {
            SimConfig::default()
                .with_threads(t)
                .with_predictor(PredictorKind::PartitionedBtb)
        }),
        ("Icount+2x8", |t| {
            SimConfig::default()
                .with_threads(t)
                .with_fetch_policy(FetchPolicy::Icount)
                .with_fetch_threads(2.min(t))
                .with_fetch_width(8)
        }),
    ];
    let mut rng = Rng::new(0xf407_e4d5);
    let mut golden = String::new();
    for kind in WorkloadKind::ALL {
        let w = workload(kind, Scale::Test);
        for threads in THREADS {
            let Ok(program) = w.build(threads) else {
                continue; // infeasibility is pinned by the main matrix
            };
            for (name, make_config) in variants {
                let config = make_config(threads);

                let mut straight = Simulator::new(config.clone(), &program);
                let uninterrupted = straight.run().expect("test-scale runs complete");

                let k = 1 + rng.below(uninterrupted.cycles.max(2) - 1);
                let mut front = Simulator::new(config.clone(), &program);
                for _ in 0..k {
                    front.step().expect("prefix steps complete");
                }
                let wire = front.checkpoint().to_bytes();
                let snap = smt_superscalar::core::Snapshot::from_bytes(&wire)
                    .expect("wire format round-trips");
                let mut back = Simulator::restore(config, &program, &snap)
                    .expect("snapshot matches its own (config, program)");
                let resumed = back.run().expect("resumed runs complete");

                let point = format!("{}/{name}/{threads}t@{k}", w.name());
                assert_eq!(
                    uninterrupted, resumed,
                    "{point}: splice perturbed the statistics"
                );
                assert_eq!(
                    straight.memory().words(),
                    back.memory().words(),
                    "{point}: final memory images must be bit-identical"
                );
                w.check(back.memory().words())
                    .unwrap_or_else(|e| panic!("{point}: wrong answer after resume: {e}"));
                writeln!(golden, "{point} {resumed:?}").expect("writing to a String cannot fail");
            }
        }
    }
    support::check_golden(FRONTEND_GOLDEN_PATH, &golden);
}

/// Satellite hardening pass: snapshots taken on *every* cycle of runs that
/// exercise the per-thread fetch state — a masked thread (MaskedRR), an
/// armed-but-unfired conditional switch (the window between trigger decode
/// and the switch firing), and a `WAIT` suspension with its resume PC —
/// must all restore into a machine whose completion is bit-identical to
/// never having stopped. Coverage of each adversarial state is asserted,
/// not hoped for.
#[test]
fn every_cycle_splices_preserve_per_thread_fetch_state() {
    use smt_superscalar::isa::builder::ProgramBuilder;

    // Two threads; each runs a dependent div chain (commit-blocks → MaskedRR
    // masks; divs are ConditionalSwitch triggers), then a counting barrier
    // (POST + WAIT → suspension with a resume PC), then one more div.
    let mut b = ProgramBuilder::new();
    let out = b.alloc_zeroed(8 * 8);
    let sync = b.alloc_zeroed(8);
    let [v, d, syn, obr, s0] = b.regs();
    b.li(obr, out as i64);
    b.slli(s0, b.tid_reg(), 3);
    b.add(obr, obr, s0);
    b.li(v, 1_000_000_007);
    b.li(d, 3);
    for _ in 0..6 {
        b.div(v, v, d);
        b.addi(v, v, 17);
    }
    b.li(syn, sync as i64);
    b.post(syn);
    b.wait(syn, b.nthreads_reg());
    b.div(v, v, d);
    b.sd(v, obr, 0);
    b.halt();
    let program = b.build(2).expect("program fits two threads");

    let variants: [(&str, FetchPolicy); 3] = [
        ("mrr", FetchPolicy::MaskedRoundRobin),
        ("cs", FetchPolicy::ConditionalSwitch),
        ("ic", FetchPolicy::Icount),
    ];
    for (name, policy) in variants {
        let config = SimConfig::default()
            .with_threads(2)
            .with_fetch_policy(policy);

        let mut straight = Simulator::new(config.clone(), &program);
        let reference = straight.run().expect("run completes");

        let mut walker = Simulator::new(config.clone(), &program);
        let (mut saw_masked, mut saw_armed, mut saw_suspended) = (false, false, false);
        while !walker.finished() {
            assert!(walker.cycle() < 100_000, "{name}: watchdog");
            walker.step().expect("no faults in this program");
            for t in 0..2 {
                saw_masked |= walker.fetch_unit().is_masked(t);
                saw_armed |= walker.fetch_unit().has_switch_pending(t);
                saw_suspended |= walker.fetch_unit().is_suspended(t);
            }
            let snap = walker.checkpoint();
            let mut restored =
                Simulator::restore(config.clone(), &program, &snap).expect("snapshot restores");
            assert_eq!(
                restored.checkpoint().to_bytes(),
                snap.to_bytes(),
                "{name}@{}: re-snapshot of a restored machine differs",
                walker.cycle()
            );
            let resumed = restored.run().expect("resumed run completes");
            assert_eq!(
                resumed,
                reference,
                "{name}@{}: splice perturbed the statistics",
                walker.cycle()
            );
            assert_eq!(
                restored.memory().words(),
                straight.memory().words(),
                "{name}@{}: splice perturbed memory",
                walker.cycle()
            );
        }
        assert!(
            saw_suspended,
            "{name}: the barrier must suspend a thread at least one cycle"
        );
        if policy == FetchPolicy::MaskedRoundRobin {
            assert!(saw_masked, "mrr: the div chain must commit-block and mask");
        }
        if policy == FetchPolicy::ConditionalSwitch {
            assert!(
                saw_armed,
                "cs: some snapshot must land between trigger decode and the switch firing"
            );
        }
    }
}

const BYTES_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/checkpoint_bytes.txt"
);

/// The wire bytes themselves, pinned by digest. The splice tests above
/// only prove that encode and decode agree with each other, so a change
/// made symmetrically to both would pass them while invalidating every
/// stored `.ckpt` and `.warm` file under an unchanged format version.
/// Each point is a test-scale machine stopped with blocks in flight,
/// covering homogeneous and mix machines, every predictor family and
/// every fetch policy, plus one warm (fork-only) snapshot. The `masked`
/// column digests the payload and header without the version word and
/// the checksum; it has not moved since format v5.
#[test]
fn snapshot_bytes_are_pinned() {
    use smt_superscalar::core::config::warm;
    use smt_superscalar::core::Snapshot;

    let build = |kind: WorkloadKind, threads: usize| {
        workload(kind, Scale::Test)
            .build(threads)
            .expect("test-scale kernel fits")
    };
    let mut golden = String::new();
    let mut pin = |name: &str, snap: &Snapshot| {
        let bytes = snap.to_bytes();
        let digest = smt_checkpoint::stable_hash(&bytes);
        // The same bytes with the version word and the trailing checksum
        // zeroed: a format bump that changes only those two fields
        // re-records the full digest and leaves this column as it was.
        let mut masked = bytes.clone();
        let body = masked.len() - 8;
        masked[8..12].fill(0);
        masked[body..].fill(0);
        let masked = smt_checkpoint::stable_hash(&masked);
        writeln!(
            golden,
            "{name} {} bytes {digest:#018x} masked {masked:#018x}",
            bytes.len()
        )
        .expect("writing to a String cannot fail");
    };

    let homogeneous: [(WorkloadKind, usize, PredictorKind, FetchPolicy, u64); 4] = [
        (
            WorkloadKind::Matrix,
            4,
            PredictorKind::SharedBtb,
            FetchPolicy::TrueRoundRobin,
            300,
        ),
        (
            WorkloadKind::Ll7,
            2,
            PredictorKind::Gshare,
            FetchPolicy::Icount,
            257,
        ),
        (
            WorkloadKind::Sieve,
            8,
            PredictorKind::PartitionedBtb,
            FetchPolicy::MaskedRoundRobin,
            411,
        ),
        (
            WorkloadKind::Laplace,
            1,
            PredictorKind::Gshare,
            FetchPolicy::ConditionalSwitch,
            150,
        ),
    ];
    for (kind, threads, predictor, policy, cycles) in homogeneous {
        let program = build(kind, threads);
        let config = SimConfig::default()
            .with_threads(threads)
            .with_predictor(predictor)
            .with_fetch_policy(policy);
        let mut sim = Simulator::new(config.clone(), &program);
        for _ in 0..cycles {
            sim.step().expect("prefix steps complete");
        }
        assert!(!sim.is_quiescent(), "{kind:?}: blocks must be in flight");
        let snap = sim.checkpoint();
        let back = Simulator::restore(config, &program, &snap).expect("snapshot restores");
        assert_eq!(back.checkpoint(), snap, "{kind:?}: restore must re-encode");
        pin(
            &format!(
                "{kind:?}/{}/{policy:?}/{threads}t@{cycles}",
                predictor.abbrev()
            ),
            &snap,
        );
    }

    let mixes: [(&[WorkloadKind], PredictorKind, u64); 2] = [
        (
            &[WorkloadKind::Matrix, WorkloadKind::Sieve],
            PredictorKind::SharedBtb,
            199,
        ),
        (
            &[
                WorkloadKind::Ll1,
                WorkloadKind::Ll7,
                WorkloadKind::Matrix,
                WorkloadKind::Laplace,
            ],
            PredictorKind::PartitionedBtb,
            333,
        ),
    ];
    for (kinds, predictor, cycles) in mixes {
        let programs: Vec<_> = kinds.iter().map(|&k| build(k, kinds.len())).collect();
        let refs: Vec<_> = programs.iter().collect();
        let config = SimConfig::default()
            .with_threads(kinds.len())
            .with_predictor(predictor);
        let mut sim = Simulator::try_new_mix(config.clone(), &refs).expect("mix fits");
        for _ in 0..cycles {
            sim.step().expect("prefix steps complete");
        }
        assert!(!sim.is_quiescent(), "{kinds:?}: blocks must be in flight");
        let snap = sim.checkpoint();
        let back = Simulator::restore_mix(config, &refs, &snap).expect("snapshot restores");
        assert_eq!(back.checkpoint(), snap, "{kinds:?}: restore must re-encode");
        pin(
            &format!("mix{kinds:?}/{}@{cycles}", predictor.abbrev()),
            &snap,
        );
    }

    let program = build(WorkloadKind::Matrix, 4);
    let mut sim = Simulator::new(SimConfig::default(), &program);
    for _ in 0..300 {
        sim.step().expect("prefix steps complete");
    }
    sim.drain().expect("drain parks the machine");
    let warm = sim
        .checkpoint_warm(&warm::relax_all())
        .expect("quiescent machine");
    pin(&format!("warm/Matrix/4t@{}", sim.cycle()), &warm);

    support::check_golden(BYTES_GOLDEN_PATH, &golden);
}

#[test]
fn oversubscribed_thread_count_is_a_typed_error_not_a_panic() {
    // A kernel that fits a 4-thread partition but not an 8-thread one: the
    // constructor must refuse with the typed register-window error (which
    // the sweep engine maps to an `infeasible` cell), never panic.
    let needy = WorkloadKind::ALL
        .into_iter()
        .find(|&kind| workload(kind, Scale::Test).build(8).is_err())
        .expect("some kernel outgrows the 8-thread window");
    let program = workload(needy, Scale::Test)
        .build(4)
        .expect("the same kernel fits 4 threads");
    let err = Simulator::try_new(SimConfig::default().with_threads(8), &program)
        .expect_err("16-register window cannot hold the kernel");
    match err {
        SimError::RegisterWindow {
            window, threads, ..
        } => {
            assert_eq!(threads, 8);
            assert_eq!(window, 16);
        }
        other => panic!("expected RegisterWindow, got {other:?}"),
    }
}

/// The fuzz oracle's front ends, `(policy, predictor, fetch ports, fetch
/// width)`: every homogeneous thread count runs all eight, and the mix
/// column runs the last four at two and four threads.
const FUZZ_FRONTENDS: [(FetchPolicy, PredictorKind, usize, usize); 8] = [
    (FetchPolicy::TrueRoundRobin, PredictorKind::SharedBtb, 1, 4),
    (
        FetchPolicy::MaskedRoundRobin,
        PredictorKind::SharedBtb,
        1,
        4,
    ),
    (
        FetchPolicy::ConditionalSwitch,
        PredictorKind::SharedBtb,
        1,
        4,
    ),
    (FetchPolicy::Icount, PredictorKind::SharedBtb, 1, 4),
    (FetchPolicy::TrueRoundRobin, PredictorKind::Gshare, 1, 4),
    (
        FetchPolicy::TrueRoundRobin,
        PredictorKind::PartitionedBtb,
        1,
        4,
    ),
    (FetchPolicy::Icount, PredictorKind::Gshare, 2, 8),
    (
        FetchPolicy::ConditionalSwitch,
        PredictorKind::PartitionedBtb,
        2,
        8,
    ),
];
const FUZZ_MIX_FRONTENDS: [(FetchPolicy, PredictorKind, usize, usize); 4] = [
    (FetchPolicy::TrueRoundRobin, PredictorKind::SharedBtb, 1, 4),
    (FetchPolicy::Icount, PredictorKind::Gshare, 1, 4),
    (
        FetchPolicy::MaskedRoundRobin,
        PredictorKind::PartitionedBtb,
        1,
        4,
    ),
    (
        FetchPolicy::ConditionalSwitch,
        PredictorKind::SharedBtb,
        2,
        8,
    ),
];

/// The commit stream of a run, one line per retirement.
#[derive(Default)]
struct Stream(Vec<String>);

impl Observer for Stream {
    fn retired(&mut self, r: &Retirement) {
        self.0.push(format!("{r:?}"));
    }
}

/// Runs two machines over `programs` in lockstep and, every `every`
/// cycles, restores the same snapshot bytes into one in place
/// (`restore_into`) and into a fresh replacement of the other
/// (`restore_mix`). At every splice the two must print identically; at the
/// end both must have retired the same stream to the same outcome as a run
/// that was never spliced. Returns the number of splices.
fn in_place_matches_fresh(
    programs: &[&Program],
    config: &SimConfig,
    every: u64,
    point: &str,
) -> u64 {
    let mut in_place = Simulator::try_new_mix(config.clone(), programs).expect("fits");
    let mut fresh = Simulator::try_new_mix(config.clone(), programs).expect("fits");
    let (mut a, mut b) = (Stream::default(), Stream::default());
    let mut splices = 0;
    let stopped = loop {
        let mut stopped = None;
        for _ in 0..every {
            if in_place.finished() {
                break;
            }
            let (ra, rb) = (in_place.step_with(&mut a), fresh.step_with(&mut b));
            assert_eq!(ra, rb, "{point}: cycle {}", in_place.cycle());
            if let Err(e) = ra {
                stopped = Some(e);
                break;
            }
        }
        if stopped.is_some() || in_place.finished() {
            break stopped;
        }
        assert!(
            in_place.cycle() < config.max_cycles,
            "{point}: watchdog at cycle {}",
            in_place.cycle()
        );
        let bytes = in_place.checkpoint().to_bytes();
        let snap = Snapshot::from_bytes(&bytes).expect("wire format round-trips");
        in_place.restore_into(&snap).expect("restores in place");
        fresh = Simulator::restore_mix(config.clone(), programs, &snap).expect("restores fresh");
        assert_eq!(
            format!("{in_place:?}"),
            format!("{fresh:?}"),
            "{point}: splice at cycle {}",
            snap.cycle
        );
        splices += 1;
    };
    let outcome = match stopped {
        Some(e) => Err(e),
        None => {
            let (sa, sb) = (in_place.run_with(&mut a), fresh.run_with(&mut b));
            assert_eq!(sa, sb, "{point}: final statistics");
            sa
        }
    };
    assert_eq!(a.0, b.0, "{point}: commit streams");
    let mut straight = Simulator::try_new_mix(config.clone(), programs).expect("fits");
    let mut c = Stream::default();
    let straight_outcome = straight.run_with(&mut c);
    assert_eq!(
        outcome, straight_outcome,
        "{point}: splicing changed the outcome"
    );
    assert_eq!(a.0, c.0, "{point}: splicing changed the commit stream");
    splices
}

/// An in-place restore is a fresh restore: over the fuzz oracle's matrix —
/// 1, 2, 4 and 8 threads under its eight front ends, plus its mix column —
/// restoring the same bytes into the running machine and into a new one
/// gives machines that print identically at every splice point and retire
/// identical streams to identical final statistics.
#[test]
fn in_place_and_fresh_restores_are_identical() {
    const EVERY: u64 = 50;
    let gen = GenConfig::default();
    let mut splices = 0;
    for seed in [0x1a5e_0001, 0x1a5e_0002, 0x1a5e_0003, 0x1a5e_0004] {
        let plan = Plan::generate(seed, &gen);
        for threads in THREADS {
            let program = plan.build_full(threads).expect("generated plans fit");
            for (policy, predictor, ports, width) in FUZZ_FRONTENDS {
                let config = SimConfig::default()
                    .with_threads(threads)
                    .with_fetch_policy(policy)
                    .with_predictor(predictor)
                    .with_fetch_threads(ports.min(threads))
                    .with_fetch_width(width);
                let point =
                    format!("seed {seed:#x}, {threads}t, {policy:?}/{predictor}/{ports}x{width}");
                splices += in_place_matches_fresh(&[&program], &config, EVERY, &point);
            }
        }
        for threads in [2, 4] {
            let programs = MixPlan::generate(seed, threads, &gen)
                .build_full()
                .expect("generated mixes fit");
            let refs: Vec<&Program> = programs.iter().collect();
            for (policy, predictor, ports, width) in FUZZ_MIX_FRONTENDS {
                let config = SimConfig::default()
                    .with_threads(threads)
                    .with_fetch_policy(policy)
                    .with_predictor(predictor)
                    .with_fetch_threads(ports.min(threads))
                    .with_fetch_width(width);
                let point = format!(
                    "seed {seed:#x}, {threads}t mix, {policy:?}/{predictor}/{ports}x{width}"
                );
                splices += in_place_matches_fresh(&refs, &config, EVERY, &point);
            }
        }
    }
    println!("{splices} splices compared");
    assert!(splices > 100, "the matrix must splice mid-run: {splices}");
}
