//! Sweep-cache correctness: hits are bit-identical, invalidation is
//! per-cell, staleness fails closed, and mid-flight checkpoints resume.
//!
//! The sweep engine's promise is that `results.json` depends only on the
//! grid and the code — never on how many times, in how many pieces, or
//! over which warm caches the sweep ran. These tests interrupt, tamper
//! with, and version-skew the on-disk state and demand byte-equality
//! every time.

use std::fs;
use std::path::{Path, PathBuf};

use smt_checkpoint::{fnv1a, Writer};
use smt_experiments::sweep::{plant_checkpoint, run_sweep, CellSpec, Grid, SweepOptions};
use smt_superscalar::core::{FetchPolicy, PredictorKind, Simulator};
use smt_superscalar::mem::CacheKind;
use smt_workloads::{workload, Scale, WorkloadKind};

/// A fresh scratch directory under the target dir (kept out of `/tmp` so
/// sandboxed test runners always have it writable).
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/sweep-tests")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn small_grid() -> Grid {
    Grid {
        workloads: vec![WorkloadKind::Sieve.into()],
        policies: vec![FetchPolicy::TrueRoundRobin, FetchPolicy::ConditionalSwitch],
        predictors: vec![PredictorKind::SharedBtb],
        threads: vec![1, 4],
        fetch_threads: vec![1],
        fetch_widths: vec![4],
        su_depths: vec![32],
        caches: vec![CacheKind::SetAssociative],
        spec_depths: vec![0],
    }
}

fn opts() -> SweepOptions {
    SweepOptions {
        scale: Scale::Test,
        workers: 2,
        checkpoint_every: Some(500),
        code_version: "test-v1".to_string(),
        corpus: None,
    }
}

fn results(dir: &Path) -> String {
    fs::read_to_string(dir.join("results.json")).expect("results.json exists")
}

#[test]
fn cache_hits_are_bit_identical_and_skip_reruns() {
    let grid = small_grid();
    let dir = scratch("hits");
    let first = run_sweep(&grid, &dir, &opts()).expect("sweep runs");
    assert_eq!(first.total, 4);
    assert_eq!(first.executed, 4, "a cold cache executes every cell");
    let cold = results(&dir);

    let second = run_sweep(&grid, &dir, &opts()).expect("sweep reruns");
    assert_eq!(second.executed, 0, "a warm cache executes nothing");
    assert_eq!(second.cached, 4);
    assert_eq!(results(&dir), cold, "cache hits serialize byte-identically");

    let other = scratch("hits-independent");
    run_sweep(&grid, &other, &opts()).expect("independent sweep runs");
    assert_eq!(
        results(&other),
        cold,
        "results depend only on grid and code, not on the directory's history"
    );
}

#[test]
fn stale_cache_fails_closed_per_cell() {
    let grid = small_grid();
    let dir = scratch("stale");
    run_sweep(&grid, &dir, &opts()).expect("sweep runs");
    let reference = results(&dir);

    // Tamper with exactly one record's config hash: that cell — and only
    // that cell — must be re-simulated, and the merged results must come
    // out unchanged.
    let victim = dir.join("cells").join("sieve-trr-t4-su32-sa.cell");
    let tampered: String = fs::read_to_string(&victim)
        .expect("cell file exists")
        .lines()
        .map(|l| {
            if l.starts_with("config_hash=") {
                "config_hash=0x0000000000000001\n".to_string()
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    fs::write(&victim, tampered).expect("tamper cell file");
    let summary = run_sweep(&grid, &dir, &opts()).expect("sweep reruns");
    assert_eq!(summary.executed, 1, "only the invalid cell is re-run");
    assert_eq!(summary.cached, 3);
    assert_eq!(results(&dir), reference);

    // A truncated (torn) record is equally untrusted.
    fs::write(&victim, "id=sieve-trr-t4-su32-sa\nstatus=done\n").expect("truncate cell file");
    let summary = run_sweep(&grid, &dir, &opts()).expect("sweep reruns");
    assert_eq!(summary.executed, 1, "a malformed cell is re-run");
    assert_eq!(results(&dir), reference);

    // A code-version bump invalidates every cell at once.
    let bumped = SweepOptions {
        code_version: "test-v2".to_string(),
        ..opts()
    };
    let summary = run_sweep(&grid, &dir, &bumped).expect("sweep reruns");
    assert_eq!(summary.executed, 4, "a new code version trusts nothing");
    assert_eq!(summary.cached, 0);
    assert_eq!(
        results(&dir),
        reference,
        "the re-simulated space is byte-identical (the code did not actually change)"
    );
}

#[test]
fn mid_flight_checkpoints_resume_instead_of_restarting() {
    let spec = CellSpec {
        work: WorkloadKind::Sieve.into(),
        policy: FetchPolicy::TrueRoundRobin,
        predictor: PredictorKind::SharedBtb,
        threads: 4,
        fetch_threads: 1,
        fetch_width: 4,
        su_depth: 32,
        cache: CacheKind::SetAssociative,
        spec_depth: 0,
    };
    let grid = Grid {
        workloads: vec![spec.work.clone()],
        policies: vec![spec.policy],
        predictors: vec![spec.predictor],
        threads: vec![spec.threads],
        fetch_threads: vec![spec.fetch_threads],
        fetch_widths: vec![spec.fetch_width],
        su_depths: vec![spec.su_depth],
        caches: vec![spec.cache],
        spec_depths: vec![spec.spec_depth],
    };

    // Reference: the cell simulated in one piece.
    let reference_dir = scratch("resume-reference");
    run_sweep(&grid, &reference_dir, &opts()).expect("reference sweep runs");
    let reference = results(&reference_dir);

    // Interrupted: a snapshot from cycle 200, planted as a kill would
    // leave it, must be picked up (resumed == 1) and finish identically.
    let program = workload(WorkloadKind::Sieve, Scale::Test)
        .build(spec.threads)
        .expect("sieve fits 4 threads");
    let mut sim = Simulator::new(spec.config(), &program);
    for _ in 0..200 {
        sim.step().expect("prefix steps complete");
    }
    assert!(!sim.finished(), "the interruption point is mid-run");
    let dir = scratch("resume");
    plant_checkpoint(&dir, &spec, "test-v1", &sim.checkpoint()).expect("plant snapshot");
    let summary = run_sweep(&grid, &dir, &opts()).expect("resumed sweep runs");
    assert_eq!(summary.resumed, 1, "the planted snapshot is resumed");
    assert_eq!(summary.executed, 1);
    assert_eq!(results(&dir), reference, "resume-then-run is unobservable");
    assert!(
        !dir.join("ckpt").join("sieve-trr-t4-su32-sa.ckpt").exists(),
        "a completed cell deletes its snapshot"
    );

    // A snapshot from a different code version is not trusted: the cell
    // restarts from cycle 0 and still produces identical results.
    let dir = scratch("resume-stale");
    plant_checkpoint(&dir, &spec, "some-other-version", &sim.checkpoint()).expect("plant snapshot");
    let summary = run_sweep(&grid, &dir, &opts()).expect("sweep runs");
    assert_eq!(summary.resumed, 0, "a version-skewed snapshot is ignored");
    assert_eq!(summary.executed, 1);
    assert_eq!(results(&dir), reference);

    // Under the current code version, a snapshot whose header names a
    // retired format (v3, as older builds wrote) is not decoded even with
    // a valid checksum: the cell restarts and still matches.
    let mut stale = sim.checkpoint().to_bytes();
    stale[8..12].copy_from_slice(&3u32.to_le_bytes());
    let body = stale.len() - 8;
    let sum = fnv1a(&stale[..body]);
    stale[body..].copy_from_slice(&sum.to_le_bytes());
    let mut file = Writer::new();
    file.put_bytes(b"test-v1");
    file.put_bytes(&stale);
    let dir = scratch("resume-retired-format");
    fs::create_dir_all(dir.join("ckpt")).expect("create ckpt dir");
    fs::write(
        dir.join("ckpt").join("sieve-trr-t4-su32-sa.ckpt"),
        file.into_bytes(),
    )
    .expect("plant snapshot");
    let summary = run_sweep(&grid, &dir, &opts()).expect("sweep runs");
    assert_eq!(summary.resumed, 0, "a retired-format snapshot is ignored");
    assert_eq!(summary.executed, 1);
    assert_eq!(results(&dir), reference);
}

#[test]
fn infeasible_cells_are_recorded_and_cached_not_fatal() {
    // LL3 needs 17 registers, one more than an 8-thread partition provides
    // (the checkpoint test pins the same fact via the typed error).
    let grid = Grid {
        workloads: vec![WorkloadKind::Ll3.into()],
        policies: vec![FetchPolicy::TrueRoundRobin],
        predictors: vec![PredictorKind::SharedBtb],
        threads: vec![4, 8],
        fetch_threads: vec![1],
        fetch_widths: vec![4],
        su_depths: vec![32],
        caches: vec![CacheKind::SetAssociative],
        spec_depths: vec![0],
    };
    let dir = scratch("infeasible");
    let summary = run_sweep(&grid, &dir, &opts()).expect("sweep survives infeasible cells");
    assert_eq!(summary.total, 2);
    assert_eq!(
        summary.infeasible, 1,
        "the 8-thread cell is a hole, not an abort"
    );
    let json = results(&dir);
    assert!(json.contains("\"status\": \"infeasible\""), "{json}");
    assert!(json.contains("\"status\": \"done\""), "{json}");

    let again = run_sweep(&grid, &dir, &opts()).expect("sweep reruns");
    assert_eq!(again.cached, 2, "infeasible records cache like any other");
    assert_eq!(again.executed, 0);
}
