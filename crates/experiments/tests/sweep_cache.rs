//! A sweep in which one cell resumes from a mid-flight snapshot, the way a
//! SIGKILLed worker would leave it, must leave artifacts byte-identical to
//! an uninterrupted sweep's — the merged `results.json` *and* every
//! content-addressed cell file (the CI smoke job delivers the real signal;
//! here the same on-disk state is planted directly).

use std::fs;
use std::path::PathBuf;

use smt_core::{FetchPolicy, PredictorKind, Simulator};
use smt_experiments::sweep::{plant_checkpoint, run_sweep, CellSpec, Grid, SweepOptions};
use smt_mem::CacheKind;
use smt_workloads::{workload, Scale, WorkloadKind};

/// A fresh directory under the system temp dir; unique per test so the
/// suite can run in parallel.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smt-sweep-cache-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn opts() -> SweepOptions {
    SweepOptions {
        scale: Scale::Test,
        workers: 2,
        checkpoint_every: Some(200),
        ..SweepOptions::default()
    }
}

/// Reads every cell file into `(name, bytes)`, sorted by name.
fn cell_files(out: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut cells: Vec<(String, Vec<u8>)> = fs::read_dir(out.join("cells"))
        .expect("cells dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().into_string().expect("utf-8 name"),
                fs::read(e.path()).expect("cell file"),
            )
        })
        .collect();
    cells.sort();
    cells
}

#[test]
fn batched_resume_from_planted_snapshot_matches_a_clean_run() {
    let grid = Grid::smoke();
    // The reference: an uninterrupted sweep.
    let clean = scratch("clean");
    run_sweep(&grid, &clean, &opts()).expect("clean sweep");

    // The victim: one feasible cell is left exactly as a killed worker
    // would leave it — a validated snapshot in ckpt/ and no cell file.
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
    let program = workload(WorkloadKind::Sieve, Scale::Test)
        .build(spec.threads)
        .expect("kernel fits");
    let mut sim = Simulator::new(spec.config(), &program);
    for _ in 0..200 {
        assert!(!sim.finished(), "snapshot must be mid-flight");
        sim.step().expect("steps");
    }
    let interrupted = scratch("interrupted");
    plant_checkpoint(&interrupted, &spec, &opts().code_version, &sim.checkpoint())
        .expect("plant snapshot");

    let summary = run_sweep(&grid, &interrupted, &opts()).expect("resumed sweep");
    assert_eq!(
        summary.resumed, 1,
        "the planted cell must resume, not restart"
    );
    assert_eq!(
        fs::read(clean.join("results.json")).expect("clean results"),
        fs::read(interrupted.join("results.json")).expect("resumed results"),
        "resumed sweep must serialize byte-identically"
    );
    assert_eq!(cell_files(&clean), cell_files(&interrupted));
    let _ = fs::remove_dir_all(&clean);
    let _ = fs::remove_dir_all(&interrupted);
}
