//! Crash-resume at the service level: SIGKILL a `serve` process while a
//! grid is streaming, restart it over the same store, resubmit, and get
//! the complete grid — with the surviving partial work reused, and the
//! final results byte-identical to an uninterrupted batch sweep.

use std::fs;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use smt_experiments::sweep::{run_sweep, Grid, SweepOptions};
use smt_serve::client::{Client, ClientError};
use smt_workloads::Scale;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smt-serve-resume-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn spawn(store: &Path, workers: usize) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--store",
            store.to_str().expect("utf-8 store path"),
            "--scale",
            "test",
            "--workers",
            &workers.to_string(),
            "--checkpoint-every",
            "200",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve process spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut first = String::new();
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("serve announces its address");
    let addr = first
        .strip_prefix("serve: listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unparseable announcement {first:?}"));
    (child, addr)
}

#[test]
fn sigkill_mid_grid_then_restart_resubmit_completes_byte_identically() {
    // Reference: what the grid's results must look like, produced by the
    // batch path with no server involved.
    let reference_out = scratch("reference");
    let reference_opts = SweepOptions {
        scale: Scale::Test,
        workers: 2,
        ..SweepOptions::default()
    };
    run_sweep(&Grid::smoke(), &reference_out, &reference_opts).expect("reference sweep");
    let reference = fs::read_to_string(reference_out.join("results.json")).expect("reference");

    // Victim server: one slow worker so the grid is still mid-flight
    // when the signal lands.
    let store = scratch("victim");
    let (mut child, addr) = spawn(&store, 1);
    let submitter = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.submit(&[], Some("smoke"), false, false, &mut |_| {})
    });

    // SIGKILL as soon as the store shows progress (some cells finished,
    // the rest queued or in flight) — no notice, no flushing, exactly
    // what a crashed or OOM-killed worker box looks like. Only renamed
    // `.cell` records count as finished: a cell's tmp file appears in the
    // same directory before its record is complete.
    let cells = store.join("cells");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let finished = fs::read_dir(&cells).map_or(0, |d| {
            d.filter(|e| {
                e.as_ref()
                    .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "cell"))
            })
            .count()
        });
        if finished >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no cell ever finished");
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL delivered");
    child.wait().expect("victim reaped");

    // The client sees a dead socket, not a wedge and not silent success.
    let severed = submitter.join().expect("submitter thread");
    match severed {
        Err(ClientError::Io(_) | ClientError::Protocol(_)) => {}
        Err(other) => panic!("expected a transport failure, got {other}"),
        Ok(outcome) => {
            // The race can legitimately finish the whole grid before the
            // signal lands; only then is success acceptable.
            assert_eq!(
                outcome.cells.len(),
                Grid::smoke().cells().len(),
                "partial grid reported as success"
            );
        }
    }

    // Restart over the same store and resubmit: survivors come from
    // cache, the rest (including any half-written checkpoint state)
    // simulate to completion.
    let (mut child, addr) = spawn(&store, 2);
    let mut client = Client::connect(addr).expect("reconnect");
    let outcome = client
        .submit(&[], Some("smoke"), false, false, &mut |_| {})
        .expect("resubmit after restart");
    assert_eq!(outcome.cells.len(), Grid::smoke().cells().len());
    assert!(outcome.failed.is_empty());
    assert!(
        outcome.cached >= 1,
        "work finished before the kill must be reused, not redone"
    );
    assert_eq!(
        outcome.results_json(),
        reference,
        "crash + restart + resubmit must converge on the batch-sweep bytes"
    );

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("clean shutdown");
    child.wait().expect("server exits");
    let _ = fs::remove_dir_all(&store);
    let _ = fs::remove_dir_all(&reference_out);
}
