//! `serve` and `sweep-client` refuse a command line they cannot carry out
//! with one stderr line naming the culprit and exit code 2, and the
//! client's verb is the positional left once the value flags have taken
//! their values.

use std::process::Command;

use smt_experiments::sweep::SweepOptions;
use smt_serve::client::Client;
use smt_serve::server::Server;
use smt_testkit::assert_refused;
use smt_workloads::Scale;

const CLIENT: &str = env!("CARGO_BIN_EXE_sweep-client");

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("smt-serve-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn malformed_command_lines_exit_2_naming_the_culprit() {
    // Every case is refused before a server binds or a client connects.
    let cwd = scratch("refused");
    let serve = env!("CARGO_BIN_EXE_serve");
    for (exe, line, culprit) in [
        (serve, "--store s --bogus", "`--bogus`"),
        (serve, "--store s --code-version 0", "`--code-version`"),
        (serve, "--scale test --store", "--store needs a value"),
        (serve, "--store s --workers x", "--workers: cannot parse"),
        (serve, "--store s --corpus corpus", "directory `corpus`"),
        (serve, "--scale test", "--store is required"),
        (CLIENT, "--addr a ping --bogus", "`--bogus`"),
        (CLIENT, "ping --addr", "--addr needs a value"),
        (CLIENT, "--addr a submit --cell x", "--cell: not JSON"),
        (CLIENT, "--addr a submit --cell {} --cell []", "--cell"),
        (CLIENT, "--addr a fetch []", "fetch: not a cell spec"),
        (CLIENT, "--addr a ping pong", "usage: sweep-client"),
        (CLIENT, "--addr a frob", "unknown verb `frob`"),
        (CLIENT, "submit --grid paper", "--addr is required"),
    ] {
        let args = line.split_whitespace();
        assert_refused(Command::new(exe).current_dir(&cwd).args(args), culprit);
    }
    let left = std::fs::read_dir(&cwd).expect("scratch dir").count();
    assert_eq!(left, 0, "a refused command line does no work");
}

#[test]
fn a_value_flag_before_the_verb_keeps_its_value() {
    let store = scratch("verb");
    let opts = SweepOptions {
        scale: Scale::Test,
        workers: 1,
        ..SweepOptions::default()
    };
    let server = Server::start("127.0.0.1:0", &store, opts).expect("server starts");
    let out = store.join("submitted.json");
    let output = Command::new(CLIENT)
        .args(["--addr", &server.addr().to_string()])
        .args(["--out", out.to_str().expect("utf-8 temp path")])
        .args(["submit", "--cell", r#"{"workload":"sieve","threads":1}"#])
        .output()
        .expect("sweep-client runs");
    let client = Client::connect(server.addr()).expect("connect");
    client.shutdown().expect("server shuts down");
    server.join();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    let results = std::fs::read_to_string(&out).expect("--out is written");
    assert!(
        results.contains("\"id\": \"sieve-trr-t1-su32-sa\""),
        "{results}"
    );
}
