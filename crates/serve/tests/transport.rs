//! The transport's timing contract: a reply leaves in one write, as soon
//! as the handler has nothing more to say before it blocks. A reply of
//! several frames written one `write` each, with Nagle's algorithm on,
//! waits about 40 ms for the client's delayed ACK; a reply kept in the
//! buffer past the point where the handler blocks never leaves at all.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use smt_experiments::json::{parse_value, Value};
use smt_experiments::sweep::{CellSpec, SweepOptions};
use smt_serve::client::Client;
use smt_serve::server::Server;
use smt_workloads::Scale;

/// A fresh store directory, unique per test for parallel runs.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("smt-serve-transport-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn server(tag: &str) -> (Server, PathBuf) {
    let store = scratch(tag);
    let opts = SweepOptions {
        scale: Scale::Test,
        workers: 1,
        ..SweepOptions::default()
    };
    let srv = Server::start("127.0.0.1:0", &store, opts).expect("server starts");
    (srv, store)
}

fn shut_down(srv: Server, store: &Path) {
    Client::connect(srv.addr())
        .expect("connect for shutdown")
        .shutdown()
        .expect("clean shutdown");
    srv.join();
    let _ = fs::remove_dir_all(store);
}

/// A cached single-cell submit is three frames: `accepted`, `cell`,
/// `done`. Stalled, each one read about 44 ms; sent whole, well under a
/// millisecond on loopback.
#[test]
fn cached_single_cell_submits_answer_in_under_5_ms() {
    let (srv, store) = server("hit");
    let mut client = Client::connect(srv.addr()).expect("connect");
    let cell = [CellSpec {
        threads: 2,
        ..CellSpec::default()
    }];
    let mut submit = || {
        client
            .submit(&cell, None, false, false, &mut |_| {})
            .expect("submit completes")
    };
    assert_eq!(submit().scheduled, 1, "the first visit simulates");
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let begin = Instant::now();
            let hit = submit();
            let elapsed = begin.elapsed().as_secs_f64() * 1e3;
            assert_eq!((hit.cached, hit.cells.len()), (1, 1), "a store hit");
            elapsed
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let p50 = ms[ms.len() / 2];
    assert!(p50 < 5.0, "cached submit p50 {p50:.2} ms; all: {ms:.2?}");
    shut_down(srv, &store);
}

fn read_kind(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("a reply within the read timeout: none was left in the server's buffer");
    let v = parse_value(line.trim_end()).expect("replies are valid JSON");
    v.get("type")
        .and_then(Value::as_str)
        .expect("typed reply")
        .to_string()
}

/// Requests pipelined in one segment are answered in order, and the
/// answers leave when the handler runs out of whole requests: here the
/// segment ends in a blank line and half of a fourth request, so the
/// handler blocks with three replies buffered.
#[test]
fn pipelined_requests_in_one_segment_are_all_answered() {
    let (srv, store) = server("pipelined");
    let mut stream = TcpStream::connect(srv.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let segment = concat!(
        r#"{"verb":"ping"}"#,
        "\n",
        r#"{"verb":"status"}"#,
        "\n",
        r#"{"verb":"fetch","cell":{"workload":"sieve"}}"#,
        "\n\n",
        r#"{"verb":"#,
    );
    stream
        .write_all(segment.as_bytes())
        .expect("segment written");
    for expected in ["pong", "status", "miss"] {
        assert_eq!(read_kind(&mut reader), expected);
    }
    stream
        .write_all(concat!(r#""ping"}"#, "\n").as_bytes())
        .expect("rest of the fourth request");
    assert_eq!(read_kind(&mut reader), "pong");
    shut_down(srv, &store);
}

/// `bye` must be on the wire before shutdown begins: the `serve` process
/// exits as soon as its accept thread and workers join, and a `bye`
/// still in the handler's buffer would race that exit. One server per
/// round, because a lost `bye` is a race.
#[test]
fn the_serve_binary_says_bye_and_exits_0() {
    for round in 0..10 {
        let store = scratch(&format!("bye-{round}"));
        let mut serve = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--addr", "127.0.0.1:0", "--scale", "test", "--workers", "1"])
            .arg("--store")
            .arg(&store)
            .stdout(Stdio::piped())
            .spawn()
            .expect("serve spawns");
        let mut stdout = BufReader::new(serve.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout
            .read_line(&mut first)
            .expect("serve announces its address");
        let addr = first
            .strip_prefix("serve: listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unparseable announcement {first:?}"));

        let client = Command::new(env!("CARGO_BIN_EXE_sweep-client"))
            .args(["--addr", addr, "shutdown"])
            .output()
            .expect("sweep-client runs");
        let said = String::from_utf8_lossy(&client.stdout);
        assert!(
            client.status.success() && said.contains("acknowledged shutdown"),
            "round {round}: {said}{}",
            String::from_utf8_lossy(&client.stderr)
        );

        let begin = Instant::now();
        let exit = loop {
            if let Some(exit) = serve.try_wait().expect("serve status") {
                break exit;
            }
            if begin.elapsed() > Duration::from_secs(30) {
                let _ = serve.kill();
                panic!("round {round}: serve did not exit after bye");
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut rest = String::new();
        stdout.read_to_string(&mut rest).expect("serve's last line");
        assert!(exit.success(), "round {round}: serve exited {exit}");
        assert_eq!(rest, "serve: shut down\n", "round {round}");
        let _ = fs::remove_dir_all(&store);
    }
}
