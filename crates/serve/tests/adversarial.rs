//! Adversarial input suite: the seed-deterministic malformed-request
//! generator ([`smt_testkit::netfuzz`]) drives a live in-process server
//! with hostile traffic — truncated lines, junk bytes, oversized fields,
//! type confusion, nesting bombs, and valid requests shredded across TCP
//! segments — and asserts the survival contract on every exchange:
//!
//! - every framed bad line is answered with a typed `error` response;
//! - the connection stays usable afterwards (except the documented
//!   oversized-line close), proven by a follow-up `ping`;
//! - the server never panics or wedges (every read runs under a
//!   timeout), and its store is never touched by rejected traffic;
//! - after the whole barrage, the server still simulates correctly.

use std::fs;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use smt_experiments::json::{parse_value, Value, MAX_LINE};
use smt_experiments::sweep::SweepOptions;
use smt_serve::client::Client;
use smt_serve::server::Server;
use smt_testkit::netfuzz::{self, Expect, FuzzCase};
use smt_testkit::Rng;
use smt_workloads::Scale;

/// How long a read may block before the suite calls the server wedged.
const WEDGE: Duration = Duration::from_secs(30);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smt-serve-fuzz-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn start(tag: &str) -> (Server, PathBuf) {
    let store = scratch(tag);
    let opts = SweepOptions {
        scale: Scale::Test,
        workers: 1,
        checkpoint_every: None,
        ..SweepOptions::default()
    };
    let srv = Server::start("127.0.0.1:0", &store, opts).expect("server starts");
    (srv, store)
}

fn connect(srv: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(srv.addr()).expect("connect");
    stream
        .set_read_timeout(Some(WEDGE))
        .expect("read timeout set");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// Reads one response line; panics (failing the test) on a wedge.
fn read_response(reader: &mut BufReader<TcpStream>, label: &str) -> Value {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) => assert!(n > 0, "{label}: server closed instead of answering"),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            panic!("{label}: server wedged (no response within {WEDGE:?})")
        }
        Err(e) => panic!("{label}: transport error: {e}"),
    }
    parse_value(line.trim_end())
        .unwrap_or_else(|e| panic!("{label}: server sent invalid JSON {line:?}: {e}"))
}

fn kind(v: &Value) -> &str {
    v.get("type").and_then(Value::as_str).unwrap_or("")
}

/// Delivers one fuzz case on a fresh connection and asserts its contract.
fn deliver(srv: &Server, case: &FuzzCase) {
    let (mut stream, mut reader) = connect(srv);
    for segment in &case.segments {
        // An oversized line can be answered (and the socket closed) while
        // we are still writing it; treat write failure past that point as
        // the close it is, not a test failure.
        if let Err(e) = stream.write_all(segment) {
            assert!(
                case.expect == Expect::ErrorMaybeClose,
                "{}: write failed mid-case: {e}",
                case.label
            );
            break;
        }
    }
    match case.expect {
        Expect::Ok => {
            let v = read_response(&mut reader, case.label);
            assert_ne!(
                kind(&v),
                "error",
                "{}: valid-but-shredded request was rejected: {}",
                case.label,
                v.to_line()
            );
        }
        Expect::ErrorLine => {
            let v = read_response(&mut reader, case.label);
            assert_eq!(
                kind(&v),
                "error",
                "{}: expected a typed error, got {}",
                case.label,
                v.to_line()
            );
            assert!(
                v.get("reason").and_then(Value::as_str).is_some(),
                "{}: error carries a reason",
                case.label
            );
            // The stream must still be positioned on a line boundary:
            // a follow-up ping gets a pong on the same connection.
            stream
                .write_all(b"{\"verb\":\"ping\"}\n")
                .expect("follow-up ping");
            let pong = read_response(&mut reader, case.label);
            assert_eq!(
                kind(&pong),
                "pong",
                "{}: connection unusable after the error",
                case.label
            );
        }
        Expect::ErrorMaybeClose => {
            let v = read_response(&mut reader, case.label);
            assert_eq!(kind(&v), "error", "{}: expected a typed error", case.label);
            // The server is allowed (and expected) to close now; the only
            // forbidden outcome is a wedge, which the read timeout and
            // the post-barrage liveness test cover.
            let mut rest = Vec::new();
            let _ = reader.read_to_end(&mut rest);
        }
    }
}

#[test]
fn testkit_line_cap_matches_the_protocol() {
    // netfuzz duplicates the cap so the testkit stays dependency-free;
    // if the protocol cap ever moves, this is the tripwire.
    assert_eq!(netfuzz::LINE_CAP, MAX_LINE);
}

#[test]
fn hostile_traffic_always_gets_typed_errors_and_never_kills_the_server() {
    let (srv, store) = start("barrage");
    for seed in 0..200 {
        let case = netfuzz::malformed_request(&mut Rng::new(seed));
        deliver(&srv, &case);
    }

    // Rejected traffic must never have touched the store…
    assert_eq!(
        fs::read_dir(store.join("cells"))
            .expect("cells dir")
            .count(),
        0,
        "hostile traffic corrupted (wrote into) the store"
    );
    // …or poisoned the scheduler: a real submission still simulates.
    let mut client = Client::connect(srv.addr()).expect("connect");
    let status = client.status().expect("status after barrage");
    assert_eq!(
        status.get("failed").and_then(Value::as_u64),
        Some(0),
        "no worker ever panicked"
    );
    let outcome = client
        .submit(
            &[smt_experiments::sweep::CellSpec {
                threads: 2,
                ..smt_experiments::sweep::CellSpec::default()
            }],
            None,
            false,
            false,
            &mut |_| {},
        )
        .expect("server still simulates after the barrage");
    assert_eq!(outcome.cells.len(), 1);
    Client::connect(srv.addr())
        .expect("connect")
        .shutdown()
        .expect("clean shutdown");
    srv.join();
    let _ = fs::remove_dir_all(&store);
}

#[test]
fn interleaved_garbage_and_real_requests_share_a_connection() {
    // The per-line recovery contract, without reconnecting: error lines
    // and real responses interleave on one socket in request order.
    let (srv, store) = start("interleaved");
    let (mut stream, mut reader) = connect(&srv);
    let mut rng = Rng::new(7);
    for round in 0..32 {
        let case = netfuzz::malformed_request(&mut rng);
        if case.expect != Expect::ErrorLine {
            continue; // splits/oversized manage their own connections
        }
        for segment in &case.segments {
            stream.write_all(segment).expect("garbage written");
        }
        let err = read_response(&mut reader, case.label);
        assert_eq!(kind(&err), "error", "round {round}: {}", case.label);
        stream
            .write_all(b"{\"verb\":\"status\"}\n")
            .expect("status written");
        let status = read_response(&mut reader, "status");
        assert_eq!(kind(&status), "status", "round {round}");
    }
    Client::connect(srv.addr())
        .expect("connect")
        .shutdown()
        .expect("clean shutdown");
    srv.join();
    let _ = fs::remove_dir_all(&store);
}
