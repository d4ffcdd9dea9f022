//! Command-line client for the simulation server.
//!
//! ```text
//! sweep-client --addr 127.0.0.1:7711 ping
//! sweep-client --addr 127.0.0.1:7711 status
//! sweep-client --addr 127.0.0.1:7711 submit --grid paper --out results.json
//! sweep-client --addr 127.0.0.1:7711 submit \
//!     --cell '{"workload":"sieve","policy":"ic","threads":8}' --progress --cpi
//! sweep-client --addr 127.0.0.1:7711 fetch '{"workload":"sieve"}'
//! sweep-client --addr 127.0.0.1:7711 shutdown
//! ```
//!
//! `submit` prints one line per answered cell and, with `--out`, writes
//! the merged `results.json` — byte-identical to what a batch `sweep`
//! run over the same cells would produce. Its stderr summary line counts
//! the cells by how they were answered and ends with the exchange's
//! elapsed seconds. Exits nonzero if any cell failed or the server
//! refused the submission.

use std::error::Error;
use std::process::ExitCode;
use std::time::Instant;

use smt_experiments::cli::{self, Args, Flags};
use smt_experiments::json::parse_value;
use smt_experiments::sweep::CellSpec;
use smt_serve::client::Client;
use smt_serve::proto;

const FLAGS: Flags = Flags {
    values: "--addr --grid --cell --out",
    repeated: "--cell",
    switches: "--progress --cpi",
    positionals: 2,
};

const USAGE: &str =
    "usage: sweep-client --addr <host:port> ping|status|submit|fetch '<cell json>'|shutdown";

fn main() -> ExitCode {
    cli::main("sweep-client", &FLAGS, run)
}

fn parse_cell(text: &str) -> Result<CellSpec, String> {
    let v = parse_value(text).map_err(|e| format!("not JSON: {e}"))?;
    proto::spec_from_value(&v).map_err(|e| format!("not a cell spec: {e}"))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let (verb, fetched) = match args.positionals() {
        [verb] if verb != "fetch" => (verb.as_str(), None),
        [verb, cell] if verb == "fetch" => (verb.as_str(), Some(parse_cell(cell))),
        _ => return Err(USAGE.to_string()),
    };
    let fetched = fetched.transpose().map_err(|e| format!("fetch: {e}"))?;
    if !matches!(verb, "ping" | "status" | "submit" | "fetch" | "shutdown") {
        return Err(format!("unknown verb `{verb}`; {USAGE}"));
    }
    let cells = args.values("--cell").map(parse_cell);
    let cells = cells
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("--cell: {e}"))?;
    let grid = args.value("--grid");
    if verb == "submit" && cells.is_empty() && grid.is_none() {
        return Err("submit needs --grid <name> and/or --cell '<json>'".to_string());
    }
    let addr = args.required("--addr")?;
    let mut client =
        Client::connect(addr).map_err(|e| format!("--addr {addr}: cannot connect: {e}"))?;

    // The server's answer, or why the exchange failed: the command ran.
    let mut results = None;
    let submitted = &mut results;
    let exchange = move || -> Result<ExitCode, Box<dyn Error>> {
        match (verb, &fetched) {
            ("ping", _) => println!("{}", client.ping()?.to_line()),
            ("status", _) => println!("{}", client.status()?.to_line()),
            ("shutdown", _) => {
                client.shutdown()?;
                println!("sweep-client: server acknowledged shutdown");
            }
            (_, Some(spec)) => match client.fetch(spec)? {
                Some(rec) => println!("{}: {} ipc={:?}", rec.id, rec.status.as_str(), rec.ipc),
                None => {
                    println!("{}: miss", spec.id());
                    return Ok(ExitCode::FAILURE);
                }
            },
            _ => {
                let (progress, cpi) = (args.switch("--progress"), args.switch("--cpi"));
                let begin = Instant::now();
                let outcome = client.submit(&cells, grid, progress, cpi, &mut |p| {
                    eprintln!("… {} @ cycle {} ({} committed)", p.id, p.cycle, p.committed);
                })?;
                let elapsed = begin.elapsed().as_secs_f64();
                for (_, rec) in &outcome.cells {
                    println!("{}: {} ipc={:?}", rec.id, rec.status.as_str(), rec.ipc);
                }
                for (id, reason) in &outcome.failed {
                    eprintln!("FAILED {id}: {reason}");
                }
                eprintln!(
                    "sweep-client: {} cells ({} cached, {} scheduled, {} joined, {} failed) in {elapsed:.3} s",
                    outcome.cells.len() + outcome.failed.len(),
                    outcome.cached,
                    outcome.scheduled,
                    outcome.joined,
                    outcome.failed.len()
                );
                *submitted = Some(outcome.results_json());
                if !outcome.failed.is_empty() {
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        Ok(ExitCode::SUCCESS)
    };
    let code = exchange().unwrap_or_else(|e| {
        eprintln!("sweep-client: {verb} failed: {e}");
        ExitCode::FAILURE
    });
    if let (Some(path), Some(json)) = (args.value("--out"), results) {
        std::fs::write(path, json).map_err(|e| format!("--out {path}: {e}"))?;
        eprintln!("sweep-client: results at {path}");
    }
    Ok(code)
}
