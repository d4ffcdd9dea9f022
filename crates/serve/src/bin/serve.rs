//! The persistent simulation server.
//!
//! Binds a TCP listener, opens (or creates) a content-addressed cell
//! store, and serves the line-delimited JSON protocol until a client
//! sends `shutdown`. Several servers may share one `--store` directory
//! — every store write is atomic tmp+rename, so concurrent processes
//! de-duplicate through the filesystem.
//!
//! ```text
//! cargo run --release -p smt-serve --bin serve -- --store target/serve
//! cargo run --release -p smt-serve --bin serve -- \
//!     --addr 127.0.0.1:7711 --store target/serve --scale paper --workers 8
//! cargo run --release -p smt-serve --bin serve -- \
//!     --store target/serve --corpus corpus
//! ```
//!
//! `--corpus <dir>` attaches an on-disk workload corpus: submissions may
//! then name corpus kernels and `'+'`-joined per-thread mixes
//! (`mpd+matmul`) as workloads.
//!
//! The first stdout line is always
//! `serve: listening on <ip>:<port> (...)` — scripts and the test
//! suites parse it to learn the ephemeral port when `--addr` ends in
//! `:0` (the default).

use std::path::Path;
use std::process::ExitCode;

use smt_experiments::cli::{self, Args, Flags};
use smt_serve::server::Server;

const FLAGS: Flags = Flags {
    values: "--store --addr --scale --workers --checkpoint-every --corpus",
    repeated: "",
    switches: "",
    positionals: 0,
};

fn main() -> ExitCode {
    cli::main("serve", &FLAGS, run)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let store = Path::new(args.required("--store")?);
    let addr = args.value("--addr").unwrap_or("127.0.0.1:0");
    // With a corpus attached, submissions may name corpus kernels and
    // '+'-joined per-thread mixes; without one, such cells are refused
    // with a typed error at admission.
    let opts = args.sweep_options(None)?;
    let workers = opts.workers;
    let server = Server::start(addr, store, opts)
        .map_err(|e| format!("cannot serve {addr} from store {}: {e}", store.display()))?;
    // Scripts parse this exact first line for the bound port.
    println!(
        "serve: listening on {} ({} workers, store {})",
        server.addr(),
        workers,
        store.display()
    );
    server.join();
    println!("serve: shut down");
    Ok(ExitCode::SUCCESS)
}
