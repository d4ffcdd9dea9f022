//! `smt-sim` — run one benchmark on the SMT superscalar simulator from the
//! command line and print its statistics.
//!
//! ```text
//! cargo run --release --bin smt-sim -- --workload matrix --threads 4
//! cargo run --release --bin smt-sim -- --workload ll5 --threads 6 \
//!     --fetch cswitch --commit lowest --cache direct --su 64 --scale test
//! cargo run --release --bin smt-sim -- --list
//! ```

use std::process::ExitCode;

use smt_superscalar::core::{CommitPolicy, FetchPolicy, PredictorKind, SimConfig, Simulator};
use smt_superscalar::mem::CacheKind;
use smt_superscalar::uarch::FuConfig;
use smt_superscalar::workloads::{workload, Scale, WorkloadKind};

struct Options {
    kind: WorkloadKind,
    scale: Scale,
    config: SimConfig,
    verify: bool,
}

fn usage() -> &'static str {
    "usage: smt-sim --workload <name> [options]\n\
     \n\
     options:\n\
       --workload <name>    ll1|ll2|ll3|ll5|ll7|ll12|laplace|mpd|matrix|sieve|water\n\
       --threads <1..6>     resident threads (default 4)\n\
       --fetch <policy>     truerr|maskedrr|cswitch|icount (default truerr)\n\
       --predictor <kind>   shared|gshare|partitioned (default shared)\n\
       --fetch-threads <n>  fetch ports, distinct threads per cycle (default 1)\n\
       --fetch-width <n>    instructions per fetch block (default 4)\n\
       --commit <policy>    flexible|lowest (default flexible)\n\
       --cache <kind>       assoc|direct (default assoc)\n\
       --su <entries>       scheduling-unit depth (default 32)\n\
       --fu <cfg>           default|enhanced (default default)\n\
       --scale <scale>      paper|test (default paper)\n\
       --no-verify          skip the reference-result check\n\
       --list               list workloads and exit"
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        kind: WorkloadKind::Matrix,
        scale: Scale::Paper,
        config: SimConfig::default(),
        verify: true,
    };
    let mut saw_workload = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                opts.kind =
                    WorkloadKind::from_name(name).ok_or(format!("unknown workload `{name}`"))?;
                saw_workload = true;
            }
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                opts.config = opts.config.with_threads(n);
            }
            "--fetch" => {
                opts.config = opts.config.with_fetch_policy(match value("--fetch")? {
                    "truerr" => FetchPolicy::TrueRoundRobin,
                    "maskedrr" => FetchPolicy::MaskedRoundRobin,
                    "cswitch" => FetchPolicy::ConditionalSwitch,
                    "icount" => FetchPolicy::Icount,
                    other => return Err(format!("unknown fetch policy `{other}`")),
                });
            }
            "--predictor" => {
                opts.config = opts.config.with_predictor(match value("--predictor")? {
                    "shared" => PredictorKind::SharedBtb,
                    "gshare" => PredictorKind::Gshare,
                    "partitioned" => PredictorKind::PartitionedBtb,
                    other => return Err(format!("unknown predictor `{other}`")),
                });
            }
            "--fetch-threads" => {
                let n: usize = value("--fetch-threads")?
                    .parse()
                    .map_err(|e| format!("--fetch-threads: {e}"))?;
                opts.config = opts.config.with_fetch_threads(n);
            }
            "--fetch-width" => {
                let n: usize = value("--fetch-width")?
                    .parse()
                    .map_err(|e| format!("--fetch-width: {e}"))?;
                opts.config = opts.config.with_fetch_width(n);
            }
            "--commit" => {
                opts.config = opts.config.with_commit_policy(match value("--commit")? {
                    "flexible" => CommitPolicy::Flexible,
                    "lowest" => CommitPolicy::LowestOnly,
                    other => return Err(format!("unknown commit policy `{other}`")),
                });
            }
            "--cache" => {
                opts.config = opts.config.with_cache_kind(match value("--cache")? {
                    "assoc" => CacheKind::SetAssociative,
                    "direct" => CacheKind::DirectMapped,
                    other => return Err(format!("unknown cache kind `{other}`")),
                });
            }
            "--su" => {
                let n: usize = value("--su")?.parse().map_err(|e| format!("--su: {e}"))?;
                opts.config = opts.config.with_su_depth(n);
            }
            "--fu" => {
                opts.config = opts.config.with_fu(match value("--fu")? {
                    "default" => FuConfig::paper_default(),
                    "enhanced" => FuConfig::paper_enhanced(),
                    other => return Err(format!("unknown fu config `{other}`")),
                });
            }
            "--scale" => {
                opts.scale = match value("--scale")? {
                    "paper" => Scale::Paper,
                    "test" => Scale::Test,
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "--no-verify" => opts.verify = false,
            "--list" => {
                for k in WorkloadKind::ALL {
                    println!("{:<8} {}", k.name().to_lowercase(), k.group());
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !saw_workload {
        return Err("missing --workload".into());
    }
    opts.config.validate().map_err(|e| e.to_string())?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    let w = workload(opts.kind, opts.scale);
    let program = match w.build(opts.config.threads) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} ({}) · {} threads · {} · {} · {}×{} fetch · {} · SU {} · {}",
        w.name(),
        w.group(),
        opts.config.threads,
        opts.config.fetch_policy,
        opts.config.predictor,
        opts.config.fetch_threads,
        opts.config.fetch_width,
        opts.config.cache_kind,
        opts.config.su_depth,
        opts.config.commit_policy,
    );

    let mut sim = Simulator::new(opts.config, &program);
    let stats = match sim.run() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simulation error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.verify {
        if let Err(e) = w.check(sim.memory().words()) {
            eprintln!("RESULT CHECK FAILED: {e}");
            return ExitCode::FAILURE;
        }
    }

    println!("cycles:               {}", stats.cycles);
    println!("instructions:         {}", stats.committed_total());
    println!("IPC:                  {:.3}", stats.ipc());
    println!("issued (incl. wrong-path): {}", stats.issued);
    println!("squashed:             {}", stats.squashed);
    println!(
        "branch accuracy:      {:.1}%  ({} resolved)",
        stats.branches.accuracy(),
        stats.branches.resolved
    );
    println!(
        "cache hit rate:       {:.1}%  ({} accesses)",
        stats.cache.hit_rate(),
        stats.cache.accesses
    );
    println!("SU stalls:            {}", stats.su_stall_cycles);
    println!("store-buffer stalls:  {}", stats.store_buffer_full_stalls);
    println!("wait spin cycles:     {}", stats.wait_spin_cycles);
    println!("avg SU occupancy:     {:.1}", stats.avg_su_occupancy());
    for (tid, committed) in stats.committed.iter().enumerate() {
        println!("  thread {tid}: {committed} instructions");
    }
    if opts.verify {
        println!("result check:         PASSED");
    }
    ExitCode::SUCCESS
}
