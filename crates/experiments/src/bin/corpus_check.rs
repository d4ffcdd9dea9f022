//! Corpus conformance checker and heterogeneous-mix study.
//!
//! Default mode assembles every kernel in the on-disk workload corpus and
//! proves it sound: each program is oracle-verified (lockstep against the
//! functional reference) at 1, 2, and 4 threads, its architectural memory
//! is checked against the manifest's result predicate, every 2-kernel
//! pairing and one 4-way mix is verified under the same oracle, each
//! thread against a solo reference run of its own kernel, and each mixed
//! run's per-thread memory segment is re-checked against the owning
//! kernel's predicate. Any failure exits nonzero.
//!
//! `--report` runs the cross-program interference / fairness study and
//! prints the markdown tables EXPERIMENTS.md embeds: per-thread IPC under
//! True Round Robin vs ICOUNT, solo-vs-mixed D-cache hit rates, and CPI
//! stacks per mix. Every reported number comes from a run whose final
//! memory passed the manifest predicates.
//!
//! ```text
//! cargo run --release -p smt-experiments --bin corpus_check -- --corpus corpus
//! cargo run --release -p smt-experiments --bin corpus_check -- \
//!     --corpus corpus --report --scale test
//! ```

use std::process::ExitCode;

use smt_core::{FetchPolicy, SimConfig, SimStats, Simulator};
use smt_corpus::{Corpus, CorpusWorkload};
use smt_experiments::cli::{self, Args, Flags};
use smt_isa::Program;
use smt_oracle::verify_mix;
use smt_trace::{CpiBreakdown, CpiStack, SlotCause};
use smt_workloads::Scale;

/// Generous for corpus kernels (tens of thousands of cycles at test
/// scale); a hung kernel fails fast instead of wedging CI.
const MAX_CYCLES: u64 = 50_000_000;

fn config(threads: usize, policy: FetchPolicy) -> SimConfig {
    SimConfig::default()
        .with_threads(threads)
        .with_fetch_policy(policy)
        .with_max_cycles(MAX_CYCLES)
}

/// Runs `programs` — one kernel on every thread, or `programs[tid]` on
/// thread `tid` — and checks each kernel's memory segment against its
/// manifest predicate. Returns the run's stats and (optionally) the CPI
/// stack.
fn run_checked(
    kernels: &[&CorpusWorkload],
    programs: &[&Program],
    cfg: SimConfig,
    scale: Scale,
    want_cpi: bool,
) -> Result<(SimStats, Option<CpiBreakdown>), String> {
    let block = cfg.block_size as u32;
    let mut sim = Simulator::try_new_mix(cfg, programs).map_err(|e| e.to_string())?;
    let (stats, cpi) = if want_cpi {
        let mut cpi = CpiStack::new(block);
        let stats = sim.run_with(&mut cpi).map_err(|e| e.to_string())?;
        (stats, Some(cpi.finish()))
    } else {
        (sim.run().map_err(|e| e.to_string())?, None)
    };
    let words = sim.memory().words();
    for (tid, kernel) in kernels.iter().enumerate() {
        let (base, span) = sim.thread_segment(tid);
        let local = &words[(base / 8) as usize..((base + span) / 8) as usize];
        kernel
            .verify(local, scale)
            .map_err(|e| format!("thread {tid} ({}): {e}", kernel.name()))?;
    }
    Ok((stats, cpi))
}

/// Conformance pass: every kernel solo at 1/2/4 threads under the
/// lockstep oracle and the manifest predicate, then every pair and one
/// 4-way mix, one kernel per thread. Returns the number of verifications.
fn check(corpus: &Corpus, scale: Scale) -> Result<usize, String> {
    let mut runs = 0;
    let built: Vec<(&CorpusWorkload, Program)> = corpus
        .workloads()
        .iter()
        .map(|w| {
            w.build(scale)
                .map(|p| (w, p))
                .map_err(|e| format!("{}: {e}", w.name()))
        })
        .collect::<Result<_, _>>()?;

    for (kernel, program) in &built {
        for threads in [1usize, 2, 4] {
            verify_mix(&[program], config(threads, FetchPolicy::TrueRoundRobin))
                .map_err(|d| format!("{} at {threads} threads: oracle: {d}", kernel.name()))?;
            runs += 1;
        }
        run_checked(
            &[kernel],
            &[program],
            config(1, FetchPolicy::TrueRoundRobin),
            scale,
            false,
        )?;
        runs += 1;
    }

    // Every unordered pair at 2 threads, plus the first four kernels as
    // one 4-way mix — each slot's commit stream checked against a solo
    // reference run of its own program, then the manifest predicates.
    let mut mixes: Vec<Vec<usize>> = Vec::new();
    for i in 0..built.len() {
        for j in i + 1..built.len() {
            mixes.push(vec![i, j]);
        }
    }
    if built.len() >= 4 {
        mixes.push(vec![0, 1, 2, 3]);
    }
    for mix in &mixes {
        let kernels: Vec<&CorpusWorkload> = mix.iter().map(|&i| built[i].0).collect();
        let programs: Vec<&Program> = mix.iter().map(|&i| &built[i].1).collect();
        let label = || {
            kernels
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join("+")
        };
        verify_mix(
            &programs,
            config(programs.len(), FetchPolicy::TrueRoundRobin),
        )
        .map_err(|d| format!("mix {}: oracle: {d}", label()))?;
        run_checked(
            &kernels,
            &programs,
            config(programs.len(), FetchPolicy::TrueRoundRobin),
            scale,
            false,
        )
        .map_err(|e| format!("mix {}: {e}", label()))?;
        runs += 2;
    }
    Ok(runs)
}

/// The studied mixes: two 2-way and two 4-way slot lists over corpus
/// kernel names (arity fixes the thread count).
const STUDY_MIXES: [&[&str]; 4] = [
    &["quicksort", "matmul"],
    &["memstress", "chase"],
    &["quicksort", "matmul", "memstress", "chase"],
    &["matmul", "blur3", "primes", "quicksort"],
];

const POLICIES: [FetchPolicy; 2] = [FetchPolicy::TrueRoundRobin, FetchPolicy::Icount];

fn fmt_pct(x: f64) -> String {
    format!("{x:.1}")
}

/// Interference / fairness study over [`STUDY_MIXES`], emitted as the
/// markdown tables EXPERIMENTS.md embeds.
fn report(corpus: &Corpus, scale: Scale) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();

    // Solo baselines (1 thread, TRR): hit rate and cycles per kernel.
    let mut solo: Vec<(&CorpusWorkload, Program, SimStats)> = Vec::new();
    for names in STUDY_MIXES {
        for name in names {
            if solo.iter().any(|(k, _, _)| k.name() == *name) {
                continue;
            }
            let kernel = corpus
                .get(name)
                .ok_or_else(|| format!("no workload {name} in the corpus"))?;
            let program = kernel.build(scale).map_err(|e| format!("{name}: {e}"))?;
            let (stats, _) = run_checked(
                &[kernel],
                &[&program],
                config(1, FetchPolicy::TrueRoundRobin),
                scale,
                false,
            )?;
            solo.push((kernel, program, stats));
        }
    }

    let _ = writeln!(out, "### Solo baselines (1 thread, TrueRR)\n");
    let _ = writeln!(out, "| Kernel | Cycles | IPC | D-cache hit rate |");
    let _ = writeln!(out, "|---|---|---|---|");
    for (kernel, _, stats) in &solo {
        let _ = writeln!(
            out,
            "| {} | {} | {:.2} | {} % |",
            kernel.name(),
            stats.cycles,
            stats.ipc(),
            fmt_pct(stats.cache.hit_rate()),
        );
    }

    let _ = writeln!(
        out,
        "\n### Mix fairness: per-thread IPC, TrueRR vs ICOUNT\n"
    );
    let _ = writeln!(
        out,
        "| Mix | T | Policy | IPC | Per-thread IPC | vs solo | min/max |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");

    let mut interference: Vec<String> = Vec::new();
    let mut stacks: Vec<String> = Vec::new();
    for names in STUDY_MIXES {
        let threads = names.len();
        let picked: Vec<&(&CorpusWorkload, Program, SimStats)> = names
            .iter()
            .map(|n| {
                solo.iter()
                    .find(|(k, _, _)| k.name() == *n)
                    .expect("solo pass covered every studied kernel")
            })
            .collect();
        let kernels: Vec<&CorpusWorkload> = picked.iter().map(|(k, _, _)| *k).collect();
        let programs: Vec<&Program> = picked.iter().map(|(_, p, _)| p).collect();
        let label = names.join("+");

        for policy in POLICIES {
            let (stats, cpi) =
                run_checked(&kernels, &programs, config(threads, policy), scale, true)
                    .map_err(|e| format!("mix {label} under {policy}: {e}"))?;
            let per = stats.per_thread_ipc();
            let (lo, hi) = per.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
            let per_s = per
                .iter()
                .map(|x| format!("{x:.2}"))
                .collect::<Vec<_>>()
                .join(" / ");
            // Relative progress: each thread's share of throughput over
            // its solo IPC. Short kernels finish early and idle, so a low
            // ratio can mean "done", not "starved" — the cycle counts in
            // the solo table disambiguate.
            let rel_s = per
                .iter()
                .zip(&picked)
                .map(|(x, t)| format!("{:.2}", x / t.2.ipc()))
                .collect::<Vec<_>>()
                .join(" / ");
            let _ = writeln!(
                out,
                "| {label} | {threads} | {policy} | {:.2} | {per_s} | {rel_s} | {:.2} |",
                stats.ipc(),
                if hi > 0.0 { lo / hi } else { 0.0 },
            );

            if policy == FetchPolicy::TrueRoundRobin {
                // Interference row: mixed hit rate vs the solo runs'
                // pooled (access-weighted) hit rate.
                let (solo_hits, solo_accesses) = picked.iter().fold((0u64, 0u64), |(h, a), t| {
                    (h + t.2.cache.hits, a + t.2.cache.accesses)
                });
                let pooled = if solo_accesses == 0 {
                    0.0
                } else {
                    100.0 * solo_hits as f64 / solo_accesses as f64
                };
                let mixed = stats.cache.hit_rate();
                interference.push(format!(
                    "| {label} | {threads} | {} % | {} % | {:+.1} pp |",
                    fmt_pct(pooled),
                    fmt_pct(mixed),
                    mixed - pooled,
                ));
            }

            let cpi = cpi.expect("want_cpi was set");
            stacks.push(render_stack_row(&label, threads, policy, &cpi));
        }
    }

    let _ = writeln!(out, "\n### Cross-program D-cache interference (TrueRR)\n");
    let _ = writeln!(
        out,
        "| Mix | T | Pooled solo hit rate | Mixed hit rate | Interference |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for row in &interference {
        let _ = writeln!(out, "{row}");
    }

    let _ = writeln!(out, "\n### Mix CPI stacks (share of fetch slots, %)\n");
    let _ = writeln!(
        out,
        "| Mix | T | Policy | CPI | committed | fragment | fetch-starve | sync | d-cache | squash | other |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|");
    for row in &stacks {
        let _ = writeln!(out, "{row}");
    }
    Ok(out)
}

/// One CPI-stack table row: the major slot-loss groups as percentages of
/// all fetch slots.
fn render_stack_row(label: &str, threads: usize, policy: FetchPolicy, b: &CpiBreakdown) -> String {
    let pct = |causes: &[SlotCause]| -> f64 { causes.iter().map(|&c| b.share_pct(c)).sum() };
    let committed = pct(&[SlotCause::Committed]);
    let fragment = pct(&[SlotCause::Fragment]);
    let starve = pct(&[SlotCause::FetchStarved]);
    let sync = pct(&[SlotCause::SyncWait]);
    let dcache = pct(&[SlotCause::DCacheMiss, SlotCause::DCachePort]);
    let squash = pct(&[SlotCause::SquashDiscard]);
    let other = (100.0 - committed - fragment - starve - sync - dcache - squash).max(0.0);
    format!(
        "| {label} | {threads} | {policy} | {:.2} | {} | {} | {} | {} | {} | {} | {} |",
        b.cpi(),
        fmt_pct(committed),
        fmt_pct(fragment),
        fmt_pct(starve),
        fmt_pct(sync),
        fmt_pct(dcache),
        fmt_pct(squash),
        fmt_pct(other),
    )
}

const FLAGS: Flags = Flags {
    values: "--corpus --scale",
    repeated: "",
    switches: "--report",
    positionals: 0,
};

fn main() -> ExitCode {
    cli::main("corpus_check", &FLAGS, run)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let scale = args.scale(Scale::Test)?;
    let corpus = args
        .corpus(Some("corpus"))?
        .expect("a default corpus directory is given");

    Ok(if args.switch("--report") {
        match report(&corpus, scale) {
            Ok(md) => {
                print!("{md}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("corpus_check: report failed: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match check(&corpus, scale) {
            Ok(runs) => {
                println!(
                    "corpus_check: {} kernels, {runs} verified runs (solo oracle at 1/2/4 \
                     threads, all pairs + one 4-way mix, one kernel per thread), all clean",
                    corpus.workloads().len(),
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("corpus_check: FAILED: {e}");
                ExitCode::FAILURE
            }
        }
    })
}
