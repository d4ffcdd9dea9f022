//! `report`: every paper figure and table generator on one fresh serial
//! `Runner` at paper scale, each table checked byte for byte against
//! `results/report.md` — the reproduction users wait on, with nearly all of
//! its time in `core` and the runner memo.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

use smt_core::Simulator;
use smt_experiments::figures;
use smt_experiments::runner::{Job, Runner};
use smt_trace::CpiStack;
use smt_workloads::{workload, Scale};

use crate::machine::{set_core, Machine};
use crate::span::Trace;
use crate::{stats, Ctx, Rep, Traced};

pub struct Fixture {
    runner: Runner,
    /// The committed tables, one Markdown chunk per generator.
    expected: &'static [String],
}

/// The committed tables, read once per process.
fn expected(ctx: &Ctx) -> Result<&'static [String], String> {
    static TABLES: OnceLock<Result<Vec<String>, String>> = OnceLock::new();
    TABLES
        .get_or_init(|| {
            let path = ctx.root.join("results").join("report.md");
            std::fs::read_to_string(&path)
                .map(|text| split_tables(&text))
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        })
        .as_deref()
        .map_err(Clone::clone)
}

/// Opens a fresh serial runner — all `report --serial` does before its
/// first generator.
pub fn setup(ctx: &Ctx, _n: usize) -> Result<Fixture, String> {
    let expected = expected(ctx)?;
    Ok(Fixture {
        runner: Runner::new(Scale::Paper),
        expected,
    })
}

/// Splits the `report` binary's output into one chunk per table, each
/// exactly as printed (`### ` heading through the blank line after it).
fn split_tables(text: &str) -> Vec<String> {
    let mut chunks: Vec<String> = Vec::new();
    for line in text.split_inclusive('\n') {
        if line.starts_with("### ") || chunks.is_empty() {
            chunks.push(String::new());
        }
        chunks.last_mut().expect("pushed above").push_str(line);
    }
    chunks
}

/// Runs `gens` on `runner`, rendering each table as the `report` binary
/// prints it; `None` marks a generator that panicked.
fn generate(
    runner: &mut Runner,
    gens: &[(&'static str, figures::Generator)],
) -> Vec<Option<String>> {
    gens.iter()
        .map(|(_, generator)| {
            catch_unwind(AssertUnwindSafe(|| generator(runner)))
                .ok()
                .map(|t| format!("{t}\n"))
        })
        .collect()
}

fn check_tables(
    rep: &mut Rep,
    gens: &[(&'static str, figures::Generator)],
    got: &[Option<String>],
    expected: &[String],
) {
    for (i, (name, _)) in gens.iter().enumerate() {
        rep.check(
            got[i].is_some() && got[i].as_ref() == expected.get(i),
            || format!("{name}: table differs from results/report.md or its generator panicked"),
        );
    }
}

/// Every generator in turn; `wall_s` is the sum of their times.
pub fn run(_ctx: &Ctx, f: &mut Fixture, between: &mut dyn FnMut()) -> Rep {
    let gens = figures::all();
    let mut tables = Vec::with_capacity(gens.len());
    let mut wall_s = 0.0;
    for generator in &gens {
        let t = Instant::now();
        tables.extend(generate(&mut f.runner, std::slice::from_ref(generator)));
        wall_s += t.elapsed().as_secs_f64();
        between();
    }
    let mut rep = Rep {
        wall_s,
        sim_cycles: f.runner.sim_cycles(),
        ..Rep::default()
    };
    rep.check(f.expected.len() == gens.len(), || {
        format!(
            "results/report.md holds {} tables, the generators {}",
            f.expected.len(),
            gens.len()
        )
    });
    check_tables(&mut rep, &gens, &tables, f.expected);
    // A generator that panicked left its runs out of the memo; the failure
    // is already counted, and the counters would re-simulate.
    if rep.failed == 0 {
        rep.guard = machine(&mut f.runner, &demanded(&gens)).guard();
    }
    rep
}

/// Every simulation the generators demand, in demand order, duplicates
/// included — from a recording runner, which executes nothing.
fn demanded(gens: &[(&'static str, figures::Generator)]) -> Vec<Job> {
    let mut recorder = Runner::recorder(Scale::Paper);
    for (_, generator) in gens {
        let _ = generator(&mut recorder);
    }
    recorder.into_recorded()
}

fn unique(jobs: &[Job]) -> Vec<Job> {
    let mut seen = HashSet::new();
    jobs.iter().filter(|j| seen.insert(*j)).cloned().collect()
}

/// Totals over every demanded run, read back from the runner's memo (all
/// lookups are hits, so nothing is re-simulated). CPI-stack runs carry
/// cycles and commits but no cache or branch counters.
fn machine(runner: &mut Runner, jobs: &[Job]) -> Machine {
    let runs_before = runner.runs();
    let mut m = Machine::default();
    for job in unique(jobs) {
        match job {
            Job::Key(key) => m.add(&runner.run(key).stats),
            Job::Config(kind, cfg) => m.add(&runner.run_config(kind, *cfg).stats),
            Job::Cpi(key) => {
                let b = runner.run_cpi(key);
                m.cycles += b.cycles;
                m.committed += b.committed;
            }
        }
    }
    assert_eq!(runner.runs(), runs_before, "memo lookups must not simulate");
    m
}

pub fn traced(ctx: &Ctx, trace: &mut Trace) -> Result<Traced, String> {
    let mut f = setup(ctx, 0)?;
    let gens = figures::all();
    let mark = trace.mark();
    let mut out = Traced::default();
    let mut tables = Vec::with_capacity(gens.len());
    let mut jobs = Vec::new();
    let mut replayed = HashSet::new();
    let mut built = std::collections::HashMap::new();
    let mut m = Machine::default();
    let root_op = trace.new_op();
    let root = trace.enter("bench.report", root_op);
    for generator in &gens {
        // Each generator is one job: its table, then a replay of the runs
        // it newly demanded through the lower layers — build, simulate,
        // check, what the runner does inside it — right after it, so both
        // see the same host speed.
        let op = trace.new_op();
        tables.extend(trace.span("figures.gen", op, |_| {
            generate(&mut f.runner, std::slice::from_ref(generator))
        }));
        let demand = demanded(std::slice::from_ref(generator));
        let replay = trace.enter("bench.replay", op);
        for job in unique(&demand) {
            if !replayed.insert(job.clone()) {
                continue;
            }
            let (kind, config, cpi) = match job {
                Job::Key(key) => (key.kind, key.to_config(), false),
                Job::Config(kind, cfg) => (kind, *cfg, false),
                Job::Cpi(key) => (key.kind, key.to_config(), true),
            };
            let w = workload(kind, Scale::Paper);
            let program = match built.entry((kind, config.threads)) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let p = trace.span("workloads.build", op, |_| w.build(config.threads));
                    e.insert(p.map_err(|e| format!("{kind:?} does not build: {e}"))?)
                }
            };
            let (sim, stats) = trace.span("core.run", op, |_| {
                let width = config.block_size as u32;
                let mut sim = Simulator::new(config, program);
                let stats = if cpi {
                    sim.run_traced(&mut CpiStack::new(width))
                } else {
                    sim.run()
                };
                (sim, stats)
            });
            let stats = stats.map_err(|e| format!("{kind:?} replay failed: {e}"))?;
            let ok = trace.span("workloads.check", op, |_| {
                w.check(sim.memory().words()).is_ok()
            });
            out.rep
                .check(ok, || format!("{kind:?}: replayed run fails its check"));
            // Counted as the memo counts them: CPI-stack runs by cycles
            // and commits only.
            if cpi {
                m.cycles += stats.cycles;
                m.committed += stats.committed_total();
            } else {
                m.add(&stats);
            }
        }
        trace.exit(replay);
        jobs.extend(demand);
    }
    trace.exit(root);
    out.workload_s = trace.total(mark, "figures.gen");
    check_tables(&mut out.rep, &gens, &tables, f.expected);
    out.rep.sim_cycles = f.runner.sim_cycles();
    if out.rep.failed == 0 {
        let memo = machine(&mut f.runner, &jobs);
        out.rep.guard = memo.guard();
        out.rep.check(
            m.cycles == memo.cycles && m.committed == memo.committed,
            || {
                format!(
                    "replay simulated {} cycles / {} commits, the runner {} / {}",
                    m.cycles, m.committed, memo.cycles, memo.committed
                )
            },
        );
    }

    let v = &mut out.values;
    let gen_s = trace.total(mark, "figures.gen");
    let core_s = trace.total(mark, "core.run");
    let build_s = trace.total(mark, "workloads.build");
    let check_s = trace.total(mark, "workloads.check");
    v.set("figures.gen_s", gen_s);
    v.set("runner.runs", f.runner.runs() as f64);
    v.set("runner.demanded", jobs.len() as f64);
    v.set(
        "runner.memo_hit_ratio",
        1.0 - f.runner.runs() as f64 / jobs.len().max(1) as f64,
    );
    // A replayed share can exceed the generators' own time when the host
    // slows between a generator and its replay; the runner's share is
    // then unresolved and reads 0.
    v.set(
        "runner.self_s",
        (gen_s - core_s - build_s - check_s).max(0.0),
    );
    v.set(
        "workloads.build_ms",
        stats::median(&trace.secs_of(mark, "workloads.build")) * 1e3,
    );
    v.set("workloads.programs", built.len() as f64);
    set_core(v, core_s, &m);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_split_exactly_as_printed() {
        let text =
            "### A — x\n\n| | a |\n|---|---|\n| r | 1 |\n\n### B — y\n\n| | b |\n|---|---|\n\n";
        let chunks = split_tables(text);
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].starts_with("### A") && chunks[0].ends_with("| r | 1 |\n\n"));
        assert_eq!(chunks.concat(), text);
    }

    #[test]
    fn committed_report_has_one_chunk_per_generator() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/report.md");
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(split_tables(&text).len(), figures::all().len());
    }
}
