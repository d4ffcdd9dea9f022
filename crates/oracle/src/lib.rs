//! Lockstep co-simulation oracle: replays the cycle simulator's
//! architectural commit stream on the functional reference interpreter and
//! diffs every retirement.
//!
//! The cycle machine in `smt-core` and the interpreter in `smt-isa` share
//! one semantics module, so they can only disagree about *which*
//! instructions retire and *what* they observe — exactly the properties
//! that squash recovery, store-to-load forwarding, renaming, and fault
//! precision must preserve. The oracle attaches to a run as an
//! [`Observer`]: at every architecturally retired instruction it steps
//! the interpreter's matching thread once and compares
//!
//! * the **program counter** (control-flow divergence: a wrong-path commit
//!   or a missed squash shows up here first),
//! * the **destination register value** (bad forwarding, lost writeback,
//!   renaming mix-ups),
//! * the **store address and data** (disambiguation bugs),
//! * **fault identity** (kind, address, and pc of a memory fault raised at
//!   commit or at a non-speculative issue).
//!
//! After a clean run the final register file, memory image, and per-thread
//! retirement counts are cross-checked too.
//!
//! What is intentionally **not** compared: anything about *timing* (cycle
//! counts, issue order, commit interleaving across threads — the
//! interpreter has no clock), and the satisfaction timing of `WAIT`. The
//! machine may observe a `POST` increment at writeback before the `POST`
//! retires, so a satisfied `WAIT` can legally reach commit before the
//! increment appears in the replayed stream; the oracle accepts the
//! machine's observation and force-retires the interpreter's `WAIT`
//! (see [`smt_isa::interp::Interp::retire_wait_satisfied`]). A `WAIT`
//! falsely reported satisfied still surfaces downstream, as every value
//! that the premature continuation computes is diffed.
//!
//! The first mismatch is frozen into a [`Divergence`] that reports the
//! retirement index, cycle, scheduling-unit block id, thread, pc, and the
//! surrounding disassembly.

use std::fmt;

use smt_core::{Observer, Retirement, SimConfig, SimError, SimStats, Simulator, Snapshot};
use smt_isa::interp::{Interp, InterpError, Progress};
use smt_isa::semantics::effective_addr;
use smt_isa::{Opcode, Program, Reg, WORD_BYTES};
use smt_mem::MemError;

/// How a retirement disagreed with the reference interpreter.
#[derive(Clone, Debug, PartialEq)]
pub enum DivergenceKind {
    /// The stream retires a pc the reference thread is not at.
    Pc {
        /// The pc the reference thread would execute next.
        reference: usize,
    },
    /// A retirement arrived for a thread the reference already halted.
    AfterHalt,
    /// Destination register committed a different value.
    Dest {
        /// Destination register.
        reg: Reg,
        /// Value the simulator committed.
        sim: u64,
        /// Value the reference computed.
        reference: u64,
    },
    /// Store effective address mismatch.
    StoreAddr {
        /// Address the simulator's store buffered.
        sim: u64,
        /// Address the reference computed.
        reference: u64,
    },
    /// Store data mismatch.
    StoreData {
        /// Data the simulator's store buffered.
        sim: u64,
        /// Data the reference computed.
        reference: u64,
    },
    /// The reference blocked or faulted where the simulator retired.
    Reference(String),
    /// The simulator faulted; the reference executed on cleanly.
    MissingFault {
        /// The fault the simulator raised.
        fault: MemError,
    },
    /// Both faulted, but on different kinds, addresses, or pcs.
    FaultMismatch {
        /// The simulator's fault.
        sim: MemError,
        /// The reference's fault.
        reference: InterpError,
    },
    /// Final architectural state differs after a clean run.
    FinalState(String),
    /// The run itself failed (watchdog, invalid configuration).
    Harness(String),
}

/// The first observed disagreement between the machine and the reference.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Index of the offending retirement in the commit stream (0-based).
    pub seqno: u64,
    /// Cycle the offending block committed (0 when not tied to an event).
    pub cycle: u64,
    /// Scheduling-unit block id (0 when not tied to an event).
    pub block: u64,
    /// Offending thread.
    pub tid: usize,
    /// Program counter of the offending retirement.
    pub pc: usize,
    /// Disassembly of the offending instruction.
    pub disasm: String,
    /// What disagreed.
    pub kind: DivergenceKind,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "divergence at retirement #{} (cycle {}, SU block {}, thread {}, pc {})",
            self.seqno, self.cycle, self.block, self.tid, self.pc
        )?;
        writeln!(f, "  insn: {}", self.disasm)?;
        match &self.kind {
            DivergenceKind::Pc { reference } => {
                write!(f, "  pc mismatch: reference thread is at pc {reference}")
            }
            DivergenceKind::AfterHalt => {
                write!(f, "  retirement after the reference thread halted")
            }
            DivergenceKind::Dest {
                reg,
                sim,
                reference,
            } => write!(f, "  dest {reg}: sim {sim:#x} != reference {reference:#x}"),
            DivergenceKind::StoreAddr { sim, reference } => write!(
                f,
                "  store address: sim {sim:#x} != reference {reference:#x}"
            ),
            DivergenceKind::StoreData { sim, reference } => {
                write!(f, "  store data: sim {sim:#x} != reference {reference:#x}")
            }
            DivergenceKind::Reference(msg) => write!(f, "  reference: {msg}"),
            DivergenceKind::MissingFault { fault } => write!(
                f,
                "  sim faulted ({fault}) but the reference executed on cleanly"
            ),
            DivergenceKind::FaultMismatch { sim, reference } => {
                write!(
                    f,
                    "  fault mismatch: sim `{sim}` != reference `{reference}`"
                )
            }
            DivergenceKind::FinalState(msg) => write!(f, "  final state: {msg}"),
            DivergenceKind::Harness(msg) => write!(f, "  harness: {msg}"),
        }
    }
}

/// Summary of a verified run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Report {
    /// Cycles the simulator took (up to the fault, if any).
    pub cycles: u64,
    /// Instructions architecturally retired.
    pub instructions: u64,
    /// `(tid, pc)` of an agreed memory fault that ended the run, if any.
    pub fault: Option<(usize, usize)>,
}

/// The lockstep oracle. Attach to a run with
/// [`Simulator::run_with`], or use [`verify_mix`] for the whole
/// run-and-diff workflow.
///
/// It holds one reference interpreter per program of the machine's
/// program list: the homogeneous program's runs every thread, and each
/// program of a mix runs its own thread alone, as a 1-thread machine —
/// exactly the mix's architectural contract. Store addresses are
/// localized against the thread's segment base before comparison (the
/// machine's flat backing memory is global; each reference speaks
/// thread-local addresses); memory faults already carry thread-local
/// addresses by construction.
#[derive(Debug)]
pub struct Oracle<'p> {
    programs: Vec<&'p Program>,
    /// `interps[i]` runs `programs[i]`.
    interps: Vec<Interp<'p>>,
    /// Byte offset of each machine thread's data segment in the flat
    /// backing memory ([`Simulator::thread_segment`]).
    bases: Vec<u64>,
    /// How many interpreter steps to search for an expected fault. The
    /// faulting instruction trails the last emitted retirement by at most
    /// the scheduling unit's capacity (its block may commit behind done
    /// older entries that haven't committed yet).
    fault_bound: usize,
    seqno: u64,
    divergence: Option<Box<Divergence>>,
    confirmed_fault: Option<(usize, usize)>,
}

impl<'p> Oracle<'p> {
    /// Creates an oracle for a machine whose thread `t` has its data
    /// segment `bases[t]` bytes into the flat memory, running either one
    /// program on every thread or `programs[t]` on thread `t` (the
    /// program list [`Simulator::try_new_mix`] takes). `fault_bound`
    /// should be at least the scheduling-unit depth (use
    /// `config.su_depth`).
    ///
    /// # Panics
    ///
    /// Panics if `programs` holds neither one entry nor one per base.
    #[must_use]
    pub fn new(programs: &[&'p Program], bases: &[u64], fault_bound: usize) -> Self {
        let interps = match programs {
            [p] => vec![Interp::new(p, bases.len())],
            _ => {
                assert_eq!(
                    programs.len(),
                    bases.len(),
                    "one program, or one per thread"
                );
                programs.iter().map(|p| Interp::new(p, 1)).collect()
            }
        };
        Oracle {
            programs: programs.to_vec(),
            interps,
            bases: bases.to_vec(),
            fault_bound: fault_bound.max(4),
            seqno: 0,
            divergence: None,
            confirmed_fault: None,
        }
    }

    /// The first divergence observed, if any.
    #[must_use]
    pub fn divergence(&self) -> Option<&Divergence> {
        self.divergence.as_deref()
    }

    /// Which reference runs machine thread `tid`, and as which of its
    /// threads.
    fn locate(&self, tid: usize) -> (usize, usize) {
        match self.interps.len() {
            1 => (0, tid),
            _ => (tid, 0),
        }
    }

    fn diverge(&mut self, r: &Retirement, kind: DivergenceKind) {
        if self.divergence.is_some() {
            return;
        }
        self.divergence = Some(Box::new(Divergence {
            seqno: self.seqno,
            cycle: r.cycle,
            block: r.block,
            tid: r.tid,
            pc: r.pc,
            disasm: context_disasm(self.programs[self.locate(r.tid).0], r.pc),
            kind,
        }));
    }

    /// Steps thread `tid`'s reference forward expecting it to raise
    /// `fault` at `pc`. Used for commit-time faults (delivered as a stream
    /// event) and issue-time faults of the non-speculative sync ops (which
    /// abort the run without an event). Records a divergence on
    /// disagreement.
    pub fn expect_fault(&mut self, tid: usize, pc: usize, fault: MemError) {
        if self.divergence.is_some() || self.confirmed_fault.is_some() {
            return;
        }
        let template = Retirement {
            cycle: 0,
            block: 0,
            tid,
            pc,
            insn: smt_isa::DecodedInsn::new(smt_isa::Instruction::NOP),
            dest: None,
            mem: None,
            fault: Some(fault),
        };
        let (i, local) = self.locate(tid);
        let interp = &mut self.interps[i];
        // The faulting instruction may trail the last emitted retirement:
        // older same-thread instructions can be done but uncommitted when a
        // non-speculative sync op faults at issue, and a commit fault skips
        // the healthy leading entries of its own block. Walk the reference
        // forward until it faults too.
        for _ in 0..self.fault_bound {
            if interp.is_halted(local) {
                break;
            }
            match interp.step_thread(local) {
                Ok(Progress::Stepped) => {}
                Ok(Progress::Blocked | Progress::Halted) => break,
                Err(reference) => {
                    if faults_match(fault, local, pc, reference) {
                        self.confirmed_fault = Some((tid, pc));
                    } else {
                        self.diverge(
                            &template,
                            DivergenceKind::FaultMismatch {
                                sim: fault,
                                reference,
                            },
                        );
                    }
                    return;
                }
            }
        }
        self.diverge(&template, DivergenceKind::MissingFault { fault });
    }

    fn check(&mut self, r: &Retirement) {
        if let Some(fault) = r.fault {
            self.expect_fault(r.tid, r.pc, fault);
        } else if let Err(kind) = self.replay(r) {
            self.diverge(r, kind);
        }
    }

    /// Steps the retiring thread's reference over one fault-free
    /// retirement, comparing what both sides observe.
    fn replay(&mut self, r: &Retirement) -> Result<(), DivergenceKind> {
        let (i, local) = self.locate(r.tid);
        let interp = &mut self.interps[i];
        if interp.is_halted(local) {
            return Err(DivergenceKind::AfterHalt);
        }
        let reference = interp.thread_pc(local);
        if reference != r.pc {
            return Err(DivergenceKind::Pc { reference });
        }
        // Stores: derive the reference address/data from the *pre-step*
        // register state, then compare against what the machine released to
        // its store buffer.
        if r.op() == Opcode::Sd {
            let insn = self.programs[i]
                .fetch(r.pc)
                .expect("retired pc is inside the text segment");
            let reference = effective_addr(interp.reg(local, insn.rs1), insn.imm);
            let (addr, sim) = r.mem.expect("store retirement carries its access");
            // Wrapping subtraction keeps a cross-segment store (a global
            // address below this thread's base) unequal to every
            // thread-local address instead of panicking.
            let addr = addr.wrapping_sub(self.bases[r.tid]);
            if addr != reference {
                return Err(DivergenceKind::StoreAddr {
                    sim: addr,
                    reference,
                });
            }
            let reference = interp.reg(local, insn.rs2);
            if sim != reference {
                return Err(DivergenceKind::StoreData { sim, reference });
            }
        }
        match interp.step_thread(local) {
            Ok(Progress::Stepped) => {}
            Ok(Progress::Halted) => {
                if r.op() != Opcode::Halt {
                    return Err(DivergenceKind::Reference(
                        "halted on a non-halt retirement".into(),
                    ));
                }
            }
            // The machine observed the flag satisfied (a POST that has
            // executed but not yet retired) — legal; accept.
            Ok(Progress::Blocked) if r.op() == Opcode::Wait => {
                interp.retire_wait_satisfied(local);
            }
            Ok(Progress::Blocked) => {
                return Err(DivergenceKind::Reference(
                    "blocked on a non-wait retirement".into(),
                ));
            }
            Err(e) => {
                return Err(DivergenceKind::Reference(format!(
                    "faulted where the sim retired: {e}"
                )));
            }
        }
        if let Some((reg, sim)) = r.dest {
            let reference = interp.reg(local, reg);
            if reference != sim {
                return Err(DivergenceKind::Dest {
                    reg,
                    sim,
                    reference,
                });
            }
        }
        Ok(())
    }

    /// The first way a finished machine differs from the references:
    /// each reference is compared with the threads it ran — their
    /// register windows, retirement counts and memory segment. A mix
    /// names the thread.
    fn final_state_error(&self, sim: &Simulator<'_>, committed: &[u64]) -> Option<String> {
        let window = sim.reg_file().len() / committed.len();
        let words = sim.memory().words();
        for (i, interp) in self.interps.iter().enumerate() {
            let who = match self.interps.len() {
                1 => String::new(),
                _ => format!("thread {i}: "),
            };
            // Reference `i` ran machine threads `i * n..(i + 1) * n`.
            let n = interp.n_threads();
            let tids = i * n..(i + 1) * n;
            let stride = interp.reg_file().len() / n;
            let (base, span) = sim.thread_segment(tids.start);
            let segment =
                &words[(base / WORD_BYTES) as usize..((base + span) / WORD_BYTES) as usize];
            if !interp.finished() {
                return Some(format!("{who}the reference has not halted"));
            }
            if committed[tids.clone()] != *interp.retired_counts() {
                return Some(format!(
                    "{who}retirement counts differ: sim {:?}, reference {:?}",
                    &committed[tids],
                    interp.retired_counts()
                ));
            }
            if tids.clone().any(|t| {
                sim.reg_file()[t * window..][..window]
                    != interp.reg_file()[(t - tids.start) * stride..][..window]
            }) {
                return Some(format!("{who}register files differ"));
            }
            if segment != interp.mem_words() {
                return Some(format!("{who}memory images differ"));
            }
        }
        None
    }
}

impl Observer for Oracle<'_> {
    fn retired(&mut self, r: &Retirement) {
        if self.divergence.is_none() {
            self.check(r);
        }
        self.seqno += 1;
    }
}

fn faults_match(sim: MemError, tid: usize, pc: usize, reference: InterpError) -> bool {
    match (sim, reference) {
        (
            MemError::OutOfBounds { addr, .. },
            InterpError::OutOfBounds {
                addr: ra,
                tid: rt,
                pc: rp,
            },
        )
        | (
            MemError::Unaligned { addr },
            InterpError::Unaligned {
                addr: ra,
                tid: rt,
                pc: rp,
            },
        ) => addr == ra && tid == rt && pc == rp,
        _ => false,
    }
}

/// Disassembly of `pc` with two instructions of context on each side.
fn context_disasm(program: &Program, pc: usize) -> String {
    use fmt::Write as _;
    let mut out = String::new();
    let lo = pc.saturating_sub(2);
    for p in lo..=pc + 2 {
        let Some(insn) = program.fetch(p) else {
            continue;
        };
        let marker = if p == pc { ">" } else { " " };
        let _ = write!(out, "\n    {marker} {p:4}: {insn}");
    }
    out
}

/// Runs `program` under `config` with the oracle attached and returns the
/// run summary, or the first divergence. Kept beside [`verify_mix`], to
/// which it forwards, because the end-to-end benchmark calls it.
///
/// # Errors
///
/// The first [`Divergence`], as for [`verify_mix`].
pub fn verify(program: &Program, config: SimConfig) -> Result<Report, Box<Divergence>> {
    verify_mix(&[program], config)
}

/// Like [`verify`], but additionally exercises checkpoint/restore (see
/// [`verify_mix_with_checkpoints`], to which it forwards). Kept because
/// the end-to-end benchmark calls it.
///
/// # Errors
///
/// The first [`Divergence`]; snapshot encode/decode/restore failures
/// surface as [`DivergenceKind::Harness`].
///
/// # Panics
///
/// Panics if `every` is zero.
pub fn verify_with_checkpoints(
    program: &Program,
    config: SimConfig,
    every: u64,
) -> Result<Report, Box<Divergence>> {
    verify_mix_with_checkpoints(&[program], config, every)
}

/// Runs a machine over `programs` — one program on every thread, or
/// `programs[t]` on thread `t` (see [`Simulator::try_new_mix`]) — under
/// `config` with the [`Oracle`] attached, and returns the run summary,
/// or the first divergence. After a clean run each reference's threads
/// are checked for their final register windows, memory segment, and
/// retirement counts.
///
/// A memory fault is *not* a divergence when the reference faults
/// identically (same kind, address, thread, and pc) — the report then
/// carries the fault location. Final register-file/memory comparison is
/// skipped on fault paths (the machine stops mid-program by design).
///
/// # Errors
///
/// The first [`Divergence`], including harness-level failures (watchdog
/// timeout, invalid configuration or program list) as
/// [`DivergenceKind::Harness`].
pub fn verify_mix(programs: &[&Program], config: SimConfig) -> Result<Report, Box<Divergence>> {
    run_verified(programs, config, None)
}

/// Like [`verify_mix`], but every `every` cycles the run is interrupted,
/// the machine is serialized to the snapshot wire format, decoded back,
/// and its whole state **replaced** by the decoded snapshot
/// ([`Simulator::restore_into`]); it then continues under the same
/// oracle. A clean report therefore certifies not only that the commit
/// stream matches the reference, but that mid-run snapshots are
/// transparent — the stream across every splice point is
/// indistinguishable from an uninterrupted run's.
///
/// # Errors
///
/// The first [`Divergence`]; snapshot encode/decode/restore failures
/// surface as [`DivergenceKind::Harness`].
///
/// # Panics
///
/// Panics if `every` is zero.
pub fn verify_mix_with_checkpoints(
    programs: &[&Program],
    config: SimConfig,
    every: u64,
) -> Result<Report, Box<Divergence>> {
    assert!(every > 0, "checkpoint interval must be positive");
    run_verified(programs, config, Some(every))
}

/// The one verify body: builds the machine and its oracle, runs it —
/// splicing a snapshot round trip in every `every` cycles, if given —
/// and folds the outcome into a [`Report`].
fn run_verified(
    programs: &[&Program],
    config: SimConfig,
    every: Option<u64>,
) -> Result<Report, Box<Divergence>> {
    let mut sim =
        Simulator::try_new_mix(config, programs).map_err(|e| harness_divergence(e.to_string()))?;
    let bases: Vec<u64> = (0..sim.config().threads)
        .map(|t| sim.thread_segment(t).0)
        .collect();
    let mut oracle = Oracle::new(programs, &bases, sim.config().su_depth);
    let outcome = match every {
        None => sim.run_with(&mut oracle),
        Some(every) => run_spliced(&mut sim, &mut oracle, every)?,
    };
    conclude(&sim, oracle, outcome)
}

/// The splice loop of the `*_with_checkpoints` verifiers: runs `sim` under
/// `obs`, and every `every` cycles restores it in place from its own
/// snapshot, after an encode/decode round trip. Returns the run outcome.
fn run_spliced<O: Observer>(
    sim: &mut Simulator<'_>,
    obs: &mut O,
    every: u64,
) -> Result<Result<SimStats, SimError>, Box<Divergence>> {
    loop {
        for _ in 0..every {
            if sim.finished() {
                break;
            }
            if sim.cycle() >= sim.config().max_cycles {
                return Ok(Err(SimError::Watchdog {
                    cycles: sim.config().max_cycles,
                }));
            }
            if let Err(e) = sim.step_with(obs) {
                return Ok(Err(e));
            }
        }
        if sim.finished() {
            // No cycles left to run: this only finalizes the statistics,
            // exactly as an uninterrupted `run_with` would.
            return Ok(sim.run_with(obs));
        }
        let bytes = sim.checkpoint().to_bytes();
        let snap = Snapshot::from_bytes(&bytes)
            .map_err(|e| harness_divergence(format!("snapshot decode: {e}")))?;
        sim.restore_into(&snap)
            .map_err(|e| harness_divergence(format!("snapshot restore: {e}")))?;
    }
}

fn harness_divergence(msg: String) -> Box<Divergence> {
    Box::new(Divergence {
        seqno: 0,
        cycle: 0,
        block: 0,
        tid: 0,
        pc: 0,
        disasm: String::new(),
        kind: DivergenceKind::Harness(msg),
    })
}

/// Epilogue of every verifier: folds the run outcome, any recorded
/// divergence, and the final-state diff into a [`Report`].
fn conclude(
    sim: &Simulator<'_>,
    mut oracle: Oracle<'_>,
    outcome: Result<SimStats, SimError>,
) -> Result<Report, Box<Divergence>> {
    match outcome {
        Ok(stats) => {
            if let Some(d) = oracle.divergence.take() {
                return Err(d);
            }
            if let Some(msg) = oracle.final_state_error(sim, &stats.committed) {
                return Err(Box::new(Divergence {
                    seqno: oracle.seqno,
                    cycle: stats.cycles,
                    block: 0,
                    tid: 0,
                    pc: 0,
                    disasm: String::new(),
                    kind: DivergenceKind::FinalState(msg),
                }));
            }
            Ok(Report {
                cycles: stats.cycles,
                instructions: stats.committed_total(),
                fault: None,
            })
        }
        Err(SimError::Mem { err, tid, pc }) => {
            // Commit-time faults arrive as a stream event and are already
            // checked; issue-time faults of the non-speculative sync ops
            // abort without one — check now.
            oracle.expect_fault(tid, pc, err);
            if let Some(d) = oracle.divergence.take() {
                return Err(d);
            }
            debug_assert_eq!(oracle.confirmed_fault, Some((tid, pc)));
            Ok(Report {
                cycles: sim.cycle(),
                instructions: sim.stats().committed.iter().sum(),
                fault: Some((tid, pc)),
            })
        }
        Err(e) => {
            if let Some(d) = oracle.divergence.take() {
                return Err(d);
            }
            Err(harness_divergence(e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_core::FetchPolicy;
    use smt_isa::builder::ProgramBuilder;
    use smt_isa::DecodedInsn;

    fn sum_program() -> Program {
        let mut b = ProgramBuilder::new();
        let out = b.alloc_zeroed(8 * 8);
        let [sum, i, limit, addr] = b.regs();
        b.li(sum, 0);
        b.li(i, 1);
        b.li(limit, 15);
        let top = b.label();
        b.bind(top);
        b.add(sum, sum, i);
        b.addi(i, i, 1);
        b.blt(i, limit, top);
        b.slli(addr, b.tid_reg(), 3);
        b.addi(addr, addr, out as i32);
        b.sd(sum, addr, 0);
        b.halt();
        b.build(8).unwrap()
    }

    #[test]
    fn clean_runs_verify_across_policies_and_threads() {
        let p = sum_program();
        for policy in [
            FetchPolicy::TrueRoundRobin,
            FetchPolicy::MaskedRoundRobin,
            FetchPolicy::ConditionalSwitch,
        ] {
            for threads in [1usize, 2, 4, 8] {
                let config = SimConfig::default()
                    .with_threads(threads)
                    .with_fetch_policy(policy);
                let report =
                    verify(&p, config).unwrap_or_else(|d| panic!("{policy}/{threads}: {d}"));
                assert!(report.fault.is_none());
                assert!(report.instructions > 0);
            }
        }
    }

    #[test]
    fn checkpointed_runs_verify_and_match_uninterrupted_reports() {
        let p = sum_program();
        for threads in [1usize, 2, 4, 8] {
            let config = SimConfig::default().with_threads(threads);
            let plain = verify(&p, config.clone()).unwrap_or_else(|d| panic!("{threads}: {d}"));
            // A one-program list is the homogeneous run at any thread count.
            let listed = verify_mix(&[&p], config.clone())
                .unwrap_or_else(|d| panic!("{threads} as a list: {d}"));
            assert_eq!(listed, plain, "{threads}: one program is homogeneous");
            // A small prime interval lands snapshots on awkward cycles.
            let spliced = verify_with_checkpoints(&p, config.clone(), 13)
                .unwrap_or_else(|d| panic!("{threads} checkpointed: {d}"));
            assert_eq!(spliced, plain, "{threads}: splices must be transparent");
            let spliced = verify_mix_with_checkpoints(&[&p], config, 13)
                .unwrap_or_else(|d| panic!("{threads} checkpointed as a list: {d}"));
            assert_eq!(spliced, plain, "{threads}: list splices are homogeneous");
        }
    }

    #[test]
    fn checkpointed_run_confirms_agreed_faults_too() {
        let mut b = ProgramBuilder::new();
        let r = b.reg();
        b.li(r, 1 << 40);
        b.sd(r, r, 0);
        b.halt();
        let p = b.build(1).unwrap();
        let report = verify_with_checkpoints(&p, SimConfig::default().with_threads(1), 3)
            .expect("faults agree across splices");
        assert!(report.fault.is_some());
    }

    #[test]
    fn agreed_fault_is_not_a_divergence() {
        let mut b = ProgramBuilder::new();
        let r = b.reg();
        b.li(r, 1 << 40);
        b.sd(r, r, 0);
        b.halt();
        let p = b.build(1).unwrap();
        let report = verify(&p, SimConfig::default().with_threads(1)).expect("faults agree");
        let (tid, pc) = report.fault.expect("run ended in a fault");
        assert_eq!(tid, 0);
        assert_eq!(p.fetch(pc).unwrap().op, Opcode::Sd);
    }

    #[test]
    fn synchronized_producer_consumer_verifies() {
        let mut b = ProgramBuilder::new();
        let flag = b.alloc_zeroed(8);
        let slot = b.alloc_zeroed(8);
        let out = b.alloc_zeroed(8 * 8);
        let [fl, sl, v, one, zero, addr] = b.regs();
        b.li(fl, flag as i64);
        b.li(sl, slot as i64);
        b.li(one, 1);
        b.li(zero, 0);
        let consumer = b.label();
        let store = b.label();
        b.bne(b.tid_reg(), zero, consumer);
        b.li(v, 777);
        b.sd(v, sl, 0);
        b.post(fl);
        b.j(store);
        b.bind(consumer);
        b.wait(fl, one);
        b.bind(store);
        b.ld(v, sl, 0);
        b.slli(addr, b.tid_reg(), 3);
        b.addi(addr, addr, out as i32);
        b.sd(v, addr, 0);
        b.halt();
        let p = b.build(4).unwrap();
        for threads in [2usize, 4] {
            verify(&p, SimConfig::default().with_threads(threads))
                .unwrap_or_else(|d| panic!("{threads} threads: {d}"));
        }
    }

    fn blur_like_program() -> Program {
        // Memory-heavy: repeatedly loads neighbours and stores averages.
        let mut b = ProgramBuilder::new();
        let src = b.alloc_zeroed(16 * 8);
        let dst = b.alloc_zeroed(16 * 8);
        let [i, limit, addr, v, w, acc] = b.regs();
        b.li(i, 1);
        b.li(limit, 15);
        let top = b.label();
        b.bind(top);
        b.slli(addr, i, 3);
        b.addi(addr, addr, src as i32);
        b.sd(i, addr, 0);
        b.ld(v, addr, -8);
        b.ld(w, addr, 0);
        b.add(acc, v, w);
        b.addi(addr, addr, (dst as i32) - (src as i32));
        b.sd(acc, addr, 0);
        b.addi(i, i, 1);
        b.blt(i, limit, top);
        b.halt();
        b.build(1).unwrap()
    }

    #[test]
    fn hetero_mixes_verify_across_policies() {
        let a = sum_program();
        let b = blur_like_program();
        for policy in [
            FetchPolicy::TrueRoundRobin,
            FetchPolicy::MaskedRoundRobin,
            FetchPolicy::Icount,
        ] {
            let config = SimConfig::default()
                .with_threads(2)
                .with_fetch_policy(policy);
            let report =
                verify_mix(&[&a, &b], config).unwrap_or_else(|d| panic!("{policy} mix: {d}"));
            assert!(report.fault.is_none());
            assert!(report.instructions > 0);
        }
        // Four threads, two of each program, interleaved.
        let config = SimConfig::default().with_threads(4);
        verify_mix(&[&a, &b, &a, &b], config).unwrap_or_else(|d| panic!("4-thread mix: {d}"));
    }

    #[test]
    fn hetero_checkpointed_runs_match_uninterrupted_reports() {
        let a = sum_program();
        let b = blur_like_program();
        let config = SimConfig::default().with_threads(2);
        let plain = verify_mix(&[&a, &b], config.clone()).unwrap_or_else(|d| panic!("{d}"));
        let spliced = verify_mix_with_checkpoints(&[&a, &b], config, 13)
            .unwrap_or_else(|d| panic!("checkpointed mix: {d}"));
        assert_eq!(spliced, plain, "mix splices must be transparent");
    }

    #[test]
    fn hetero_agreed_fault_is_not_a_divergence() {
        // Thread 1's program faults; thread 0's is healthy. The fault
        // must be confirmed against thread 1's own reference with its
        // thread-local address.
        let healthy = sum_program();
        let mut b = ProgramBuilder::new();
        let r = b.reg();
        b.li(r, 1 << 40);
        b.sd(r, r, 0);
        b.halt();
        let faulty = b.build(1).unwrap();
        let report = verify_mix(&[&healthy, &faulty], SimConfig::default().with_threads(2))
            .expect("fault agrees with thread 1's reference");
        let (tid, pc) = report.fault.expect("run ends in a fault");
        assert_eq!(tid, 1);
        assert_eq!(faulty.fetch(pc).unwrap().op, Opcode::Sd);
    }

    #[test]
    fn mix_store_corruption_is_caught() {
        // Replay a real mix stream with thread 1's store aliased one
        // slot over: the localized compare must trip StoreAddr.
        let a = sum_program();
        let b = blur_like_program();
        let config = SimConfig::default().with_threads(2);
        let mut sim = Simulator::try_new_mix(config.clone(), &[&a, &b]).unwrap();
        struct Capture(Vec<Retirement>);
        impl Observer for Capture {
            fn retired(&mut self, r: &Retirement) {
                self.0.push(*r);
            }
        }
        let mut cap = Capture(Vec::new());
        sim.run_with(&mut cap).unwrap();
        let bases = [sim.thread_segment(0).0, sim.thread_segment(1).0];
        let mut o = Oracle::new(&[&a, &b], &bases, 8);
        let mut corrupted = false;
        for r in &cap.0 {
            let mut r = *r;
            if !corrupted && r.tid == 1 && r.op() == Opcode::Sd {
                let (addr, data) = r.mem.unwrap();
                r.mem = Some((addr + 8, data));
                corrupted = true;
            }
            o.retired(&r);
        }
        assert!(corrupted, "stream contains a thread-1 store");
        let d = o.divergence().expect("aliased store detected");
        assert_eq!(d.tid, 1, "divergence names the corrupted thread");
        assert!(matches!(d.kind, DivergenceKind::StoreAddr { .. }));
    }

    #[test]
    fn final_state_check_compares_each_reference_with_its_threads() {
        // Withholding thread 1's `halt` from the oracle leaves the
        // reference that runs thread 1 unhalted; a mix names the thread.
        struct SkipHalt<'o, 'p>(&'o mut Oracle<'p>);
        impl Observer for SkipHalt<'_, '_> {
            fn retired(&mut self, r: &Retirement) {
                if r.tid != 1 || r.op() != Opcode::Halt {
                    self.0.retired(r);
                }
            }
        }
        let a = sum_program();
        let b = blur_like_program();
        let config = SimConfig::default().with_threads(2);
        for (programs, want) in [
            (&[&a][..], "the reference has not halted"),
            (&[&a, &b][..], "thread 1: the reference has not halted"),
        ] {
            let mut sim = Simulator::try_new_mix(config.clone(), programs).unwrap();
            let bases = [sim.thread_segment(0).0, sim.thread_segment(1).0];
            let mut oracle = Oracle::new(programs, &bases, 8);
            let outcome = sim.run_with(&mut SkipHalt(&mut oracle));
            let d = conclude(&sim, oracle, outcome).expect_err("thread 1 never halted");
            assert_eq!(d.kind, DivergenceKind::FinalState(want.into()));
        }
    }

    /// Feeding the oracle a corrupted stream by hand proves each check
    /// trips independently of any simulator bug.
    #[test]
    fn synthetic_stream_corruptions_are_caught() {
        let mut b = ProgramBuilder::new();
        let slot = b.alloc_zeroed(8);
        let [v, base] = b.regs();
        b.li(v, 5); //            pc 0
        b.li(base, slot as i64); // pc 1 (may span several insns — use decoded pcs)
        b.sd(v, base, 0);
        b.halt();
        let p = b.build(1).unwrap();
        // `li v, 5` lowers to `lui v, 0; addi v, v, 5`.
        let event = |pc: usize, value: u64| {
            let insn = DecodedInsn::new(*p.fetch(pc).unwrap());
            Retirement {
                cycle: 1,
                block: 0,
                tid: 0,
                pc,
                insn,
                dest: insn.dest.map(|rd| (rd, value)),
                mem: None,
                fault: None,
            }
        };

        // Wrong pc: the reference is at the entry, stream claims pc 1.
        let mut o = Oracle::new(&[&p], &[0], 8);
        o.retired(&event(1, 5));
        assert!(matches!(
            o.divergence().unwrap().kind,
            DivergenceKind::Pc { .. }
        ));

        // Wrong dest value: the `addi` writes 5, stream claims 6.
        let mut o = Oracle::new(&[&p], &[0], 8);
        o.retired(&event(0, 0)); // lui v, 0 — correct
        assert!(o.divergence().is_none());
        o.retired(&event(1, 6));
        let d = o.divergence().expect("value corruption detected").clone();
        assert_eq!(
            d.kind,
            DivergenceKind::Dest {
                reg: v,
                sim: 6,
                reference: 5,
            }
        );
        assert!(d.to_string().contains("dest"));

        // Missing fault: stream claims a fault the reference won't raise.
        let mut o = Oracle::new(&[&p], &[0], 8);
        let mut e = event(0, 0);
        e.dest = None;
        e.fault = Some(MemError::OutOfBounds {
            addr: 1 << 40,
            size: 64,
        });
        o.retired(&e);
        assert!(matches!(
            o.divergence().unwrap().kind,
            DivergenceKind::MissingFault { .. }
        ));
    }

    #[test]
    fn store_corruption_is_caught_before_the_reference_steps() {
        let mut b = ProgramBuilder::new();
        let slot = b.alloc_zeroed(16);
        let [v, base] = b.regs();
        b.li(v, 9);
        b.li(base, slot as i64);
        b.sd(v, base, 0);
        b.halt();
        let p = b.build(1).unwrap();
        // Drive the reference to the store by replaying the real stream
        // prefix, then corrupt the store's address.
        let mut sim = Simulator::new(SimConfig::default().with_threads(1), &p);
        struct Capture(Vec<Retirement>);
        impl Observer for Capture {
            fn retired(&mut self, r: &Retirement) {
                self.0.push(*r);
            }
        }
        let mut cap = Capture(Vec::new());
        sim.run_with(&mut cap).unwrap();
        let mut o = Oracle::new(&[&p], &[0], 8);
        for r in &cap.0 {
            let mut r = *r;
            if r.op() == Opcode::Sd {
                let (addr, data) = r.mem.unwrap();
                r.mem = Some((addr + 8, data)); // aliased to the wrong slot
            }
            o.retired(&r);
        }
        assert!(matches!(
            o.divergence().expect("address corruption detected").kind,
            DivergenceKind::StoreAddr { .. }
        ));
    }
}
