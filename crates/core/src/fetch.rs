//! The instruction unit: per-thread program counters and the fetch
//! policies — the three of Section 5.1 plus occupancy-driven ICOUNT.
//!
//! One selected thread fetches one block of up to `fetch_width` contiguous
//! instructions per port per cycle ("Instructions fetched in one cycle all
//! belong to the same thread, but fetching in different cycles is done from
//! different streams" — with more than one port, each port serves a
//! distinct thread). The unit consults the configured branch predictor so
//! a predicted-taken control transfer ends the block and redirects the
//! thread's PC speculatively.

use smt_isa::{DecodedInsn, Opcode, Program};
use smt_uarch::{Predictor, Tag};

use crate::config::FetchPolicy;

/// One fetched instruction with its fetch-time prediction.
#[derive(Clone, Copy, Debug)]
pub struct FetchedInsn {
    /// Instruction index.
    pub pc: usize,
    /// The predecoded instruction.
    pub insn: DecodedInsn,
    /// Fetch-time prediction: taken?
    pub predicted_taken: bool,
    /// Fetch-time predicted target (valid when `predicted_taken`).
    pub predicted_target: usize,
}

/// A block fetched in one cycle, owned by a single thread.
#[derive(Clone, Debug)]
pub struct FetchedBlock {
    /// Owning thread.
    pub tid: usize,
    /// 1..=block_size instructions.
    pub insns: Vec<FetchedInsn>,
    /// Cycle the block was fetched (stamped by the simulator's fetch
    /// stage; lifecycle tracing reports it as the `F` stage start).
    pub fetched_at: u64,
}

#[derive(Clone, Debug)]
struct ThreadState {
    pc: usize,
    /// A `halt` was fetched: stop fetching until squash-redirect or retire.
    fetch_halted: bool,
    /// A decoded `wait` suspends fetch until the tag writes back.
    suspended_on: Option<Tag>,
    /// PC to resume at when the suspension lifts.
    resume_pc: usize,
    /// The thread's `halt` has committed.
    retired: bool,
    /// Masked Round Robin: excluded while true.
    masked: bool,
    /// Conditional Switch: the decoder saw a trigger instruction.
    switch_pending: bool,
    /// Speculation-depth limit hit: the thread has too many unresolved
    /// conditional branches in flight, so it cannot fetch this cycle
    /// (True Round Robin wastes its slot, like a suspension). Transient —
    /// the simulator's fetch stage recomputes it from the scheduling unit
    /// every cycle before selection, so it is never serialized and resets
    /// to `false` on restore.
    spec_stalled: bool,
}

/// The multithreaded instruction unit.
#[derive(Clone)]
pub struct InstructionUnit {
    threads: Vec<ThreadState>,
    policy: FetchPolicy,
    width: usize,
    /// Fetch blocks start at multiples of `width` (Section 6 model).
    aligned: bool,
    /// True Round Robin position ("a modulo N binary counter").
    rr: usize,
    /// Conditional Switch active thread.
    active: usize,
    /// Recycled fetch-group storage. The fetch queue keeps several groups
    /// in flight (multi-port fetch, decode backpressure), so a small pool —
    /// not a single spare — is what keeps the fetch path allocation-free in
    /// steady state. Squashed and dropped groups return here too.
    pool: Vec<Vec<FetchedInsn>>,
}

impl InstructionUnit {
    /// Creates the unit with all threads at `entry`, with free block
    /// placement.
    #[must_use]
    pub fn new(n_threads: usize, policy: FetchPolicy, entry: usize, width: usize) -> Self {
        Self::with_alignment(n_threads, policy, entry, width, false)
    }

    /// Creates the unit, choosing aligned or free fetch-block placement.
    ///
    /// # Panics
    ///
    /// Panics if `aligned` is requested with a non-power-of-two width.
    #[must_use]
    pub fn with_alignment(
        n_threads: usize,
        policy: FetchPolicy,
        entry: usize,
        width: usize,
        aligned: bool,
    ) -> Self {
        Self::with_entries(policy, &vec![entry; n_threads], width, aligned)
    }

    /// Creates the unit with one entry point per thread — heterogeneous
    /// mixes run a distinct program per hardware thread, so each thread
    /// starts at its own program's entry.
    ///
    /// # Panics
    ///
    /// Panics if `aligned` is requested with a non-power-of-two width.
    #[must_use]
    pub fn with_entries(
        policy: FetchPolicy,
        entries: &[usize],
        width: usize,
        aligned: bool,
    ) -> Self {
        assert!(
            !aligned || width.is_power_of_two(),
            "aligned fetch needs a power-of-two block size"
        );
        let mut iu = InstructionUnit {
            threads: Vec::with_capacity(entries.len()),
            policy,
            width,
            aligned,
            rr: 0,
            active: 0,
            pool: Vec::new(),
        };
        iu.reset(entries.iter().copied());
        iu
    }

    /// Returns the unit to its cold state — one thread per entry point,
    /// each fetching from its entry, and the policy cursors at thread 0 —
    /// keeping its storage, the fetch-group pool included.
    pub fn reset(&mut self, entries: impl IntoIterator<Item = usize>) {
        self.threads.clear();
        self.threads
            .extend(entries.into_iter().map(|entry| ThreadState {
                pc: entry,
                fetch_halted: false,
                suspended_on: None,
                resume_pc: entry,
                retired: false,
                masked: false,
                switch_pending: false,
                spec_stalled: false,
            }));
        self.rr = 0;
        self.active = 0;
    }

    /// Number of threads.
    #[must_use]
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// Whether the thread still participates in fetch rotation at all.
    fn in_rotation(&self, tid: usize) -> bool {
        let t = &self.threads[tid];
        !t.retired && !t.fetch_halted
    }

    /// Whether the thread could actually fetch this cycle.
    fn fetchable(&self, tid: usize) -> bool {
        let t = &self.threads[tid];
        self.in_rotation(tid) && t.suspended_on.is_none() && !t.spec_stalled
    }

    /// Selects the thread that owns this cycle's (single) fetch slot —
    /// [`select_fetch`](Self::select_fetch) with no occupancy signal and
    /// no exclusions.
    pub fn select(&mut self) -> Option<usize> {
        self.select_fetch(&[], 0)
    }

    /// Selects the thread that owns one fetch slot this cycle, advancing
    /// the policy state. Returns `None` when the slot is wasted (True
    /// Round Robin grants a slot to a waiting thread) or no thread can
    /// fetch.
    ///
    /// `occupancy[tid]` is the per-thread count of instructions resident
    /// in the front end and scheduling unit — the ICOUNT priority signal;
    /// threads past the slice's end count as empty (only ICOUNT reads it).
    /// `exclude` is a bitmask of threads that already won a fetch port
    /// this cycle: a multi-ported front end fetches *distinct* threads, so
    /// every policy skips them (for Conditional Switch the second port
    /// serves a sibling without moving the active thread or consuming an
    /// armed switch signal).
    pub fn select_fetch(&mut self, occupancy: &[u32], exclude: u32) -> Option<usize> {
        let n = self.threads.len();
        let excluded = |tid: usize| exclude & (1 << tid) != 0;
        match self.policy {
            FetchPolicy::TrueRoundRobin => {
                // Rotate over threads still in the rotation; a suspended
                // thread consumes (wastes) its slot, per the paper: the
                // counter advances "irrespective of the state of execution".
                // A thread that already holds a port this cycle is skipped
                // outright — a second port never re-grants the same stream.
                for step in 0..n {
                    let tid = (self.rr + step) % n;
                    if self.in_rotation(tid) && !excluded(tid) {
                        self.rr = (tid + 1) % n;
                        return self.fetchable(tid).then_some(tid);
                    }
                }
                None
            }
            FetchPolicy::MaskedRoundRobin => {
                // Skip masked and waiting threads instead of wasting slots.
                for step in 0..n {
                    let tid = (self.rr + step) % n;
                    if self.fetchable(tid) && !self.threads[tid].masked && !excluded(tid) {
                        self.rr = (tid + 1) % n;
                        return Some(tid);
                    }
                }
                None
            }
            FetchPolicy::ConditionalSwitch => {
                if excluded(self.active) {
                    // A secondary port: serve the nearest fetchable sibling
                    // without moving the active thread or consuming an
                    // armed switch signal.
                    for step in 1..n {
                        let tid = (self.active + step) % n;
                        if self.fetchable(tid) && !excluded(tid) {
                            return Some(tid);
                        }
                    }
                    return None;
                }
                let must_switch =
                    self.threads[self.active].switch_pending || !self.fetchable(self.active);
                if must_switch {
                    for step in 1..n {
                        let tid = (self.active + step) % n;
                        if self.fetchable(tid) && !excluded(tid) {
                            self.threads[self.active].switch_pending = false;
                            self.active = tid;
                            return Some(tid);
                        }
                    }
                    // No *sibling* to switch to; stay if the active thread
                    // can fetch. The pending switch signal stays armed so
                    // the switch happens as soon as a sibling becomes
                    // fetchable — the old code let the search fall through
                    // to the active thread itself and consumed the signal,
                    // dropping the request entirely.
                    self.fetchable(self.active).then_some(self.active)
                } else {
                    Some(self.active)
                }
            }
            FetchPolicy::Icount => {
                // Lowest front-end + scheduling-unit occupancy wins; ties
                // break in rotation order starting at the cursor, which
                // then advances past the winner so equally empty threads
                // share the port fairly.
                let mut best: Option<usize> = None;
                let occ = |tid: usize| occupancy.get(tid).copied().unwrap_or(0);
                for step in 0..n {
                    let tid = (self.rr + step) % n;
                    if !self.fetchable(tid) || excluded(tid) {
                        continue;
                    }
                    if best.is_none_or(|b| occ(tid) < occ(b)) {
                        best = Some(tid);
                    }
                }
                if let Some(tid) = best {
                    self.rr = (tid + 1) % n;
                }
                best
            }
        }
    }

    /// Fetches a block for `tid`, consulting `predictor` for control
    /// transfers and advancing the thread's speculative PC. Returns `None`
    /// if the PC has run off the text segment (wrong-path overrun — a squash
    /// will redirect).
    pub fn fetch_block(
        &mut self,
        tid: usize,
        program: &Program,
        predictor: &mut Predictor,
    ) -> Option<FetchedBlock> {
        debug_assert!(self.fetchable(tid), "fetching for an unfetchable thread");
        let mut pc = self.threads[tid].pc;
        let mut insns = self.group_storage();
        // Aligned mode: the block spans [start, start + width); entering it
        // mid-way forfeits the leading slots.
        let block_end = if self.aligned {
            (pc & !(self.width - 1)) + self.width
        } else {
            pc + self.width
        };
        while pc < block_end {
            let Some(&insn) = program.fetch_decoded(pc) else {
                break;
            };
            let mut fetched = FetchedInsn {
                pc,
                insn,
                predicted_taken: false,
                predicted_target: 0,
            };
            match insn.op {
                Opcode::Halt => {
                    insns.push(fetched);
                    self.threads[tid].fetch_halted = true;
                    pc += 1;
                    break;
                }
                _ if insn.is_control() => {
                    let p = predictor.predict(tid, pc);
                    fetched.predicted_taken = p.taken;
                    fetched.predicted_target = p.target;
                    insns.push(fetched);
                    if p.taken {
                        pc = p.target;
                        break;
                    }
                    pc += 1;
                }
                _ => {
                    insns.push(fetched);
                    pc += 1;
                }
            }
        }
        self.threads[tid].pc = pc;
        if insns.is_empty() {
            self.pool.push(insns);
            None
        } else {
            Some(FetchedBlock {
                tid,
                insns,
                fetched_at: 0,
            })
        }
    }

    /// Empty storage for one fetch group: a recycled buffer when the pool
    /// holds one, so steady-state fetch (and snapshot decode of the fetch
    /// queue) allocates nothing.
    pub fn group_storage(&mut self) -> Vec<FetchedInsn> {
        let mut insns = self.pool.pop().unwrap_or_default();
        insns.reserve(self.width);
        insns
    }

    /// Returns a consumed fetch group's storage for reuse by the next
    /// [`fetch_block`](Self::fetch_block). The pool is bounded by the
    /// number of groups that can be in flight at once, so it never grows
    /// past a handful of buffers; a cap guards the pathological case.
    pub fn recycle(&mut self, mut storage: Vec<FetchedInsn>) {
        if self.pool.len() < 2 * self.threads.len() + 2 {
            storage.clear();
            self.pool.push(storage);
        }
    }

    /// Squash recovery: redirect the thread to `pc` and clear speculative
    /// fetch state (halt seen on the wrong path, wrong-path suspension).
    pub fn redirect(&mut self, tid: usize, pc: usize) {
        let t = &mut self.threads[tid];
        t.pc = pc;
        t.fetch_halted = false;
        t.suspended_on = None;
    }

    /// Decode-time PC fix (unconditional jump resolved at decode). Keeps
    /// halt/suspension state untouched.
    pub fn set_pc(&mut self, tid: usize, pc: usize) {
        self.threads[tid].pc = pc;
    }

    /// Suspends fetch for `tid` until `tag` (a decoded `WAIT`) writes back;
    /// fetch will resume at `resume_pc`.
    pub fn suspend(&mut self, tid: usize, tag: Tag, resume_pc: usize) {
        let t = &mut self.threads[tid];
        t.suspended_on = Some(tag);
        t.resume_pc = resume_pc;
    }

    /// Lifts a suspension waiting on `tag`, if any. Call on `WAIT`
    /// writeback.
    pub fn resume_if(&mut self, tid: usize, tag: Tag) {
        let t = &mut self.threads[tid];
        if t.suspended_on == Some(tag) {
            t.suspended_on = None;
            t.pc = t.resume_pc;
        }
    }

    /// Clears the fetched-a-halt flag. The decoder calls this when it
    /// discards a `halt` that fetch ran into on a fall-through path the
    /// program never takes (e.g. the instruction after an unconditional
    /// jump) — the thread must keep fetching from the corrected PC.
    pub fn clear_fetch_halted(&mut self, tid: usize) {
        self.threads[tid].fetch_halted = false;
    }

    /// Marks the thread's `halt` as committed: it leaves the rotation for
    /// good.
    pub fn retire(&mut self, tid: usize) {
        self.threads[tid].retired = true;
    }

    /// Whether the thread has retired.
    #[must_use]
    pub fn is_retired(&self, tid: usize) -> bool {
        self.threads[tid].retired
    }

    /// Whether every thread has retired.
    #[must_use]
    pub fn all_retired(&self) -> bool {
        self.threads.iter().all(|t| t.retired)
    }

    /// Updates the Masked Round-Robin mask from the bottom reorder-buffer
    /// block: the thread owning a commit-blocked bottom block is masked;
    /// all other threads are unmasked.
    pub fn update_mask(&mut self, bottom: Option<(usize, bool)>) {
        for (tid, t) in self.threads.iter_mut().enumerate() {
            t.masked = matches!(bottom, Some((btid, true)) if btid == tid);
        }
    }

    /// Conditional Switch: the decoder saw a long-latency trigger in `tid`'s
    /// stream.
    pub fn signal_switch(&mut self, tid: usize) {
        self.threads[tid].switch_pending = true;
    }

    /// Sets the speculation-depth stall for `tid`. The simulator's fetch
    /// stage recomputes this for every thread each cycle (from the count
    /// of unresolved conditional branches resident in the scheduling
    /// unit) before any port selects, so the flag never carries stale
    /// state across cycles or through a checkpoint.
    pub fn set_spec_stall(&mut self, tid: usize, stalled: bool) {
        self.threads[tid].spec_stalled = stalled;
    }

    /// Whether the speculation-depth limit currently stalls `tid`.
    #[must_use]
    pub fn is_spec_stalled(&self, tid: usize) -> bool {
        self.threads[tid].spec_stalled
    }

    /// Current speculative fetch PC of `tid` (for tests/debugging).
    #[must_use]
    pub fn pc(&self, tid: usize) -> usize {
        self.threads[tid].pc
    }

    /// Whether fetch for `tid` is suspended on a `WAIT` (debugging).
    #[must_use]
    pub fn is_suspended(&self, tid: usize) -> bool {
        self.threads[tid].suspended_on.is_some()
    }

    /// Whether `tid` has fetched its `halt` (debugging).
    #[must_use]
    pub fn is_fetch_halted(&self, tid: usize) -> bool {
        self.threads[tid].fetch_halted
    }

    /// Whether Masked Round Robin currently excludes `tid` from fetch.
    #[must_use]
    pub fn is_masked(&self, tid: usize) -> bool {
        self.threads[tid].masked
    }

    /// Whether a Conditional-Switch request for `tid` is still armed
    /// (signalled but not yet honoured by a switch).
    #[must_use]
    pub fn has_switch_pending(&self, tid: usize) -> bool {
        self.threads[tid].switch_pending
    }

    /// The thread Conditional Switch currently fetches from (meaningless
    /// under the round-robin policies).
    #[must_use]
    pub fn active_thread(&self) -> usize {
        self.active
    }

    /// Serializes per-thread fetch state and the policy cursors. The
    /// policy, width, and alignment are configuration, not state; the
    /// spare-storage pool is a pure optimization — neither is serialized.
    pub fn save(&self, w: &mut smt_checkpoint::Writer) {
        w.put_usize(self.threads.len());
        for t in &self.threads {
            w.put_usize(t.pc);
            w.put_bool(t.fetch_halted);
            w.put_opt_u64(t.suspended_on.map(Tag::raw));
            w.put_usize(t.resume_pc);
            w.put_bool(t.retired);
            w.put_bool(t.masked);
            w.put_bool(t.switch_pending);
        }
        w.put_usize(self.rr);
        w.put_usize(self.active);
    }

    /// Replaces every thread's fetch state and the policy cursors with
    /// [`save`](Self::save)d state, refusing another thread count or a
    /// cursor past the last thread. Every field is written (the transient
    /// speculation stall cleared), so no reset need precede it.
    pub fn decode(
        &mut self,
        r: &mut smt_checkpoint::Reader<'_>,
    ) -> Result<(), smt_checkpoint::DecodeError> {
        let n_threads = self.threads.len();
        let n = r.take_usize()?;
        if n != n_threads {
            return Err(smt_checkpoint::DecodeError::Malformed(format!(
                "fetch unit: {n} serialized threads, config has {n_threads}"
            )));
        }
        for t in &mut self.threads {
            t.pc = r.take_usize()?;
            t.fetch_halted = r.take_bool()?;
            t.suspended_on = r.take_opt_u64()?.map(Tag::from_raw);
            t.resume_pc = r.take_usize()?;
            t.retired = r.take_bool()?;
            t.masked = r.take_bool()?;
            t.switch_pending = r.take_bool()?;
            t.spec_stalled = false;
        }
        self.rr = r.take_usize()?;
        self.active = r.take_usize()?;
        if self.rr >= n_threads || self.active >= n_threads {
            return Err(smt_checkpoint::DecodeError::Malformed(format!(
                "fetch cursors rr={} active={} for {n_threads} threads",
                self.rr, self.active
            )));
        }
        Ok(())
    }
}

/// Leaves out the fetch-group pool: it is spare storage, not fetch state,
/// and two units in the same state print alike whatever storage they have
/// recycled.
impl std::fmt::Debug for InstructionUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstructionUnit")
            .field("threads", &self.threads)
            .field("policy", &self.policy)
            .field("width", &self.width)
            .field("aligned", &self.aligned)
            .field("rr", &self.rr)
            .field("active", &self.active)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::builder::ProgramBuilder;
    use smt_isa::Reg;

    fn straightline_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let r = b.reg();
        for _ in 0..n {
            b.addi(r, r, 1);
        }
        b.halt();
        b.build(4).unwrap()
    }

    fn unit(n: usize, policy: FetchPolicy) -> InstructionUnit {
        InstructionUnit::new(n, policy, 0, 4)
    }

    fn shared_predictor() -> Predictor {
        Predictor::Shared(smt_uarch::BranchPredictor::new(16))
    }

    #[test]
    fn true_rr_rotates_through_all_threads() {
        let mut iu = unit(3, FetchPolicy::TrueRoundRobin);
        let order: Vec<_> = (0..6).map(|_| iu.select()).collect();
        assert_eq!(
            order,
            vec![Some(0), Some(1), Some(2), Some(0), Some(1), Some(2)]
        );
    }

    #[test]
    fn true_rr_wastes_slot_of_suspended_thread() {
        let mut iu = unit(3, FetchPolicy::TrueRoundRobin);
        let tag = smt_uarch::TagAllocator::new(4).alloc().unwrap();
        iu.suspend(1, tag, 7);
        assert_eq!(iu.select(), Some(0));
        assert_eq!(iu.select(), None, "thread 1's slot is wasted");
        assert_eq!(iu.select(), Some(2));
        iu.resume_if(1, tag);
        assert_eq!(iu.select(), Some(0));
        assert_eq!(iu.select(), Some(1), "resumed thread fetches again");
        assert_eq!(iu.pc(1), 7, "resumes at the stored pc");
    }

    #[test]
    fn masked_rr_skips_masked_and_suspended_threads() {
        let mut iu = unit(3, FetchPolicy::MaskedRoundRobin);
        iu.update_mask(Some((1, true)));
        assert!(!iu.is_masked(0) && iu.is_masked(1) && !iu.is_masked(2));
        assert_eq!(iu.select(), Some(0));
        assert_eq!(iu.select(), Some(2), "masked thread skipped, not wasted");
        iu.update_mask(Some((1, false)));
        assert!(!iu.is_masked(1), "commit-unblocked bottom block unmasks");
        assert_eq!(iu.select(), Some(0));
        assert_eq!(
            iu.select(),
            Some(1),
            "unmasked once the bottom block commits"
        );
    }

    #[test]
    fn mask_rehomes_to_the_new_bottom_block_owner() {
        let mut iu = unit(3, FetchPolicy::MaskedRoundRobin);
        iu.update_mask(Some((2, true)));
        assert!(iu.is_masked(2));
        // The bottom block drained; a different thread's block is now
        // bottom and commit-blocked: exactly the ownership moves.
        iu.update_mask(Some((0, true)));
        assert!(iu.is_masked(0) && !iu.is_masked(1) && !iu.is_masked(2));
        // Empty scheduling unit: nobody is masked.
        iu.update_mask(None);
        assert!((0..3).all(|t| !iu.is_masked(t)));
    }

    #[test]
    fn cswitch_stays_until_triggered() {
        let mut iu = unit(3, FetchPolicy::ConditionalSwitch);
        assert_eq!(iu.select(), Some(0));
        assert_eq!(iu.select(), Some(0));
        iu.signal_switch(0);
        assert_eq!(iu.select(), Some(1));
        assert_eq!(iu.select(), Some(1));
    }

    #[test]
    fn cswitch_pending_switch_survives_until_a_sibling_is_fetchable() {
        let mut iu = unit(2, FetchPolicy::ConditionalSwitch);
        let tag = smt_uarch::TagAllocator::new(4).alloc().unwrap();
        // Thread 1 is suspended: a triggered switch has nowhere to go.
        iu.suspend(1, tag, 0);
        iu.signal_switch(0);
        assert_eq!(iu.select(), Some(0), "stays on the active thread for now");
        assert!(
            iu.has_switch_pending(0),
            "the unhonoured request must stay armed"
        );
        assert_eq!(iu.active_thread(), 0);
        // The sibling wakes up. The switch signal must still be armed —
        // the old code cleared it in the nowhere-to-switch fallback and
        // stuck with thread 0 forever.
        iu.resume_if(1, tag);
        assert_eq!(iu.select(), Some(1), "pending switch fires once possible");
        assert_eq!(iu.active_thread(), 1);
        assert!(!iu.has_switch_pending(0), "consumed by the switch");
        assert_eq!(
            iu.select(),
            Some(1),
            "and the signal is consumed by the switch"
        );
    }

    #[test]
    fn cswitch_switches_away_from_halted_thread() {
        let mut iu = unit(2, FetchPolicy::ConditionalSwitch);
        assert_eq!(iu.select(), Some(0));
        iu.retire(0);
        assert_eq!(iu.select(), Some(1));
    }

    #[test]
    fn retired_threads_leave_the_rotation() {
        let mut iu = unit(2, FetchPolicy::TrueRoundRobin);
        iu.retire(0);
        assert_eq!(iu.select(), Some(1));
        assert_eq!(iu.select(), Some(1), "no slot wasted on the dead thread");
        iu.retire(1);
        assert_eq!(iu.select(), None);
        assert!(iu.all_retired());
    }

    #[test]
    fn fetch_block_stops_at_halt() {
        let program = straightline_program(2); // addi, addi, halt
        let mut iu = unit(1, FetchPolicy::TrueRoundRobin);
        let mut pred = shared_predictor();
        let block = iu.fetch_block(0, &program, &mut pred).unwrap();
        assert_eq!(block.insns.len(), 3);
        assert_eq!(block.insns[2].insn.op, Opcode::Halt);
        // Fetch is now halted: thread no longer selected.
        assert_eq!(iu.select(), None);
    }

    #[test]
    fn fetch_block_truncates_at_predicted_taken_branch() {
        let mut b = ProgramBuilder::new();
        let r = b.reg();
        let top = b.named_label("top");
        b.addi(r, r, 1);
        b.addi(r, r, 1);
        let zero = Reg::TID; // tid 0 == 0 in single-thread tests
        b.beq(zero, zero, top);
        b.halt();
        let program = b.build(1).unwrap();

        let mut iu = unit(1, FetchPolicy::TrueRoundRobin);
        let mut pred = shared_predictor();
        // Cold predictor: block runs through the branch into the halt.
        let block = iu.fetch_block(0, &program, &mut pred).unwrap();
        assert_eq!(block.insns.len(), 4);
        assert!(!block.insns[2].predicted_taken);

        // Train the predictor: the branch (pc 2) is taken to 0.
        pred.update(0, 2, true, 0);
        iu.redirect(0, 0);
        let block = iu.fetch_block(0, &program, &mut pred).unwrap();
        assert_eq!(
            block.insns.len(),
            3,
            "block ends at the predicted-taken branch"
        );
        assert!(block.insns[2].predicted_taken);
        assert_eq!(iu.pc(0), 0, "speculative pc follows the prediction");
    }

    #[test]
    fn fetch_past_text_end_returns_none() {
        let program = straightline_program(0); // just halt at pc 0
        let mut iu = unit(1, FetchPolicy::TrueRoundRobin);
        let mut pred = shared_predictor();
        iu.set_pc(0, 99);
        assert!(iu.fetch_block(0, &program, &mut pred).is_none());
    }

    #[test]
    fn redirect_clears_wrong_path_halt_and_suspension() {
        let mut iu = unit(1, FetchPolicy::TrueRoundRobin);
        let tag = smt_uarch::TagAllocator::new(4).alloc().unwrap();
        iu.suspend(0, tag, 5);
        assert_eq!(iu.select(), None);
        iu.redirect(0, 2);
        assert_eq!(iu.select(), Some(0));
        assert_eq!(iu.pc(0), 2);
    }

    #[test]
    fn icount_prefers_the_emptiest_thread() {
        let mut iu = unit(3, FetchPolicy::Icount);
        // Thread 1 is nearly drained; it must win over fuller siblings.
        assert_eq!(iu.select_fetch(&[8, 1, 5], 0), Some(1));
        assert_eq!(iu.select_fetch(&[8, 1, 5], 0), Some(1), "signal, not state");
        // Once it fills past a sibling, priority moves.
        assert_eq!(iu.select_fetch(&[8, 6, 5], 0), Some(2));
    }

    #[test]
    fn icount_breaks_ties_by_rotating_priority() {
        let mut iu = unit(3, FetchPolicy::Icount);
        // All-equal occupancy degenerates to round robin: the cursor
        // advances past each winner.
        let order: Vec<_> = (0..6).map(|_| iu.select_fetch(&[2, 2, 2], 0)).collect();
        assert_eq!(
            order,
            vec![Some(0), Some(1), Some(2), Some(0), Some(1), Some(2)]
        );
    }

    #[test]
    fn icount_skips_unfetchable_and_excluded_threads() {
        let mut iu = unit(3, FetchPolicy::Icount);
        let tag = smt_uarch::TagAllocator::new(4).alloc().unwrap();
        iu.suspend(1, tag, 0);
        // Thread 1 is emptiest but suspended: no wasted slot under ICOUNT.
        assert_eq!(iu.select_fetch(&[4, 0, 2], 0), Some(2));
        // Port exclusion: thread 2 already fetched this cycle.
        assert_eq!(iu.select_fetch(&[4, 0, 2], 1 << 2), Some(0));
        // Everyone suspended/excluded: nothing to grant.
        assert_eq!(iu.select_fetch(&[4, 0, 2], (1 << 0) | (1 << 2)), None);
    }

    #[test]
    fn icount_treats_missing_occupancy_as_empty() {
        let mut iu = unit(2, FetchPolicy::Icount);
        // A short (or empty) occupancy slice counts unlisted threads as 0;
        // ties then rotate.
        assert_eq!(iu.select(), Some(0));
        assert_eq!(iu.select(), Some(1));
    }

    #[test]
    fn second_port_serves_a_distinct_thread_under_every_policy() {
        for policy in [
            FetchPolicy::TrueRoundRobin,
            FetchPolicy::MaskedRoundRobin,
            FetchPolicy::ConditionalSwitch,
            FetchPolicy::Icount,
        ] {
            let mut iu = unit(2, policy);
            let first = iu.select_fetch(&[0, 0], 0).unwrap();
            let second = iu.select_fetch(&[0, 0], 1 << first);
            assert_eq!(second, Some(1 - first), "{policy}: ports must differ");
            // With a single live thread the second port finds nobody.
            let mut iu = unit(1, policy);
            let first = iu.select_fetch(&[0], 0).unwrap();
            assert_eq!(first, 0);
            assert_eq!(iu.select_fetch(&[0], 1 << 0), None, "{policy}");
        }
    }

    /// Satellite of the speculation-depth knob: the per-policy stall
    /// behaviour when a thread hits its unresolved-branch limit. True
    /// Round Robin *wastes* the stalled thread's slot (the counter
    /// advances "irrespective of the state of execution", exactly like a
    /// suspension); the selective policies skip it and give the slot to a
    /// sibling.
    #[test]
    fn spec_stall_wastes_trr_slot_and_is_skipped_elsewhere() {
        // True Round Robin: the slot is consumed, not redistributed.
        let mut iu = unit(3, FetchPolicy::TrueRoundRobin);
        iu.set_spec_stall(1, true);
        assert!(iu.is_spec_stalled(1));
        assert_eq!(iu.select(), Some(0));
        assert_eq!(iu.select(), None, "stalled thread's slot is wasted");
        assert_eq!(iu.select(), Some(2));
        iu.set_spec_stall(1, false);
        assert_eq!(iu.select(), Some(0));
        assert_eq!(iu.select(), Some(1), "cleared stall fetches again");

        // Masked Round Robin: skipped, no slot lost.
        let mut iu = unit(3, FetchPolicy::MaskedRoundRobin);
        iu.set_spec_stall(1, true);
        assert_eq!(iu.select(), Some(0));
        assert_eq!(iu.select(), Some(2), "selective policy skips the stall");

        // ICOUNT: the emptiest thread loses priority while stalled.
        let mut iu = unit(3, FetchPolicy::Icount);
        iu.set_spec_stall(1, true);
        assert_eq!(iu.select_fetch(&[4, 0, 2], 0), Some(2));
        iu.set_spec_stall(1, false);
        assert_eq!(iu.select_fetch(&[4, 0, 2], 0), Some(1));

        // Conditional Switch: a stalled active thread forces a switch.
        let mut iu = unit(2, FetchPolicy::ConditionalSwitch);
        assert_eq!(iu.select(), Some(0));
        iu.set_spec_stall(0, true);
        assert_eq!(iu.select(), Some(1), "stall switches the active thread");
    }

    #[test]
    fn cswitch_secondary_port_leaves_the_switch_state_alone() {
        let mut iu = unit(3, FetchPolicy::ConditionalSwitch);
        iu.signal_switch(0);
        // Port 1: the armed switch fires, active moves to 1.
        assert_eq!(iu.select_fetch(&[], 0), Some(1));
        assert_eq!(iu.active_thread(), 1);
        iu.signal_switch(1);
        // Port 2 (thread 1 excluded): serves a sibling but must not
        // consume thread 1's pending switch or move `active`.
        assert_eq!(iu.select_fetch(&[], 1 << 1), Some(2));
        assert_eq!(iu.active_thread(), 1, "secondary port must not switch");
        assert!(iu.has_switch_pending(1), "signal stays armed");
        // The next primary grant honours the still-armed switch.
        assert_eq!(iu.select_fetch(&[], 0), Some(2));
        assert_eq!(iu.active_thread(), 2);
    }
}
