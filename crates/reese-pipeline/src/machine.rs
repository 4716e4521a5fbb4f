//! One out-of-order machine for every redundancy policy.
//!
//! [`Core`] owns everything the baseline pipeline, REESE and dispatch
//! duplication share — the front end, fetch queue, RUU, LSQ, functional
//! units, memory hierarchy, the cycle loop, the stop and deadlock checks
//! and finalisation. A [`Redundancy`] policy supplies only what differs:
//! how instructions commit, and whatever extra stages, stall sources and
//! statistics the redundancy adds. Policies are type parameters, so each
//! machine is monomorphised with no dynamic dispatch on the cycle path.

use crate::{
    FetchUnit, Fetched, FuPool, LoadPlan, Lsq, PipelineConfig, PipelineStats, PredictionInfo, Ruu,
    SchedulerMode, Seq, SimError, SimResult, SimStop,
};
use reese_cpu::{Emulator, StepInfo};
use reese_isa::{FuClass, Program};
use reese_mem::MemHierarchy;
use reese_trace::{CycleState, NoopObserver, Observer, Stage, Stream, TraceEvent};
use std::collections::VecDeque;

/// Warm microarchitectural state to seed a restored run with: the
/// cache/TLB hierarchy and the branch unit as some earlier execution
/// left them. Produced by a checkpointing fast-forward pass and
/// consumed by [`Start::Restored`]; both sides must use the same
/// hierarchy and predictor geometry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarmState {
    /// Cache and TLB state.
    pub hierarchy: reese_mem::HierarchySnapshot,
    /// Branch predictor, BTB, and RAS state.
    pub branch: reese_bpred::BranchSnapshot,
}

/// Cycles without a commit after which the simulator declares a
/// deadlock (an internal invariant violation, not a program property).
const DEADLOCK_HORIZON: u64 = 100_000;

/// Where a run begins.
#[derive(Debug)]
pub enum Start<'a> {
    /// A freshly loaded program, fast-forwarded functionally by `skip`
    /// instructions first (SimpleScalar's `-fastfwd`): architectural
    /// state is warm at the start of timing; caches, predictors, and
    /// queues are cold.
    Program {
        /// The program.
        program: &'a Program,
        /// Instructions to execute functionally before timing starts.
        skip: u64,
    },
    /// Mid-program from a checkpoint-restored emulator (see
    /// [`FetchUnit::from_restored`]). Caches and predictors start cold
    /// unless `warm` state is supplied.
    Restored {
        /// The restored emulator, at an instruction boundary (boxed: it
        /// is far larger than the other variant).
        emulator: Box<Emulator>,
        /// Optional warm caches and branch predictors.
        warm: Option<&'a WarmState>,
    },
}

/// Everything one timing run needs: where it starts, when it stops, who
/// watches, and which faults it injects.
///
/// Dynamic sequence numbers are global — they count from program start
/// across a functional skip or a checkpoint restore — so a fault
/// targeting an instruction before the timed region never fires.
///
/// `F` is the machine's fault input: `()` for the baseline, which has
/// nothing to inject into, and a policy-specific type for the redundant
/// machines. A machine therefore cannot be handed faults it would
/// ignore. The constructors leave `F` to inference, so a fault-free spec
/// fits any machine.
///
/// # Example
///
/// ```
/// use reese_pipeline::{PipelineConfig, PipelineSim, RunSpec};
///
/// let prog = reese_isa::assemble(
///     "  li t0, 100\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
/// )?;
/// let sim = PipelineSim::new(PipelineConfig::starting());
/// let r = sim.run_spec(RunSpec::program(&prog).skip(50).limit(100))?;
/// assert_eq!(r.committed_instructions(), 100);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct RunSpec<'a, O = NoopObserver, F = ()> {
    /// Where the run begins.
    pub start: Start<'a>,
    /// Stop once this many instructions commit in the timed region.
    pub limit: u64,
    /// Receives per-instruction events and per-cycle state. Observers
    /// are passive: results are bit-identical with any observer, and
    /// with [`NoopObserver`] the hooks compile away.
    pub observer: O,
    /// The faults to inject.
    pub faults: F,
}

impl<'a, F: Default> RunSpec<'a, NoopObserver, F> {
    /// Runs `program` from its first instruction to `halt`.
    pub fn program(program: &'a Program) -> Self {
        RunSpec::from(Start::Program { program, skip: 0 })
    }

    /// Resumes from a checkpoint-restored emulator, optionally with
    /// warm caches and predictors. Statistics cover the resumed run
    /// only, which is how replay campaigns time a fault window.
    pub fn restored(emulator: Emulator, warm: Option<&'a WarmState>) -> Self {
        let emulator = Box::new(emulator);
        RunSpec::from(Start::Restored { emulator, warm })
    }

    fn from(start: Start<'a>) -> Self {
        RunSpec {
            start,
            limit: u64::MAX,
            observer: NoopObserver,
            faults: F::default(),
        }
    }
}

impl<'a, O, F> RunSpec<'a, O, F> {
    /// Fast-forwards `n` instructions functionally before timing.
    ///
    /// # Panics
    ///
    /// Panics if the spec resumes from a restored emulator.
    pub fn skip(mut self, n: u64) -> Self {
        match &mut self.start {
            Start::Program { skip, .. } => *skip = n,
            Start::Restored { .. } => panic!("a restored run cannot fast-forward"),
        }
        self
    }

    /// Stops after `n` committed instructions.
    pub fn limit(mut self, n: u64) -> Self {
        self.limit = n;
        self
    }

    /// Attaches an observer (pass `&mut observer` to keep it).
    pub fn observe<P: Observer>(self, observer: P) -> RunSpec<'a, P, F> {
        RunSpec {
            start: self.start,
            limit: self.limit,
            observer,
            faults: self.faults,
        }
    }

    /// Sets the faults to inject.
    pub fn faults(mut self, faults: F) -> Self {
        self.faults = faults;
        self
    }
}

/// What a redundancy scheme adds to the shared out-of-order machine.
///
/// [`Core`] runs the cycle loop — commit, writeback, issue, dispatch,
/// fetch — and calls these hooks at the points where schemes differ.
/// The defaults describe a machine without redundancy; a policy
/// overrides only what it changes.
pub trait Redundancy: Sized {
    /// What a successful run returns.
    type Output;
    /// What a failed run returns.
    type Error: From<SimError>;

    /// RUU entries each fetched instruction occupies. With more than
    /// one, copy `k` of fetched instruction `s` is RUU entry
    /// `s * COPIES + k`; the last copy is the primary (dependants
    /// rename against it and it resolves control flow) and the others
    /// are traced as the redundant stream. Dispatch and the commit
    /// bandwidth scale down by the same factor.
    const COPIES: u64 = 1;

    /// The commit stage: retire up to the machine width in order, never
    /// past `limit` commits in total. An error stops the run.
    ///
    /// # Errors
    ///
    /// Whatever the policy treats as fatal (a permanent fault).
    fn commit<O: Observer>(
        &mut self,
        m: &mut Machine<'_>,
        limit: u64,
        obs: &mut O,
    ) -> Result<(), Self::Error>;

    /// The writeback stage.
    fn writeback<O: Observer>(&mut self, m: &mut Machine<'_>, obs: &mut O) {
        m.writeback::<Self, O>(obs);
    }

    /// The issue stage.
    fn issue<O: Observer>(&mut self, m: &mut Machine<'_>, obs: &mut O) {
        let mut budget = m.cfg.width;
        m.issue::<Self, O>(&mut budget, obs);
    }

    /// Whether the policy's own structures are empty (the machine stops
    /// once the pipeline and the policy have both drained).
    fn drained(&self) -> bool {
        true
    }

    /// For idle-cycle skipping: the earliest cycle at which commit or a
    /// policy-owned stage can act, with `m.cycle` meaning "now". Only
    /// called once the shared pipeline is known to be idle this cycle.
    fn wake(&mut self, m: &Machine<'_>) -> Option<u64> {
        m.ruu.head().is_some_and(|e| e.completed).then_some(m.cycle)
    }

    /// Bulk-accounts `cycles` skipped idle cycles.
    fn skip(&mut self, _cycles: u64) {}

    /// Adds the policy's counters to the observer's cycle snapshot.
    fn cycle_state(&self, _state: &mut CycleState) {}

    /// Builds the run's output from the shared result.
    fn finish(self, result: SimResult) -> Self::Output;
}

/// Whether RUU entry `seq` is its instruction's primary copy.
fn is_primary<P: Redundancy>(seq: Seq) -> bool {
    seq % P::COPIES == P::COPIES - 1
}

fn stream_of<P: Redundancy>(seq: Seq) -> Stream {
    if is_primary::<P>(seq) {
        Stream::Primary
    } else {
        Stream::Redundant
    }
}

/// The machine state every policy shares, with the pipeline stages
/// they run unchanged.
pub struct Machine<'c> {
    /// The pipeline configuration.
    pub cfg: &'c PipelineConfig,
    /// The current cycle.
    pub cycle: u64,
    /// The front end.
    pub fetch: FetchUnit,
    /// Fetched instructions awaiting dispatch.
    pub fetchq: VecDeque<Fetched>,
    /// The instruction window.
    pub ruu: Ruu,
    /// The load/store queue.
    pub lsq: Lsq,
    /// The functional units.
    pub fu: FuPool,
    /// Caches and TLBs.
    pub hierarchy: MemHierarchy,
    /// Pipeline statistics.
    pub stats: PipelineStats,
    /// Values printed by committed instructions.
    pub output: Vec<i64>,
    /// Exit code of the committed `halt`.
    pub exit_code: Option<u64>,
    /// The cycle of the most recent commit (for deadlock detection).
    pub last_commit_cycle: u64,
    /// Reused buffers for the per-cycle writeback/issue work lists, so
    /// the steady-state loop never allocates.
    scratch_done: Vec<Seq>,
    scratch_ready: Vec<Seq>,
}

impl<'c> Machine<'c> {
    /// Builds a cold machine at `start`.
    pub fn new(cfg: &'c PipelineConfig, start: Start<'_>) -> Machine<'c> {
        let mut hierarchy = MemHierarchy::new(cfg.hierarchy.clone());
        let fetch = match start {
            Start::Program { program, skip } => {
                let mut fetch = FetchUnit::new(program, cfg.predictor.clone());
                fetch.fast_forward(skip);
                fetch
            }
            Start::Restored { emulator, warm } => {
                let mut fetch = FetchUnit::from_restored(*emulator, cfg.predictor.clone());
                if let Some(w) = warm {
                    fetch.import_branch_state(&w.branch);
                    hierarchy.import_state(&w.hierarchy);
                }
                fetch
            }
        };
        Machine {
            cfg,
            cycle: 0,
            fetch,
            fetchq: VecDeque::with_capacity(cfg.fetch_queue_size),
            ruu: Ruu::with_scheduler(cfg.ruu_size, cfg.scheduler),
            lsq: Lsq::new(cfg.lsq_size),
            fu: FuPool::new(cfg.fu),
            hierarchy,
            stats: PipelineStats::default(),
            output: Vec::new(),
            exit_code: None,
            last_commit_cycle: 0,
            scratch_done: Vec::new(),
            scratch_ready: Vec::new(),
        }
    }

    /// Whether the event-driven scheduler runs (otherwise the per-cycle
    /// scan, kept untouched as the oracle the fast path must match).
    pub fn event_driven(&self) -> bool {
        self.cfg.scheduler == SchedulerMode::EventDriven
    }

    /// Reports `seq` reaching `stage` this cycle.
    #[inline(always)]
    pub fn trace<O: Observer>(&self, obs: &mut O, seq: Seq, pc: u64, stage: Stage, stream: Stream) {
        if O::ENABLED {
            obs.event(TraceEvent {
                cycle: self.cycle,
                seq,
                pc,
                stage,
                stream,
            });
        }
    }

    /// Architecturally commits one instruction (traced as `seq`).
    /// Returns whether it was the `halt`.
    pub fn retire<O: Observer>(&mut self, seq: Seq, info: &StepInfo, obs: &mut O) -> bool {
        self.fetch.on_commit(1);
        self.trace(obs, seq, info.pc, Stage::Commit, Stream::Primary);
        self.stats.committed += 1;
        self.last_commit_cycle = self.cycle;
        if let Some(v) = info.printed {
            self.output.push(v);
        }
        if info.halted {
            self.exit_code = Some(info.result);
        }
        info.halted
    }

    /// Squashes everything in flight and refetches from fetched
    /// instruction `seq` after `penalty` extra cycles.
    pub fn flush_to(&mut self, seq: Seq, penalty: u32) {
        self.ruu.flush_all();
        self.lsq.flush_all();
        self.fetchq.clear();
        self.fu.flush();
        self.fetch
            .flush_to(seq, self.cycle + 1 + u64::from(penalty));
    }

    /// Completes RUU instructions whose execution finishes this cycle,
    /// waking dependants and resolving control flow.
    pub fn writeback<P: Redundancy, O: Observer>(&mut self, obs: &mut O) {
        let mut done = std::mem::take(&mut self.scratch_done);
        match self.cfg.scheduler {
            SchedulerMode::Scan => {
                done.clear();
                done.extend(
                    self.ruu
                        .iter()
                        .filter(|e| e.issued && !e.completed && e.complete_cycle <= self.cycle)
                        .map(|e| e.seq),
                );
            }
            SchedulerMode::EventDriven => self.ruu.take_completions_into(self.cycle, &mut done),
        }
        for seq in done.drain(..) {
            self.ruu.complete(seq);
            let e = self.ruu.get(seq).expect("just completed");
            self.trace(obs, seq, e.info.pc, Stage::Writeback, stream_of::<P>(seq));
            let is_mem = e.is_mem();
            // Control resolves once per instruction, on its primary copy.
            let fetched = (is_primary::<P>(seq) && e.is_control()).then_some(Fetched {
                seq: seq / P::COPIES,
                info: *e.info,
                pred: e.pred,
            });
            if is_mem {
                self.lsq.mark_executed(seq);
            }
            if let Some(fetched) = fetched {
                self.fetch
                    .resolve_control(&fetched, self.cycle, self.cfg.mispredict_penalty);
            }
        }
        self.scratch_done = done;
    }

    /// Out-of-order issue from the RUU: oldest ready instructions first,
    /// bounded by `budget` and functional-unit availability. Returns how
    /// many redundant copies issued.
    pub fn issue<P: Redundancy, O: Observer>(&mut self, budget: &mut usize, obs: &mut O) -> u64 {
        let mut ready = std::mem::take(&mut self.scratch_ready);
        match self.cfg.scheduler {
            SchedulerMode::Scan => {
                ready.clear();
                ready.extend(self.ruu.ready_seqs());
            }
            SchedulerMode::EventDriven => self.ruu.ready_into(&mut ready),
        }
        let event_driven = self.event_driven();
        let mut redundant = 0;
        for seq in ready.drain(..) {
            if *budget == 0 {
                break;
            }
            let e = self.ruu.get(seq).expect("ready seq in window");
            let op = e.info.instr.op;
            // O(1) per-class gate (event mode): `class_free` is exactly
            // `try_issue`'s success condition, so a blocked entry skips
            // on one compare instead of a per-unit probe. Stores need an
            // agen ALU and a port together; loads are never gated — a
            // forwarded load issues without any functional unit.
            if event_driven {
                let blocked = match e.info.mem {
                    None => !self.fu.class_free(op.fu_class(), self.cycle),
                    Some(mem) if mem.is_store => {
                        !(self.fu.class_free(FuClass::IntAlu, self.cycle)
                            && self.fu.class_free(FuClass::MemPort, self.cycle))
                    }
                    Some(_) => false,
                };
                if blocked {
                    continue;
                }
            }
            let latency: u64 = if let Some(mem) = e.info.mem {
                if mem.is_store {
                    if !self.fu.try_issue_mem(op, self.cycle) {
                        continue; // no agen ALU + memory port this cycle
                    }
                    1 + u64::from(self.hierarchy.access_data(mem.addr, true))
                } else {
                    match self.lsq.plan_load(seq, mem.addr, mem.width.bytes()) {
                        LoadPlan::Wait { .. } => continue,
                        LoadPlan::Forward { .. } => {
                            // Store-to-load forwarding: address generation
                            // plus the bypass, no cache port needed.
                            self.stats.loads_forwarded += 1;
                            2
                        }
                        LoadPlan::CacheAccess => {
                            if !self.fu.try_issue_mem(op, self.cycle) {
                                continue;
                            }
                            1 + u64::from(self.hierarchy.access_data(mem.addr, false))
                        }
                    }
                }
            } else {
                if !self.fu.try_issue(op, self.cycle) {
                    continue;
                }
                u64::from(op.latency())
            };
            self.trace(obs, seq, e.info.pc, Stage::Issue, stream_of::<P>(seq));
            self.ruu.mark_issued(seq, self.cycle, self.cycle + latency);
            *budget -= 1;
            self.stats.issued += 1;
            if !is_primary::<P>(seq) {
                redundant += 1;
            }
        }
        self.scratch_ready = ready;
        redundant
    }

    /// In-order dispatch from the fetch queue into the RUU/LSQ, each
    /// instruction as `P::COPIES` entries.
    fn dispatch<P: Redundancy, O: Observer>(&mut self, obs: &mut O) {
        if self.fetchq.is_empty() {
            self.stats.fetch_queue_empty_cycles += 1;
            return;
        }
        let copies = P::COPIES as usize;
        for _ in 0..self.cfg.width / copies {
            let Some(front) = self.fetchq.front() else {
                break;
            };
            if self.ruu.len() + copies > self.ruu.capacity() {
                self.stats.dispatch_stall_ruu_full += 1;
                break;
            }
            if front.info.mem.is_some() && self.lsq.len() + copies > self.lsq.capacity() {
                self.stats.dispatch_stall_lsq_full += 1;
                break;
            }
            let f = self.fetchq.pop_front().expect("checked front");
            for seq in f.seq * P::COPIES..(f.seq + 1) * P::COPIES {
                self.trace(obs, seq, f.info.pc, Stage::Dispatch, stream_of::<P>(seq));
                let pred = if is_primary::<P>(seq) {
                    f.pred
                } else {
                    PredictionInfo::default()
                };
                self.ruu.dispatch(seq, f.info, pred, self.cycle);
                if let Some(mem) = f.info.mem {
                    self.lsq
                        .insert(seq, mem.addr, mem.width.bytes(), mem.is_store);
                }
            }
        }
    }

    /// Fetches new instructions into the fetch queue.
    fn fetch_stage<O: Observer>(&mut self, obs: &mut O) {
        let space = self.cfg.fetch_queue_size - self.fetchq.len();
        if space == 0 {
            return;
        }
        let batch = self
            .fetch
            .fetch_cycle(self.cycle, self.cfg.width, space, &mut self.hierarchy);
        for f in &batch {
            self.trace(obs, f.seq, f.info.pc, Stage::Fetch, Stream::Primary);
        }
        self.fetchq.extend(batch);
    }

    /// The shared part of the cumulative-counter snapshot handed to
    /// [`Observer::cycle`]. Only built when an observer is enabled.
    fn cycle_state(&self) -> CycleState {
        CycleState {
            committed: self.stats.committed,
            issued: self.stats.issued,
            r_issued: 0,
            r_missed: 0,
            dispatch_stall_ruu: self.stats.dispatch_stall_ruu_full,
            dispatch_stall_lsq: self.stats.dispatch_stall_lsq_full,
            fetch_empty: self.stats.fetch_queue_empty_cycles,
            fu_busy: self.fu.busy_by_class(),
            sched_ops: self.ruu.sched_ops(),
            ruu_occ: self.ruu.len(),
            lsq_occ: self.lsq.len(),
            rqueue_occ: 0,
            fetchq_occ: self.fetchq.len(),
        }
    }

    /// Final bookkeeping into the statistics, and the run's result.
    fn finish(mut self, stop: SimStop) -> SimResult {
        self.stats.cycles = self.cycle;
        self.stats.fetched = self.fetch.total_fetched();
        self.stats.branch = self.fetch.branch_stats();
        self.stats.hierarchy = Some(self.hierarchy.stats());
        self.stats.fu_utilisation = FuClass::ALL
            .iter()
            .map(|&c| (c, self.fu.utilisation(c, self.cycle)))
            .collect();
        SimResult {
            stop,
            stats: self.stats,
            output: self.output,
            exit_code: self.exit_code,
            state_digest: self.fetch.state_digest(),
        }
    }
}

/// The out-of-order machine under redundancy policy `P`.
pub struct Core<'c, P> {
    m: Machine<'c>,
    policy: P,
}

impl<'c, P: Redundancy> Core<'c, P> {
    /// Pairs a machine with its policy.
    pub fn new(m: Machine<'c>, policy: P) -> Core<'c, P> {
        Core { m, policy }
    }

    /// Runs until `halt`, until `limit` instructions commit, or until
    /// the configured cycle limit.
    ///
    /// # Errors
    ///
    /// [`SimError::Emulation`] if the program misbehaves,
    /// [`SimError::Deadlock`] on an internal invariant violation, and
    /// whatever the policy's commit stage raises.
    pub fn run<O: Observer>(mut self, limit: u64, mut obs: O) -> Result<P::Output, P::Error> {
        let obs = &mut obs;
        let stop = loop {
            // The cycle hook fires for the *previous* cycle once all its
            // stages have run, so the state it sees is complete; the
            // final cycle's hook fires after the loop breaks.
            if O::ENABLED && self.m.cycle > 0 {
                obs.cycle(self.m.cycle, &self.cycle_state());
            }
            self.m.cycle += 1;
            if self.m.event_driven() {
                self.skip_idle_cycles(obs);
            }

            self.policy.commit(&mut self.m, limit, obs)?;
            if self.m.exit_code.is_some() {
                break SimStop::Halted;
            }
            if self.m.stats.committed >= limit {
                break SimStop::InstructionLimit;
            }
            self.policy.writeback(&mut self.m, obs);
            self.policy.issue(&mut self.m, obs);
            self.m.dispatch::<P, O>(obs);
            self.m.fetch_stage(obs);

            let m = &self.m;
            if m.cfg.max_cycles > 0 && m.cycle >= m.cfg.max_cycles {
                break SimStop::CycleLimit;
            }
            if m.fetch.exhausted()
                && m.fetchq.is_empty()
                && m.ruu.is_empty()
                && self.policy.drained()
            {
                // No more instructions will ever arrive: surface the
                // emulator error that cut the program short.
                if let Some(e) = m.fetch.error() {
                    return Err(SimError::Emulation(e.clone()).into());
                }
                // A program without halt that ran dry (cannot happen for
                // halting programs) — treat as an instruction limit.
                break SimStop::InstructionLimit;
            }
            if m.cycle - m.last_commit_cycle > DEADLOCK_HORIZON {
                return Err(SimError::Deadlock { cycle: m.cycle }.into());
            }
        };
        if O::ENABLED {
            obs.cycle(self.m.cycle, &self.cycle_state());
        }
        Ok(self.policy.finish(self.m.finish(stop)))
    }

    fn cycle_state(&self) -> CycleState {
        let mut state = self.m.cycle_state();
        self.policy.cycle_state(&mut state);
        state
    }

    /// When this cycle provably does nothing — nothing ready to issue,
    /// no completion due, nothing to dispatch, fetch dormant, and the
    /// policy idle — jumps the clock to the next cycle on which any unit
    /// can make progress, bulk-accounting the skipped idle cycles. The
    /// landing cycle then runs through the normal loop body, so the
    /// cycle-limit and deadlock checks fire exactly as in `Scan` mode.
    fn skip_idle_cycles<O: Observer>(&mut self, obs: &mut O) {
        let m = &mut self.m;
        if m.ruu.has_ready() || !m.fetchq.is_empty() {
            return;
        }
        let completion = m.ruu.next_completion_cycle();
        if completion.is_some_and(|t| t <= m.cycle) {
            return;
        }
        let fetch_at = m.fetch.next_fetch_cycle(m.cycle);
        if fetch_at == Some(m.cycle) {
            return;
        }
        // A policy that can act now answers `m.cycle`, which the bound
        // check below turns into "no skip".
        let Some(target) = [completion, fetch_at, self.policy.wake(m)]
            .into_iter()
            .flatten()
            .min()
        else {
            // Nothing will ever wake: let the drain/deadlock path run.
            return;
        };
        let mut target = target.min(m.last_commit_cycle + DEADLOCK_HORIZON + 1);
        if m.cfg.max_cycles > 0 {
            target = target.min(m.cfg.max_cycles);
        }
        if target <= m.cycle {
            return;
        }
        // Cycles `m.cycle..target` are no-ops; the only per-cycle
        // bookkeeping they would have done is the empty-queue counter
        // plus whatever the policy samples.
        let skipped = target - m.cycle;
        m.stats.fetch_queue_empty_cycles += skipped;
        self.policy.skip(skipped);
        if O::ENABLED {
            obs.idle_skip(self.m.cycle, target, &self.cycle_state());
        }
        self.m.cycle = target;
    }
}
