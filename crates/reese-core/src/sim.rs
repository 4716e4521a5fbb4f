//! The REESE time-redundant simulator.

use crate::check::{by_seq, Checker};
use crate::seqmap::{SeqSet, SeqTable};
use crate::{
    DetectionEvent, DurationFault, DurationReport, InjectedFault, RQueue, RQueueEntry, ReeseConfig,
    ReeseError, ReeseFaults, ReeseResult, Stream,
};
use reese_isa::{FuClass, Program};
use reese_pipeline::{Core, Machine, Redundancy, RunSpec, SchedulerMode, Seq, SimResult, Start};
use reese_trace::{CycleState, Observer, Stage, Stream as TStream};

/// The REESE machine: the baseline pipeline plus the R-stream Queue.
///
/// Every instruction executes twice. The primary (P) execution flows
/// through the normal out-of-order pipeline; on completing at the RUU
/// head it migrates — with its operands and result — into the R-stream
/// Queue instead of committing. The redundant (R) execution is issued
/// from the queue into whatever functional units the primary stream
/// leaves idle (or that the configured *spare* units provide), and the
/// two results are compared before the instruction finally commits.
/// A mismatch flushes the pipeline and the queue and re-executes from
/// the faulting instruction; a second consecutive mismatch is reported
/// as a permanent fault.
///
/// # Example
///
/// ```
/// use reese_core::{ReeseConfig, ReeseSim};
///
/// let prog = reese_isa::assemble(
///     "  li t0, 100\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
/// )?;
/// let r = ReeseSim::new(ReeseConfig::starting()).run(&prog)?;
/// assert_eq!(r.committed_instructions(), 202);
/// assert_eq!(r.stats.comparisons, 202); // every instruction re-executed
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReeseSim {
    config: ReeseConfig,
}

impl ReeseSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ReeseConfig::validate`]).
    pub fn new(config: ReeseConfig) -> ReeseSim {
        config.validate();
        ReeseSim { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ReeseConfig {
        &self.config
    }

    /// Runs a program to its `halt` with no injected faults.
    ///
    /// # Errors
    ///
    /// Returns [`ReeseError::Sim`] for program or simulator failures.
    pub fn run(&self, program: &Program) -> Result<ReeseResult, ReeseError> {
        self.run_spec(RunSpec::program(program))
    }

    /// Runs until `halt` or `max_instructions` commits.
    ///
    /// # Errors
    ///
    /// See [`ReeseSim::run`].
    pub fn run_limit(
        &self,
        program: &Program,
        max_instructions: u64,
    ) -> Result<ReeseResult, ReeseError> {
        self.run_spec(RunSpec::program(program).limit(max_instructions))
    }

    /// Runs one [`RunSpec`] with the given [`ReeseFaults`].
    ///
    /// Injected faults name global dynamic sequence numbers, so faults
    /// inside a skipped region or before a restored checkpoint never
    /// fire. A duration fault (§2 of the paper) flips one result bit of
    /// every instruction of the matching functional-unit class that
    /// completes — in either stream — while it is active. If both
    /// executions of an instruction fall inside the window, the
    /// identical corruption passes the comparison silently;
    /// [`ReeseResult::duration`] counts those escapes.
    ///
    /// # Errors
    ///
    /// Returns [`ReeseError::PermanentFault`] if a sticky fault (or a
    /// disturbance outlasting the retry) makes the same instruction fail
    /// comparison twice, or [`ReeseError::Sim`] for underlying failures.
    pub fn run_spec<O: Observer>(
        &self,
        spec: RunSpec<'_, O, ReeseFaults<'_>>,
    ) -> Result<ReeseResult, ReeseError> {
        self.machine(spec.start, spec.faults)
            .run(spec.limit, spec.observer)
    }

    /// The fault-free REESE machine at `start`, to run step by step:
    /// pause it with [`Core::run_until`], clone it, and arm a fault in
    /// the clone with [`ArmFault::arm`].
    pub fn core<'a>(
        &'a self,
        start: Start<'_>,
    ) -> Core<'a, impl ArmFault<Output = ReeseResult, Error = ReeseError> + Clone + 'a> {
        self.machine(start, ReeseFaults::default())
    }

    fn machine(&self, start: Start<'_>, faults: ReeseFaults<'_>) -> Core<'_, RStream<'_>> {
        let m = Machine::new(&self.config.pipeline, start);
        let policy = RStream::new(&self.config, m.fetch.next_seq(), faults);
        Core::new(m, policy)
    }
}

/// A redundancy policy that takes latched-result faults while it runs.
pub trait ArmFault: Redundancy {
    /// Arms `fault` as if it had been handed to the run at its start.
    /// Call it only while `fault.seq` has not executed yet (see
    /// [`Core::run_until`]).
    fn arm(&mut self, fault: InjectedFault);
}

/// REESE's policy: migrate completed instructions into the R-stream
/// Queue, re-execute them in idle and spare units, and compare before
/// commit.
#[derive(Clone)]
struct RStream<'c> {
    cfg: &'c ReeseConfig,
    rqueue: RQueue,
    check: Checker,
    faults: Injector,
    /// Next sequence number to migrate into the R-stream Queue.
    next_migrate_seq: Seq,
    /// Length of the pending-R lookahead window the last idle probe saw,
    /// for the tried/missed accounting of a skip.
    idle_window: u64,
    /// Reused buffers for the per-cycle R writeback/issue work lists.
    scratch_rdone: Vec<Seq>,
    scratch_pending: Vec<Seq>,
}

/// The fault state of one REESE run.
#[derive(Clone)]
struct Injector {
    /// Pending injected faults keyed by target seq.
    pending: SeqTable<Vec<InjectedFault>>,
    /// Cycle each fault first fired, keyed by target seq.
    inject_cycles: SeqTable<u64>,
    duration: Option<DurationFault>,
    report: DurationReport,
    p_hits: SeqSet,
}

impl Injector {
    /// Corrupts one stream's latched result of `entry` with whatever
    /// fires on it at `cycle`: pending injected faults for its seq, and
    /// an active [`DurationFault`] if that execution completed inside
    /// the fault window on the affected functional-unit class.
    fn apply(&mut self, entry: &mut RQueueEntry, stream: Stream, cycle: u64) {
        let (value, done) = match stream {
            Stream::Primary => (&mut entry.p_value, entry.p_complete_cycle),
            Stream::Redundant => (&mut entry.r_value, entry.r_complete_cycle),
        };
        let mut fired = false;
        // Outside injection campaigns the table is empty: skip the probe.
        if !self.pending.is_empty() {
            if let Some(list) = self.pending.get_mut(entry.seq) {
                list.retain(|f| {
                    if f.stream != stream {
                        return true;
                    }
                    *value ^= f.mask();
                    fired = true;
                    f.sticky // transient faults are consumed; sticky ones persist
                });
                if list.is_empty() {
                    self.pending.remove(entry.seq);
                }
            }
        }
        let op_class = entry.info.instr.op.fu_class();
        if let Some(d) = self
            .duration
            .filter(|d| d.class == op_class && d.active_at(done))
        {
            *value ^= d.mask();
            fired = true;
            if stream == Stream::Primary {
                self.report.p_corrupted += 1;
                self.p_hits.insert(entry.seq);
            } else {
                self.report.r_corrupted += 1;
                // Both copies hit inside the window: identical flips, so
                // the comparison will pass — a silent escape (§2).
                self.report.silent_both += u64::from(self.p_hits.contains(entry.seq));
            }
        }
        if fired {
            self.inject_cycles.insert_if_absent(entry.seq, cycle);
        }
    }
}

impl<'c> RStream<'c> {
    fn new(cfg: &'c ReeseConfig, first_seq: Seq, faults: ReeseFaults<'_>) -> RStream<'c> {
        RStream {
            cfg,
            rqueue: RQueue::with_scheduler(cfg.rqueue_size, cfg.pipeline.scheduler),
            check: Checker::new(cfg.rqueue_size),
            faults: Injector {
                pending: by_seq(faults.injected),
                inject_cycles: SeqTable::new(),
                duration: faults.duration,
                report: DurationReport::default(),
                p_hits: SeqSet::new(),
            },
            next_migrate_seq: first_seq,
            idle_window: 0,
            scratch_rdone: Vec::new(),
            scratch_pending: Vec::new(),
        }
    }

    /// Migrate completed instructions from the RUU head into the
    /// R-stream Queue ("the R-stream Queue can be allowed to remove
    /// instructions from the pipeline before the instructions are ready
    /// to commit", §4.3).
    ///
    /// With `early_removal` the RUU entry is popped as it migrates,
    /// freeing window space; otherwise the RUU entry is held until the
    /// comparison commits (the conservative implementation), and only a
    /// copy enters the queue.
    fn migrate<O: Observer>(&mut self, m: &mut Machine<'_>, obs: &mut O) {
        // Size the whole batch up front: one contiguous walk over the
        // completed run at the migration point.
        let run = m.ruu.completed_run_len(self.next_migrate_seq, m.cfg.width);
        if run == 0 {
            return;
        }
        let take = run.min(self.rqueue.capacity() - self.rqueue.len());
        for _ in 0..take {
            let seq = self.next_migrate_seq;
            let (info, p_done) = if self.cfg.early_removal {
                debug_assert_eq!(m.ruu.head().map(|h| h.seq), Some(seq));
                let e = m.ruu.pop_head();
                m.lsq.remove(e.seq);
                (e.info, e.complete_cycle)
            } else {
                let e = m.ruu.get(seq).expect("sized batch is resident");
                (*e.info, e.complete_cycle)
            };
            self.next_migrate_seq = seq + 1;
            m.trace(obs, seq, info.pc, Stage::Migrate, TStream::Primary);
            let skip_r = !seq.is_multiple_of(self.cfg.duplication_period) && !info.halted;
            let mut entry = RQueueEntry::new(seq, info, m.cycle, skip_r).with_p_complete(p_done);
            self.faults.apply(&mut entry, Stream::Primary, m.cycle);
            self.rqueue.push(entry);
        }
        if take < run {
            // The next completed candidate found the queue full: one
            // stall sample per cycle.
            self.check.stats.rqueue_full_stalls += 1;
        }
    }

    /// Issue redundant executions from the front of the R-stream Queue.
    ///
    /// R instructions carry their operands and results, so they are
    /// always data-ready; the only constraints are functional units and
    /// the FIFO lookahead.
    fn issue_redundant<O: Observer>(
        &mut self,
        m: &mut Machine<'_>,
        budget: &mut usize,
        obs: &mut O,
    ) {
        let lookahead = self.cfg.r_issue_lookahead;
        let mut issued_now = 0u64;
        let mut tried = 0u64;
        match m.cfg.scheduler {
            SchedulerMode::Scan => {
                let mut considered = 0usize;
                for entry in self.rqueue.iter_mut() {
                    if *budget == 0 || considered == lookahead {
                        break;
                    }
                    if entry.r_issued || entry.skip_r {
                        continue;
                    }
                    considered += 1;
                    tried += 1;
                    // A blocked entry does not dam the whole queue: the
                    // scheduler may slip past it within the small
                    // lookahead window (limited out-of-order slip, like a
                    // real issue window over the queue's head entries).
                    let Some(latency) = Self::try_r_issue(m, entry, false, obs) else {
                        continue;
                    };
                    entry.r_issued = true;
                    entry.r_complete_cycle = m.cycle + latency;
                    *budget -= 1;
                    issued_now += 1;
                }
            }
            SchedulerMode::EventDriven => {
                // `pending_r_front_into` is exactly the set of entries
                // the scan above would have counted as `considered`: the
                // first `lookahead` un-issued, un-skipped entries in
                // queue (= seq) order (served from the incrementally
                // maintained front window, not a per-cycle ring scan).
                let mut pending = std::mem::take(&mut self.scratch_pending);
                self.rqueue.pending_r_front_into(lookahead, &mut pending);
                for seq in pending.drain(..) {
                    if *budget == 0 {
                        break;
                    }
                    tried += 1;
                    let entry = self.rqueue.get(seq).expect("pending seq in queue");
                    let Some(latency) = Self::try_r_issue(m, entry, true, obs) else {
                        continue;
                    };
                    self.rqueue.mark_r_issued(seq, m.cycle + latency);
                    *budget -= 1;
                    issued_now += 1;
                }
                self.scratch_pending = pending;
            }
        }
        let stats = &mut self.check.stats;
        stats.r_issued += issued_now;
        stats.r_tried += tried;
        stats.r_missed += tried - issued_now;
    }

    /// Starts `entry`'s redundant execution if a functional unit takes
    /// it this cycle, returning its latency. R memory verifications
    /// recompute the effective address on an integer ALU and re-access
    /// the cache through a port, like the primary access, but always hit
    /// in L1 — the primary access warmed it (§4.4) — so they charge the
    /// hit latency and never walk the hierarchy. `gated` applies the
    /// event-driven O(1) per-class check first: `class_free` is exactly
    /// `try_issue`'s success condition, so a busy class skips the entry
    /// without probing per-unit state.
    fn try_r_issue<O: Observer>(
        m: &mut Machine<'_>,
        entry: &RQueueEntry,
        gated: bool,
        obs: &mut O,
    ) -> Option<u64> {
        let op = entry.info.instr.op;
        let is_mem = entry.info.mem.is_some();
        let free = |class| m.fu.class_free(class, m.cycle);
        if gated
            && !(if is_mem {
                free(FuClass::IntAlu) && free(FuClass::MemPort)
            } else {
                free(op.fu_class())
            })
        {
            return None;
        }
        let issued = if is_mem {
            m.fu.try_issue_mem(op, m.cycle)
        } else {
            m.fu.try_issue(op, m.cycle)
        };
        if !issued {
            return None;
        }
        m.trace(
            obs,
            entry.seq,
            entry.info.pc,
            Stage::Issue,
            TStream::Redundant,
        );
        Some(if is_mem {
            1 + u64::from(m.hierarchy.l1d_hit_latency())
        } else {
            u64::from(op.latency())
        })
    }
}

impl ArmFault for RStream<'_> {
    fn arm(&mut self, fault: InjectedFault) {
        self.faults
            .pending
            .get_or_insert_with(fault.seq, Vec::new)
            .push(fault);
    }
}

impl Redundancy for RStream<'_> {
    type Output = ReeseResult;
    type Error = ReeseError;

    /// Commit from the R-stream Queue head: compare P and R results,
    /// then retire (paper Figure 1: comparison sits between writeback
    /// and commit).
    fn commit<O: Observer>(
        &mut self,
        m: &mut Machine<'_>,
        limit: u64,
        obs: &mut O,
    ) -> Result<(), ReeseError> {
        for _ in 0..m.cfg.width {
            if m.stats.committed >= limit {
                break;
            }
            let Some(head) = self.rqueue.head() else {
                break;
            };
            if !head.commit_ready() {
                break;
            }
            if !head.results_match() {
                // Record the detection and flush the machine back to
                // the faulting instruction.
                let seq = head.seq;
                let injected = self.faults.inject_cycles.get(seq).copied();
                let event = DetectionEvent {
                    seq,
                    pc: head.info.pc,
                    detect_cycle: m.cycle,
                    inject_cycle: injected.unwrap_or(m.cycle),
                };
                self.check.mismatch(m, obs, event, (seq, seq))?;
                self.next_migrate_seq = seq;
                self.rqueue.flush_all();
                m.flush_to(seq, self.cfg.flush_penalty);
                break;
            }
            let e = self.rqueue.pop_head().expect("checked head");
            if !self.cfg.early_removal {
                // The RUU entry was held until this comparison: retire
                // it now.
                debug_assert_eq!(m.ruu.head().map(|h| h.seq), Some(e.seq));
                let p = m.ruu.pop_head();
                m.lsq.remove(p.seq);
            }
            let stats = &mut self.check.stats;
            if e.skip_r {
                stats.r_skipped += 1;
            } else {
                stats.comparisons += 1;
                stats
                    .pr_separation
                    .record(e.r_complete_cycle.saturating_sub(e.p_complete_cycle));
                m.trace(obs, e.seq, e.info.pc, Stage::Compare, TStream::Redundant);
            }
            self.check.passed(e.seq);
            if m.retire(e.seq, &e.info, obs) {
                break;
            }
        }
        Ok(())
    }

    /// Writeback for both streams: migration into the queue, P
    /// completions in the RUU (waking dependants, resolving control),
    /// and R completions in the queue.
    fn writeback<O: Observer>(&mut self, m: &mut Machine<'_>, obs: &mut O) {
        self.migrate(m, obs);
        m.writeback::<Self, O>(obs);
        // Redundant completions, in place. Fault application is per-seq
        // and order-independent, so the event wheel's (cycle, seq) pop
        // order is as good as queue order.
        let cycle = m.cycle;
        let mut r_done = std::mem::take(&mut self.scratch_rdone);
        let RStream { rqueue, faults, .. } = self;
        let mut finish = |entry: &mut RQueueEntry| {
            entry.r_completed = true;
            faults.apply(entry, Stream::Redundant, cycle);
            m.trace(
                obs,
                entry.seq,
                entry.info.pc,
                Stage::Writeback,
                TStream::Redundant,
            );
        };
        if m.event_driven() {
            rqueue.take_r_completions_into(cycle, &mut r_done);
            for seq in r_done.drain(..) {
                finish(rqueue.get_mut(seq).expect("completing seq in queue"));
            }
        } else {
            for entry in rqueue.iter_mut() {
                if entry.r_issued && !entry.r_completed && entry.r_complete_cycle <= cycle {
                    finish(entry);
                }
            }
        }
        self.scratch_rdone = r_done;
    }

    /// Issue both streams under a shared width budget. Primary
    /// instructions have priority ("we want to always choose the P
    /// stream instruction, whenever possible", §4.3) until the queue
    /// crosses its high-water mark, at which point the redundant stream
    /// goes first to guarantee forward progress.
    fn issue<O: Observer>(&mut self, m: &mut Machine<'_>, obs: &mut O) {
        let mut budget = m.cfg.width;
        if self.rqueue.len() >= self.cfg.high_water {
            self.check.stats.r_priority_cycles += 1;
            self.issue_redundant(m, &mut budget, obs);
            m.issue::<Self, O>(&mut budget, obs);
        } else {
            m.issue::<Self, O>(&mut budget, obs);
            self.issue_redundant(m, &mut budget, obs);
        }
        // The per-cycle occupancy sample: dispatch and fetch, the
        // stages left this cycle, never change the queue.
        self.check
            .stats
            .rqueue_occupancy
            .record(self.rqueue.len() as u64);
    }

    fn drained(&self) -> bool {
        self.rqueue.is_empty()
    }

    /// REESE can act with a comparable queue head, a migratable RUU
    /// instruction, a due R completion, or pending R work a functional
    /// unit can take. Pending redundant work does not pin the clock to
    /// one cycle at a time: during a skip nothing issues anywhere, so
    /// the pool's per-class free times and the lookahead window are
    /// both static, and the earliest cycle the R stream can move is the
    /// minimum over the window of each entry's needed-class free time
    /// (memory verifications need an address-generation ALU *and* a
    /// port, so they wait for the later of the two).
    fn wake(&mut self, m: &Machine<'_>) -> Option<u64> {
        let now = m.cycle;
        // A completed migration candidate acts this cycle even when the
        // queue is full (it counts a `rqueue_full_stalls` sample).
        if self.rqueue.head().is_some_and(|e| e.commit_ready())
            || m.ruu
                .get(self.next_migrate_seq)
                .is_some_and(|e| e.completed)
        {
            return Some(now);
        }
        let r_wake = self.rqueue.next_r_completion_cycle();
        if r_wake.is_some_and(|t| t <= now) {
            return Some(now);
        }
        self.idle_window = 0;
        let mut fu_wake = None;
        if self.rqueue.has_pending_r() {
            let mut pending = std::mem::take(&mut self.scratch_pending);
            self.rqueue
                .pending_r_front_into(self.cfg.r_issue_lookahead, &mut pending);
            self.idle_window = pending.len() as u64;
            let free_at = |seq: &Seq| {
                let entry = self.rqueue.get(*seq).expect("pending seq in queue");
                if entry.info.mem.is_some() {
                    m.fu.earliest_free(FuClass::IntAlu)
                        .max(m.fu.earliest_free(FuClass::MemPort))
                } else {
                    m.fu.earliest_free(entry.info.instr.op.fu_class())
                }
            };
            fu_wake = pending.iter().map(free_at).min().filter(|&t| t < u64::MAX);
            self.scratch_pending = pending;
        }
        [r_wake, fu_wake].into_iter().flatten().min()
    }

    /// Per-cycle bookkeeping the skipped no-op cycles would have done:
    /// the occupancy sample, the R-priority counter (`issue` counts it
    /// even when nothing issues), and — when pending R work sat blocked
    /// on busy units — the tried/missed accounting the scan-mode
    /// redundant scheduler accrues every cycle it reconsiders the same
    /// window.
    fn skip(&mut self, cycles: u64) {
        let stats = &mut self.check.stats;
        stats
            .rqueue_occupancy
            .record_n(self.rqueue.len() as u64, cycles);
        if self.rqueue.len() >= self.cfg.high_water {
            stats.r_priority_cycles += cycles;
        }
        stats.r_tried += self.idle_window * cycles;
        stats.r_missed += self.idle_window * cycles;
    }

    fn cycle_state(&self, state: &mut CycleState) {
        state.r_issued = self.check.stats.r_issued;
        state.r_missed = self.check.stats.r_missed;
        state.sched_ops += self.rqueue.sched_ops();
        state.rqueue_occ = self.rqueue.len();
    }

    fn finish(mut self, result: SimResult) -> ReeseResult {
        self.check.stats.rqueue_peak = self.rqueue.peak_occupancy();
        let mut r = self.check.finish(result);
        r.duration = self.faults.duration.map(|_| self.faults.report);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::assemble;
    use reese_pipeline::{PipelineConfig, PipelineSim, SimStop};

    const LOOP: &str = "  li t0, 100\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n";

    fn run_reese(src: &str) -> ReeseResult {
        let prog = assemble(src).unwrap();
        ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap()
    }

    #[test]
    fn commits_same_instructions_as_baseline() {
        let prog = assemble(LOOP).unwrap();
        let base = PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let reese = ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap();
        assert_eq!(
            reese.committed_instructions(),
            base.committed_instructions()
        );
        assert_eq!(reese.state_digest, base.state_digest);
        assert_eq!(reese.output, base.output);
    }

    #[test]
    fn every_instruction_is_compared() {
        let r = run_reese(LOOP);
        assert_eq!(r.stats.comparisons, r.committed_instructions());
        assert_eq!(r.stats.r_issued, r.committed_instructions());
        assert_eq!(r.stats.r_skipped, 0);
    }

    #[test]
    fn reese_is_slower_than_baseline_without_spares() {
        let prog = assemble(LOOP).unwrap();
        let base = PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let reese = ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap();
        assert!(
            reese.cycles() >= base.cycles(),
            "doubling executed work cannot be free: reese {} vs base {}",
            reese.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn detects_primary_fault_and_recovers() {
        let prog = assemble(LOOP).unwrap();
        let faults = [InjectedFault::primary(10, 5)];
        let r = ReeseSim::new(ReeseConfig::starting())
            .run_spec(RunSpec::program(&prog).faults(ReeseFaults::injected(&faults)))
            .unwrap();
        assert_eq!(r.stats.detections, 1);
        assert_eq!(r.stats.flushes, 1);
        assert_eq!(r.detections.len(), 1);
        assert_eq!(r.detections[0].seq, 10);
        // Architectural results are unaffected by the transient fault.
        let clean = run_reese(LOOP);
        assert_eq!(r.committed_instructions(), clean.committed_instructions());
        assert_eq!(r.state_digest, clean.state_digest);
        assert!(r.cycles() > clean.cycles(), "recovery costs cycles");
    }

    #[test]
    fn detects_redundant_stream_fault() {
        let prog = assemble(LOOP).unwrap();
        let faults = [InjectedFault::redundant(20, 63)];
        let r = ReeseSim::new(ReeseConfig::starting())
            .run_spec(RunSpec::program(&prog).faults(ReeseFaults::injected(&faults)))
            .unwrap();
        assert_eq!(r.stats.detections, 1);
        assert_eq!(r.detections[0].seq, 20);
        assert_eq!(r.exit_code, Some(0));
    }

    #[test]
    fn multiple_faults_all_detected() {
        let prog = assemble(LOOP).unwrap();
        let faults = [
            InjectedFault::primary(5, 1),
            InjectedFault::primary(50, 2),
            InjectedFault::redundant(100, 3),
        ];
        let r = ReeseSim::new(ReeseConfig::starting())
            .run_spec(RunSpec::program(&prog).faults(ReeseFaults::injected(&faults)))
            .unwrap();
        assert_eq!(r.stats.detections, 3);
    }

    #[test]
    fn permanent_fault_reported() {
        let prog = assemble(LOOP).unwrap();
        let faults = [InjectedFault::permanent(10, 4)];
        let err = ReeseSim::new(ReeseConfig::starting())
            .run_spec(RunSpec::program(&prog).faults(ReeseFaults::injected(&faults)))
            .unwrap_err();
        assert!(matches!(err, ReeseError::PermanentFault { seq: 10, .. }));
    }

    #[test]
    fn detection_latency_positive() {
        let prog = assemble(LOOP).unwrap();
        let faults = [InjectedFault::primary(10, 5)];
        let r = ReeseSim::new(ReeseConfig::starting())
            .run_spec(RunSpec::program(&prog).faults(ReeseFaults::injected(&faults)))
            .unwrap();
        assert!(
            r.detections[0].latency() >= 1,
            "compare happens after R execution"
        );
    }

    #[test]
    fn partial_duplication_skips_and_speeds_up() {
        let prog = assemble(LOOP).unwrap();
        let full = ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap();
        let half = ReeseSim::new(ReeseConfig::starting().with_duplication_period(2))
            .run(&prog)
            .unwrap();
        assert!(half.stats.r_skipped > 0);
        assert_eq!(
            half.stats.r_skipped + half.stats.comparisons,
            half.committed_instructions()
        );
        assert!(
            half.cycles() <= full.cycles(),
            "re-executing less cannot be slower"
        );
    }

    #[test]
    fn partial_duplication_misses_faults_on_skipped_instructions() {
        let prog = assemble(LOOP).unwrap();
        // Period 2 re-executes even seqs; corrupt an odd one.
        let faults = [InjectedFault::primary(11, 5)];
        let r = ReeseSim::new(ReeseConfig::starting().with_duplication_period(2))
            .run_spec(RunSpec::program(&prog).faults(ReeseFaults::injected(&faults)))
            .unwrap();
        assert_eq!(
            r.stats.detections, 0,
            "skipped instructions are unprotected"
        );
    }

    #[test]
    fn spare_alus_reduce_cycles() {
        // An ALU-saturated loop: spares must help REESE.
        let src = "  li s0, 300\n\
                   loop: addi t0, t0, 1\n  addi t1, t1, 1\n  addi t2, t2, 1\n  addi t3, t3, 1\n\
                   \n  addi s0, s0, -1\n  bnez s0, loop\n  halt\n";
        let prog = assemble(src).unwrap();
        let plain = ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap();
        let spared = ReeseSim::new(ReeseConfig::starting().with_spare_int_alus(2))
            .run(&prog)
            .unwrap();
        assert!(
            spared.cycles() < plain.cycles(),
            "+2 ALUs must speed up an ALU-bound REESE run ({} vs {})",
            spared.cycles(),
            plain.cycles()
        );
    }

    #[test]
    fn rqueue_never_exceeds_capacity() {
        let r = run_reese(LOOP);
        assert!(r.stats.rqueue_peak <= 32);
        assert!(r.stats.rqueue_occupancy.samples() > 0);
    }

    #[test]
    fn memory_program_matches_baseline() {
        let src = "  la a0, arr\n  li t0, 0\n  li t1, 16\n\
             loop: slli t2, t0, 3\n  add t3, a0, t2\n  sd t0, 0(t3)\n  ld t4, 0(t3)\n  add t5, t5, t4\n  addi t0, t0, 1\n  bne t0, t1, loop\n\
             \n  print t5\n  halt\n  .data\narr: .space 128\n";
        let prog = assemble(src).unwrap();
        let base = PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let reese = ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap();
        assert_eq!(reese.output, base.output);
        assert_eq!(reese.output, vec![120]);
    }

    #[test]
    fn determinism() {
        let a = run_reese(LOOP);
        let b = run_reese(LOOP);
        assert_eq!(a, b);
    }

    #[test]
    fn instruction_limit_respected() {
        let prog = assemble("loop: addi t0, t0, 1\n  j loop\n  halt\n").unwrap();
        let r = ReeseSim::new(ReeseConfig::starting())
            .run_limit(&prog, 100)
            .unwrap();
        assert_eq!(r.stop, SimStop::InstructionLimit);
        assert!(r.committed_instructions() >= 100);
    }

    #[test]
    fn scan_and_event_driven_agree() {
        let mem_src = "  la a0, arr\n  li t0, 0\n  li t1, 16\n\
             loop: slli t2, t0, 3\n  add t3, a0, t2\n  sd t0, 0(t3)\n  ld t4, 0(t3)\n  add t5, t5, t4\n  addi t0, t0, 1\n  bne t0, t1, loop\n\
             \n  print t5\n  halt\n  .data\narr: .space 128\n";
        for src in [LOOP, mem_src] {
            let prog = assemble(src).unwrap();
            let scan = ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::Scan))
                .run(&prog)
                .unwrap();
            let event =
                ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::EventDriven))
                    .run(&prog)
                    .unwrap();
            assert_eq!(scan, event, "modes diverged on {src:?}");
        }
    }

    #[test]
    fn scan_and_event_driven_agree_under_faults() {
        // Detection flushes must fully drain the ready set and both
        // event wheels; any stale event would desynchronise the modes
        // (or fire against a re-delivered seq).
        let prog = assemble(LOOP).unwrap();
        let faults = [
            InjectedFault::primary(5, 1),
            InjectedFault::redundant(50, 63),
            InjectedFault::primary(100, 2),
        ];
        let scan = ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::Scan))
            .run_spec(RunSpec::program(&prog).faults(ReeseFaults::injected(&faults)))
            .unwrap();
        let event =
            ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::EventDriven))
                .run_spec(RunSpec::program(&prog).faults(ReeseFaults::injected(&faults)))
                .unwrap();
        assert_eq!(scan, event);
        assert_eq!(event.stats.detections, 3);
    }

    #[test]
    fn repeated_flush_stress_with_seeded_faults() {
        // A crude SplitMix64 drives fault placement so the schedule of
        // flushes is arbitrary but reproducible; every trial must agree
        // across modes and still drain to a clean halt.
        let prog = assemble(LOOP).unwrap();
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for trial in 0..10 {
            let faults: Vec<InjectedFault> = (0..3)
                .map(|_| {
                    let seq = next() % 200;
                    let bit = (next() % 64) as u8;
                    if next() % 2 == 0 {
                        InjectedFault::primary(seq, bit)
                    } else {
                        InjectedFault::redundant(seq, bit)
                    }
                })
                .collect();
            let scan = ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::Scan))
                .run_spec(RunSpec::program(&prog).faults(ReeseFaults::injected(&faults)))
                .unwrap();
            let event =
                ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::EventDriven))
                    .run_spec(RunSpec::program(&prog).faults(ReeseFaults::injected(&faults)))
                    .unwrap();
            assert_eq!(scan, event, "trial {trial} faults {faults:?}");
            assert_eq!(event.stop, SimStop::Halted, "trial {trial}");
            assert_eq!(event.exit_code, Some(0), "trial {trial}");
        }
    }

    #[test]
    fn fault_on_halt_detected() {
        let prog = assemble("  li a0, 7\n  halt\n").unwrap();
        // halt is seq 1; corrupt its (exit-code) result latch.
        let faults = [InjectedFault::primary(1, 0)];
        let r = ReeseSim::new(ReeseConfig::starting())
            .run_spec(RunSpec::program(&prog).faults(ReeseFaults::injected(&faults)))
            .unwrap();
        assert_eq!(r.stats.detections, 1);
        assert_eq!(r.exit_code, Some(7), "recovered exit code is clean");
    }
}
