//! The dispatch-duplication baseline (after Franklin, the paper's
//! reference \[24\]).
//!
//! Franklin's scheme duplicates every instruction *at the dynamic
//! scheduler*: both copies occupy window slots, issue like ordinary
//! instructions, and their results are compared at the bottom of the
//! pipeline. There is no R-stream Queue, no carried operands, and no
//! guaranteed cache hits — the redundant copy competes for everything.
//!
//! REESE's §3 argument ("our approach goes a step further than
//! Franklin") is that deferring the redundant execution into a
//! dedicated queue frees window capacity and removes the redundant
//! stream's dependences. [`DuplexSim`] makes that claim measurable:
//! run the same workload on both machines and compare.

use crate::check::{by_seq, Checker};
use crate::seqmap::SeqTable;
use crate::{DetectionEvent, DuplexFaults, InjectedFault, ReeseError, ReeseResult, Stream};
use reese_isa::Program;
use reese_pipeline::{Core, Machine, PipelineConfig, Redundancy, RunSpec, SimResult};
use reese_trace::{CycleState, Observer, Stage, Stream as TStream};

/// The dispatch-duplication machine: every fetched instruction enters
/// the RUU twice (redundant copy first, primary copy second, so
/// dependants read the primary), both copies execute, and the pair
/// commits together after an implicit comparison.
///
/// # Example
///
/// ```
/// use reese_core::DuplexSim;
/// use reese_pipeline::PipelineConfig;
///
/// let prog = reese_isa::assemble(
///     "  li t0, 10\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
/// )?;
/// let r = DuplexSim::new(PipelineConfig::starting()).run(&prog)?;
/// assert_eq!(r.committed_instructions(), 22);
/// assert_eq!(r.stats.comparisons, 22);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DuplexSim {
    config: PipelineConfig,
}

impl DuplexSim {
    /// Creates the dispatch-duplication machine over a baseline
    /// pipeline configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, or narrower than one
    /// pair (`width` < 2): pairs dispatch and commit `width / 2` at a
    /// time, so a width-1 machine could never make progress.
    pub fn new(config: PipelineConfig) -> DuplexSim {
        config.validate();
        assert!(
            config.width >= 2,
            "dispatch duplication needs width >= 2 (it moves width / 2 pairs per cycle)"
        );
        DuplexSim { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs a program to its `halt`.
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
    /// See [`DuplexSim::run`].
    pub fn run_limit(
        &self,
        program: &Program,
        max_instructions: u64,
    ) -> Result<ReeseResult, ReeseError> {
        self.run_spec(RunSpec::program(program).limit(max_instructions))
    }

    /// Runs one [`RunSpec`] with the given [`DuplexFaults`]. A fault
    /// targeting dynamic instruction `seq` (a global sequence number)
    /// corrupts one copy's latched result, so the pair comparison at
    /// commit fails: the machine records a [`DetectionEvent`], flushes,
    /// and re-executes from the faulting instruction — Franklin's
    /// comparison at the bottom of the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`ReeseError::PermanentFault`] if a sticky fault makes
    /// the same comparison fail twice in a row, or [`ReeseError::Sim`]
    /// for underlying failures.
    pub fn run_spec<O: Observer>(
        &self,
        spec: RunSpec<'_, O, DuplexFaults<'_>>,
    ) -> Result<ReeseResult, ReeseError> {
        let policy = DualDispatch {
            check: Checker::new(1),
            faults: by_seq(spec.faults.0),
        };
        Core::new(Machine::new(&self.config, spec.start), policy).run(spec.limit, spec.observer)
    }
}

/// Dispatch duplication's policy: two RUU entries per instruction
/// (parity tags the stream), committed and compared as a pair.
struct DualDispatch {
    check: Checker,
    /// Pending injected faults keyed by *fetch* seq (the pair index).
    faults: SeqTable<Vec<InjectedFault>>,
}

impl Redundancy for DualDispatch {
    type Output = ReeseResult;
    type Error = ReeseError;

    /// The redundant copy dispatches first (even RUU seq), the primary
    /// second (odd), so later readers rename against the primary.
    const COPIES: u64 = 2;

    /// Commits pairs: the redundant copy (even RUU seq) and the primary
    /// copy (odd RUU seq) retire together once both have completed —
    /// the comparison point of Franklin's scheme.
    fn commit<O: Observer>(
        &mut self,
        m: &mut Machine<'_>,
        limit: u64,
        obs: &mut O,
    ) -> Result<(), ReeseError> {
        for _ in 0..m.cfg.width / 2 {
            if m.stats.committed >= limit {
                break;
            }
            let Some(r_copy) = m.ruu.head().filter(|e| e.completed) else {
                break;
            };
            debug_assert_eq!(r_copy.seq % 2, 0, "head of a pair is the redundant copy");
            let Some(p_copy) = m.ruu.get(r_copy.seq + 1).filter(|e| e.completed) else {
                break;
            };
            // The comparison point: a pending injected fault corrupted
            // one copy's latched result, so the pair mismatches here. A
            // transient fault is consumed (the re-execution compares
            // clean); a sticky one fires again, and the second
            // consecutive mismatch stops the machine.
            let pair = r_copy.seq / 2;
            if let Some(list) = self.faults.get_mut(pair).filter(|l| !l.is_empty()) {
                let fault = list[0];
                if !fault.sticky {
                    list.remove(0);
                }
                let event = DetectionEvent {
                    seq: pair,
                    pc: p_copy.info.pc,
                    detect_cycle: m.cycle,
                    inject_cycle: match fault.stream {
                        Stream::Primary => p_copy.complete_cycle,
                        Stream::Redundant => r_copy.complete_cycle,
                    },
                };
                self.check
                    .mismatch(m, obs, event, (pair * 2, pair * 2 + 1))?;
                // Duplex has no dedicated flush ladder; the recovery
                // squash costs the same front-end refill as a mispredict.
                m.flush_to(pair, m.cfg.mispredict_penalty);
                return Ok(());
            }
            let r_copy = m.ruu.pop_head();
            let p_copy = m.ruu.pop_head();
            debug_assert_eq!(r_copy.info.result, p_copy.info.result, "fault-free run");
            m.trace(
                obs,
                r_copy.seq,
                p_copy.info.pc,
                Stage::Compare,
                TStream::Redundant,
            );
            m.lsq.remove(r_copy.seq);
            m.lsq.remove(p_copy.seq);
            self.check.stats.comparisons += 1;
            self.check.passed(pair);
            if m.retire(p_copy.seq, &p_copy.info, obs) {
                break;
            }
        }
        Ok(())
    }

    fn issue<O: Observer>(&mut self, m: &mut Machine<'_>, obs: &mut O) {
        let mut budget = m.cfg.width;
        self.check.stats.r_issued += m.issue::<Self, O>(&mut budget, obs);
    }

    /// Duplex has no R-stream Queue, so the R-queue occupancy and
    /// missed-slot counters stay zero; redundant copies are identified
    /// by RUU seq parity instead.
    fn cycle_state(&self, state: &mut CycleState) {
        state.r_issued = self.check.stats.r_issued;
    }

    fn finish(self, result: SimResult) -> ReeseResult {
        self.check.finish(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReeseConfig, ReeseSim};
    use reese_isa::assemble;
    use reese_pipeline::PipelineSim;
    use reese_pipeline::{SchedulerMode, SimStop};

    const LOOP: &str = "  li t0, 100\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n";

    #[test]
    fn duplex_commits_correct_results() {
        let prog = assemble(LOOP).unwrap();
        let base = PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let dup = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        assert_eq!(dup.committed_instructions(), base.committed_instructions());
        assert_eq!(dup.state_digest, base.state_digest);
        assert_eq!(dup.output, base.output);
        assert_eq!(dup.stats.comparisons, dup.committed_instructions());
    }

    #[test]
    fn duplex_is_slower_than_baseline() {
        let prog = assemble(LOOP).unwrap();
        let base = PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let dup = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        assert!(
            dup.cycles() > base.cycles(),
            "two window slots per instruction must cost cycles ({} vs {})",
            dup.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn reese_beats_dispatch_duplication() {
        // The paper's §3 claim: deferring redundancy into the R-stream
        // Queue beats duplicating in the scheduler window.
        let prog = reese_workloads_like_program();
        let dup = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let reese = ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap();
        assert!(
            reese.ipc() > dup.ipc(),
            "REESE {:.3} must beat dispatch duplication {:.3}",
            reese.ipc(),
            dup.ipc()
        );
    }

    /// A loop with enough mixed work for the window pressure to matter.
    fn reese_workloads_like_program() -> reese_isa::Program {
        assemble(
            "  la a0, buf\n  li s0, 400\n\
             loop: andi t4, s0, 255\n  slli t2, t4, 3\n  add t3, a0, t2\n  ld t0, 0(t3)\n\
             \n  addi t0, t0, 3\n  mul t1, t0, s0\n  xor t5, t5, t1\n  sd t0, 0(t3)\n\
             \n  addi s0, s0, -1\n  bnez s0, loop\n  print t5\n  halt\n\
             \n  .data\nbuf: .space 2048\n",
        )
        .unwrap()
    }

    #[test]
    fn duplex_handles_memory_and_calls() {
        let prog = assemble(
            "        .entry main\n\
             f:      sd a0, -8(sp)\n\
                     ld a1, -8(sp)\n\
                     add a0, a1, a1\n\
                     ret\n\
             main:   li a0, 21\n\
                     call f\n\
                     print a0\n\
                     halt\n",
        )
        .unwrap();
        let r = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        assert_eq!(r.output, vec![42]);
    }

    #[test]
    fn duplex_respects_instruction_limit() {
        let prog = assemble("loop: addi t0, t0, 1\n  j loop\n  halt\n").unwrap();
        let r = DuplexSim::new(PipelineConfig::starting())
            .run_limit(&prog, 50)
            .unwrap();
        assert_eq!(r.stop, SimStop::InstructionLimit);
        assert!(r.committed_instructions() >= 50);
    }

    #[test]
    fn scan_and_event_driven_agree() {
        let prog = reese_workloads_like_program();
        let scan = DuplexSim::new(PipelineConfig::starting().with_scheduler(SchedulerMode::Scan))
            .run(&prog)
            .unwrap();
        let event =
            DuplexSim::new(PipelineConfig::starting().with_scheduler(SchedulerMode::EventDriven))
                .run(&prog)
                .unwrap();
        assert_eq!(scan, event);
    }

    #[test]
    fn transient_fault_is_detected_and_recovered() {
        let prog = assemble(LOOP).unwrap();
        let clean = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let faulted = DuplexSim::new(PipelineConfig::starting())
            .run_spec(
                RunSpec::program(&prog).faults(DuplexFaults(&[InjectedFault::primary(40, 7)])),
            )
            .unwrap();
        assert_eq!(faulted.stats.detections, 1);
        assert_eq!(faulted.stats.flushes, 1);
        assert_eq!(faulted.detections.len(), 1);
        assert_eq!(faulted.detections[0].seq, 40);
        // Recovery is architecturally transparent.
        assert_eq!(faulted.output, clean.output);
        assert_eq!(faulted.state_digest, clean.state_digest);
        assert!(
            faulted.cycles() > clean.cycles(),
            "the detection flush must cost cycles"
        );
    }

    #[test]
    fn redundant_stream_fault_is_detected_too() {
        let prog = assemble(LOOP).unwrap();
        let r = DuplexSim::new(PipelineConfig::starting())
            .run_spec(
                RunSpec::program(&prog).faults(DuplexFaults(&[InjectedFault::redundant(10, 3)])),
            )
            .unwrap();
        assert_eq!(r.stats.detections, 1);
        assert!(r.detections[0].detect_cycle >= r.detections[0].inject_cycle);
    }

    #[test]
    fn permanent_fault_stops_the_machine() {
        let prog = assemble(LOOP).unwrap();
        let err = DuplexSim::new(PipelineConfig::starting())
            .run_spec(
                RunSpec::program(&prog).faults(DuplexFaults(&[InjectedFault::permanent(15, 2)])),
            )
            .unwrap_err();
        assert!(matches!(err, ReeseError::PermanentFault { seq: 15, .. }));
    }

    #[test]
    fn faulted_scan_and_event_driven_agree() {
        let prog = reese_workloads_like_program();
        let faults = [
            InjectedFault::primary(100, 5),
            InjectedFault::redundant(900, 60),
        ];
        let scan = DuplexSim::new(PipelineConfig::starting().with_scheduler(SchedulerMode::Scan))
            .run_spec(RunSpec::program(&prog).faults(DuplexFaults(&faults)))
            .unwrap();
        let event =
            DuplexSim::new(PipelineConfig::starting().with_scheduler(SchedulerMode::EventDriven))
                .run_spec(RunSpec::program(&prog).faults(DuplexFaults(&faults)))
                .unwrap();
        assert_eq!(scan, event);
        assert_eq!(scan.stats.detections, 2);
    }

    #[test]
    fn duplex_determinism() {
        let prog = assemble(LOOP).unwrap();
        let a = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let b = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        assert_eq!(a, b);
    }
}
