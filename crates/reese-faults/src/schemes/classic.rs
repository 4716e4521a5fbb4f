//! The three detailed-machine backends: the unprotected baseline core,
//! REESE P/R time redundancy, and full spatial duplication.
//!
//! [`ReeseScheme`] and [`DuplexScheme`] are thin adapters over the
//! existing simulators — they inject into the machines' compare
//! latches and read detections back, in exactly the call order the
//! campaign used before the trait existed (the equivalence oracle
//! holds the REESE path to byte-identical outcomes).
//!
//! [`BaselineScheme`] is the control arm: faults are injected
//! *architecturally* ([`reese_cpu::Emulator::inject_result_fault`])
//! into the restored functional state, the plain pipeline times the
//! window, and nothing looks for the corruption. Its coverage is 0% by
//! construction; its `state_clean` column is the silent-data-corruption
//! rate the protected schemes are measured against.

use super::fork::{anchor_start, replay_forks};
use super::observe::CommitProbe;
use super::{DetectionScheme, FaultKey, PendingOutcome, SchemeRun, WindowBatch, WindowReplay};
use crate::{FaultClass, TrialOutcome, WindowBaseline};
use reese_ckpt::{Checkpoint, Scheme};
use reese_core::{
    ArmFault, DuplexFaults, DuplexSim, InjectedFault, ReeseConfig, ReeseFaults, ReeseResult,
    ReeseSim,
};
use reese_isa::Program;
use reese_pipeline::{PipelineSim, RunSpec, SimResult};
use reese_trace::{DeepLog, NoopObserver, Tracer};

fn from_pipeline(r: SimResult) -> SchemeRun {
    SchemeRun {
        cycles: r.stats.cycles,
        committed: r.stats.committed,
        output: r.output,
        exit_code: r.exit_code,
        state_digest: r.state_digest,
    }
}

fn from_redundant(r: ReeseResult) -> SchemeRun {
    SchemeRun {
        cycles: r.cycles(),
        committed: r.committed_instructions(),
        output: r.output,
        exit_code: r.exit_code,
        state_digest: r.state_digest,
    }
}

/// Scores a redundant-machine window result exactly as the campaign
/// historically scored REESE trials.
fn score_redundant((class, seq, bit): FaultKey, r: &ReeseResult) -> PendingOutcome {
    let first = r.detections.first();
    let outcome = TrialOutcome {
        class,
        seq,
        bit,
        detected: !r.detections.is_empty(),
        detection_latency: first.map(|d| d.latency()),
        extra_cycles: 0,
        state_clean: false,
        inject_cycle: first.map(|d| d.inject_cycle),
        // Compare-before-commit: a detected corruption is squashed in
        // the compare latch and never goes architectural; an undetected
        // latch fault on these machines never fired at all.
        diverge_cycle: None,
        detect_cycle: first.map(|d| d.detect_cycle),
    };
    PendingOutcome::versus_clean(outcome, r.cycles(), &r.output, r.state_digest)
}

/// The clean-window baseline of a redundant-machine run.
fn redundant_baseline(r: &ReeseResult) -> WindowBaseline {
    WindowBaseline::of(r.cycles(), r.state_digest, &r.output, r.exit_code)
}

/// The fault a redundant machine latches for a trial key: primary or
/// redundant compare-latch copy, by class.
fn latch_fault((class, seq, bit): FaultKey) -> InjectedFault {
    if class == FaultClass::PrimaryResult {
        InjectedFault::primary(seq, bit)
    } else {
        InjectedFault::redundant(seq, bit)
    }
}

/// Scores an unprotected-core run with an architectural fault: nothing
/// detects; the probe pins the injection (first writeback of the
/// faulted seq) and divergence (its commit) cycles.
pub(crate) fn score_unchecked(
    (class, seq, bit): FaultKey,
    r: &SimResult,
    probe: &CommitProbe,
) -> PendingOutcome {
    let committed = probe.commit_cycle(seq);
    let outcome = TrialOutcome {
        class,
        seq,
        bit,
        detected: false,
        detection_latency: None,
        extra_cycles: 0,
        state_clean: false,
        inject_cycle: probe.first_writeback.or(committed),
        diverge_cycle: committed,
        detect_cycle: None,
    };
    PendingOutcome::versus_clean(outcome, r.stats.cycles, &r.output, r.state_digest)
}

/// The clean-window baseline of a plain-pipeline run.
pub(crate) fn pipeline_baseline(r: &SimResult) -> WindowBaseline {
    WindowBaseline::of(r.stats.cycles, r.state_digest, &r.output, r.exit_code)
}

/// The unprotected out-of-order core. No redundancy, no detection:
/// the control arm.
pub(crate) struct BaselineScheme {
    sim: PipelineSim,
}

impl BaselineScheme {
    pub fn new(config: &ReeseConfig) -> BaselineScheme {
        BaselineScheme {
            sim: PipelineSim::new(config.pipeline.clone()),
        }
    }
}

impl DetectionScheme for BaselineScheme {
    fn scheme(&self) -> Scheme {
        Scheme::Baseline
    }

    fn run_limit(&self, program: &Program, max_instructions: u64) -> Result<SchemeRun, String> {
        self.sim
            .run_limit(program, max_instructions)
            .map(from_pipeline)
            .map_err(|e| e.to_string())
    }

    fn run_window(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
    ) -> Result<SchemeRun, String> {
        self.sim
            .run_spec(RunSpec::restored(ck.restore(program), ck.warm.as_ref()).limit(budget))
            .map(from_pipeline)
            .map_err(|e| e.to_string())
    }

    fn run_window_observed(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        probe: &mut DeepLog,
    ) -> Result<SchemeRun, String> {
        self.sim
            .run_spec(
                RunSpec::restored(ck.restore(program), ck.warm.as_ref())
                    .limit(budget)
                    .observe(probe),
            )
            .map(from_pipeline)
            .map_err(|e| e.to_string())
    }

    fn run_faulted(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        key: FaultKey,
        tracer: Option<&mut Tracer>,
        probe: Option<&mut DeepLog>,
    ) -> Result<PendingOutcome, String> {
        // A single-stream machine has no redundant copy: both result
        // classes degenerate to one architectural result upset.
        let (_, seq, bit) = key;
        let mut emu = ck.restore(program);
        emu.inject_result_fault(seq, bit);
        let mut own = CommitProbe::watching(seq);
        let base = RunSpec::restored(emu, ck.warm.as_ref()).limit(budget);
        let r = run_trial_observed!(tracer, probe, self.sim, base, &mut own)
            .map_err(|e| e.to_string())?;
        Ok(score_unchecked(key, &r, &own))
    }

    fn replay_window(&self, b: &WindowBatch<'_>) -> WindowReplay {
        replay_forks(
            b,
            self.sim.core(anchor_start(b.program, b.ck)),
            CommitProbe::new(),
            |core, probe, (_, seq, bit)| {
                core.inject_result_fault(seq, bit);
                probe.watch(seq);
            },
            score_unchecked,
            pipeline_baseline,
            |key| self.run_faulted(b.program, b.ck, b.budget, key, None, None),
        )
    }
}

/// The paper's mechanism: P/R time redundancy on one core.
pub(crate) struct ReeseScheme {
    sim: ReeseSim,
}

impl ReeseScheme {
    pub fn new(config: &ReeseConfig) -> ReeseScheme {
        ReeseScheme {
            sim: ReeseSim::new(config.clone()),
        }
    }
}

impl DetectionScheme for ReeseScheme {
    fn scheme(&self) -> Scheme {
        Scheme::Reese
    }

    fn run_limit(&self, program: &Program, max_instructions: u64) -> Result<SchemeRun, String> {
        self.sim
            .run_limit(program, max_instructions)
            .map(from_redundant)
            .map_err(|e| e.to_string())
    }

    fn run_window(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
    ) -> Result<SchemeRun, String> {
        self.sim
            .run_spec(RunSpec::restored(ck.restore(program), ck.warm.as_ref()).limit(budget))
            .map(from_redundant)
            .map_err(|e| e.to_string())
    }

    fn run_window_observed(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        probe: &mut DeepLog,
    ) -> Result<SchemeRun, String> {
        self.sim
            .run_spec(
                RunSpec::restored(ck.restore(program), ck.warm.as_ref())
                    .limit(budget)
                    .observe(probe),
            )
            .map(from_redundant)
            .map_err(|e| e.to_string())
    }

    fn run_faulted(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        key: FaultKey,
        tracer: Option<&mut Tracer>,
        probe: Option<&mut DeepLog>,
    ) -> Result<PendingOutcome, String> {
        let faults = [latch_fault(key)];
        let base = RunSpec::restored(ck.restore(program), ck.warm.as_ref())
            .limit(budget)
            .faults(ReeseFaults::injected(&faults));
        let r = run_trial_observed!(tracer, probe, self.sim, base, &mut NoopObserver)
            .map_err(|e| e.to_string())?;
        Ok(score_redundant(key, &r))
    }

    fn replay_window(&self, b: &WindowBatch<'_>) -> WindowReplay {
        replay_forks(
            b,
            self.sim.core(anchor_start(b.program, b.ck)),
            NoopObserver,
            |core, _, key| core.policy_mut().arm(latch_fault(key)),
            |key, r, _| score_redundant(key, r),
            redundant_baseline,
            |key| self.run_faulted(b.program, b.ck, b.budget, key, None, None),
        )
    }
}

/// Full spatial duplication with compare-before-commit.
pub(crate) struct DuplexScheme {
    sim: DuplexSim,
}

impl DuplexScheme {
    pub fn new(config: &ReeseConfig) -> DuplexScheme {
        DuplexScheme {
            sim: DuplexSim::new(config.pipeline.clone()),
        }
    }
}

impl DetectionScheme for DuplexScheme {
    fn scheme(&self) -> Scheme {
        Scheme::Duplex
    }

    fn run_limit(&self, program: &Program, max_instructions: u64) -> Result<SchemeRun, String> {
        self.sim
            .run_limit(program, max_instructions)
            .map(from_redundant)
            .map_err(|e| e.to_string())
    }

    fn run_window(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
    ) -> Result<SchemeRun, String> {
        self.sim
            .run_spec(RunSpec::restored(ck.restore(program), ck.warm.as_ref()).limit(budget))
            .map(from_redundant)
            .map_err(|e| e.to_string())
    }

    fn run_window_observed(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        probe: &mut DeepLog,
    ) -> Result<SchemeRun, String> {
        self.sim
            .run_spec(
                RunSpec::restored(ck.restore(program), ck.warm.as_ref())
                    .limit(budget)
                    .observe(probe),
            )
            .map(from_redundant)
            .map_err(|e| e.to_string())
    }

    fn run_faulted(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        key: FaultKey,
        tracer: Option<&mut Tracer>,
        probe: Option<&mut DeepLog>,
    ) -> Result<PendingOutcome, String> {
        let faults = [latch_fault(key)];
        let base = RunSpec::restored(ck.restore(program), ck.warm.as_ref())
            .limit(budget)
            .faults(DuplexFaults(&faults));
        let r = run_trial_observed!(tracer, probe, self.sim, base, &mut NoopObserver)
            .map_err(|e| e.to_string())?;
        Ok(score_redundant(key, &r))
    }

    fn replay_window(&self, b: &WindowBatch<'_>) -> WindowReplay {
        replay_forks(
            b,
            self.sim.core(anchor_start(b.program, b.ck)),
            NoopObserver,
            |core, _, key| core.policy_mut().arm(latch_fault(key)),
            |key, r, _| score_redundant(key, r),
            redundant_baseline,
            |key| self.run_faulted(b.program, b.ck, b.budget, key, None, None),
        )
    }
}
