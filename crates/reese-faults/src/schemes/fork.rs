//! Forked window replay: one clean run per anchored window, with every
//! faulted trial forked off it at its injection point.
//!
//! A replay trial restored from its anchor re-simulates the clean
//! prefix up to the fault — about half its window, since the anchor
//! sits at least [`crate::engine`]'s RUNWAY before the fault — and
//! every one of those cycles repeats the window's clean run. The
//! replay engine's window phase therefore runs each window's clean run
//! once, from the anchor, with the window's fault keys in ascending
//! seq order. At each key's fork point ([`Core::run_until`]: the last
//! cycle boundary before any part of the machine can have executed the
//! key's seq) it clones the running core together with the scheme's
//! observer, arms the fault on the clone, and runs only the faulted
//! suffix to the window budget. Arming a fault on an instruction that
//! has not executed changes nothing before it fires, so the forked
//! trial is the restored-from-anchor trial, cycle for cycle.
//!
//! Scoring is split in two. What a trial can decide from its own run
//! is fixed when its suffix ends ([`PendingOutcome`]); the comparison
//! with the clean window (`extra_cycles`, `state_clean`) waits until
//! that window's clean run has ended, possibly in another work item,
//! so a forked trial keeps only a few words until then.

use super::FaultKey;
use crate::engine::{output_fnv, WindowBaseline};
use crate::TrialOutcome;
use reese_ckpt::Checkpoint;
use reese_isa::Program;
use reese_pipeline::{Core, Redundancy, Seq, Start};
use reese_trace::Observer;

/// A trial's outcome before its window's clean baseline is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingOutcome {
    /// The outcome; `extra_cycles` and `state_clean` are placeholders
    /// while `end` is set.
    pub outcome: TrialOutcome,
    /// Cycles the faulted run took from the anchor.
    pub cycles: u64,
    /// The faulted run's committed-output FNV and fetch-frontier
    /// digest, when its verdict is a comparison with the clean window;
    /// `None` when the scheme settled the verdict itself.
    pub end: Option<(u64, u64)>,
}

impl PendingOutcome {
    /// An outcome to be compared with the clean window: the faulted run
    /// took `cycles` and committed `output`, leaving the fetch frontier
    /// at `digest`.
    pub fn versus_clean(outcome: TrialOutcome, cycles: u64, output: &[i64], digest: u64) -> Self {
        PendingOutcome {
            outcome,
            cycles,
            end: Some((output_fnv(output), digest)),
        }
    }

    /// The final outcome against the window's clean baseline.
    pub fn settle(self, baseline: &WindowBaseline) -> TrialOutcome {
        let mut o = self.outcome;
        if let Some((fnv, digest)) = self.end {
            o.extra_cycles = self.cycles.saturating_sub(baseline.cycles);
            // Commit-granularity cleanliness: the committed output must
            // match the clean window's. The frontier digest is only
            // comparable when the window reached halt — a budget-limited
            // stop leaves the fetch emulator a recovery-dependent
            // distance past the last commit, so there the digest
            // measures speculative fetch depth, not state.
            o.state_clean =
                fnv == baseline.output_fnv && (!baseline.halted || digest == baseline.digest);
        }
        o
    }
}

/// One work item of the replay engine's window phase: an anchored
/// window and the fault keys to fork off its clean run.
#[derive(Debug, Clone, Copy)]
pub struct WindowBatch<'a> {
    /// The (prepared) program under test.
    pub program: &'a Program,
    /// The window's anchor checkpoint.
    pub ck: &'a Checkpoint,
    /// Committed-instruction budget for the window.
    pub budget: u64,
    /// Keys to fork, in ascending seq order.
    pub forks: &'a [FaultKey],
    /// Keys of [`super::DetectionScheme::inert`] classes: their trial
    /// is the clean run itself, scored once it ends. Only given with
    /// `to_end`.
    pub inert: &'a [FaultKey],
    /// Whether to run the clean window to its budget and report its
    /// baseline (one batch per window does); otherwise the clean run
    /// stops at the last fork.
    pub to_end: bool,
}

/// Simulated cycles of a window phase, by what they were spent on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkCycles {
    /// Cycles simulated by clean window runs.
    pub clean: u64,
    /// Cycles simulated by faulted runs: the suffixes of forked trials,
    /// and whole windows of trials run from the anchor.
    pub suffix: u64,
    /// Faulted-run cycles that forking spared: each forked trial's
    /// clean prefix, and the whole run of an inert trial.
    pub skipped: u64,
}

impl ForkCycles {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: ForkCycles) {
        self.clean += other.clean;
        self.suffix += other.suffix;
        self.skipped += other.skipped;
    }
}

/// What [`super::DetectionScheme::replay_window`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReplay {
    /// The clean window's baseline when the batch ran it to the end,
    /// `None` when it stopped at its last fork, or the clean run's
    /// failure (the outcomes are then incomplete).
    pub clean: Result<Option<WindowBaseline>, String>,
    /// One per key: the forks in order, then the inert keys.
    pub outcomes: Vec<Result<PendingOutcome, String>>,
    /// The cycles the batch simulated.
    pub cycles: ForkCycles,
}

/// Where a window's runs start: the anchor checkpoint, restored.
pub(crate) fn anchor_start<'a>(program: &Program, ck: &'a Checkpoint) -> Start<'a> {
    Start::restored(ck.restore(program), ck.warm.as_ref())
}

/// Runs `batch` on `core`, a fault-free machine at the window's anchor
/// observed by `obs` (see the module docs). For each fork, `arm` arms
/// the key's fault on the paused clone and its observer, and `score`
/// scores the finished faulted run (or, for an inert key, the clean
/// run); `baseline` takes the finished clean run's baseline. A key
/// whose fork point the clean run never reaches — it stopped first —
/// runs from the anchor through `scratch` instead.
pub(crate) fn replay_forks<'c, P, O>(
    batch: &WindowBatch<'_>,
    mut core: Core<'c, P>,
    mut obs: O,
    arm: impl Fn(&mut Core<'c, P>, &mut O, FaultKey),
    score: impl Fn(FaultKey, &P::Output, &O) -> PendingOutcome,
    baseline: impl Fn(&P::Output) -> WindowBaseline,
    scratch: impl Fn(FaultKey) -> Result<PendingOutcome, String>,
) -> WindowReplay
where
    P: Redundancy + Clone,
    P::Error: ToString,
    O: Observer + Clone,
{
    let mut outcomes = Vec::with_capacity(batch.forks.len() + batch.inert.len());
    let mut cycles = ForkCycles::default();
    let failed = |e: P::Error, cycles| WindowReplay {
        clean: Err(e.to_string()),
        outcomes: Vec::new(),
        cycles,
    };
    let mut stop = None;
    for &key in batch.forks {
        if stop.is_none() {
            match core.run_until(batch.budget, &mut obs, key.1) {
                Ok(s) => stop = s,
                Err(e) => return failed(e, cycles),
            }
        }
        if stop.is_some() {
            let r = scratch(key);
            if let Ok(p) = &r {
                cycles.suffix += p.cycles;
            }
            outcomes.push(r);
            continue;
        }
        let fork = core.cycle();
        let (mut trial, mut trial_obs) = (core.clone(), obs.clone());
        arm(&mut trial, &mut trial_obs, key);
        let r = trial
            .run(batch.budget, &mut trial_obs)
            .map(|out| score(key, &out, &trial_obs))
            .map_err(|e| e.to_string());
        if let Ok(p) = &r {
            cycles.suffix += p.cycles - fork;
            cycles.skipped += fork;
        }
        outcomes.push(r);
    }
    if !batch.to_end {
        cycles.clean += core.cycle();
        return WindowReplay {
            clean: Ok(None),
            outcomes,
            cycles,
        };
    }
    let stop = match stop {
        Some(stop) => stop,
        None => match core.run_until(batch.budget, &mut obs, Seq::MAX) {
            Ok(stop) => stop.expect("a run never pauses before Seq::MAX"),
            Err(e) => return failed(e, cycles),
        },
    };
    cycles.clean += core.cycle();
    let clean = core.finish(stop, &mut obs);
    for &key in batch.inert {
        let p = score(key, &clean, &obs);
        cycles.skipped += p.cycles;
        outcomes.push(Ok(p));
    }
    WindowReplay {
        clean: Ok(Some(baseline(&clean))),
        outcomes,
        cycles,
    }
}
