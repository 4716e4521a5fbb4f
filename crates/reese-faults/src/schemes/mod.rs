//! Pluggable soft-error detection backends.
//!
//! The REESE paper evaluates one mechanism; the literature it sits in
//! evaluates several. This module factors everything a detection
//! mechanism contributes to a fault-injection trial — how the program
//! is prepared, which detailed machine times it, and how one injected
//! fault is scored — into the [`DetectionScheme`] trait, so the same
//! [`crate::Campaign`] (serial parameter pre-draw, checkpoint-anchored
//! windows, memoization, resume) measures every backend.
//!
//! Five backends are registered, one per [`Scheme`]:
//!
//! - **baseline** ([`classic::BaselineScheme`]): the unprotected
//!   out-of-order core. Faults are injected *architecturally* and
//!   nothing looks for them — the silent-data-corruption floor every
//!   other scheme is judged against.
//! - **reese** ([`classic::ReeseScheme`]): the paper's P/R time
//!   redundancy, delegating to [`reese_core::ReeseSim`] exactly as the
//!   campaign historically did. Outcomes are bit-identical to the
//!   pre-trait campaign.
//! - **duplex** ([`classic::DuplexScheme`]): full spatial duplication
//!   with compare-before-commit, via [`reese_core::DuplexSim`].
//! - **meek** ([`meek::MeekScheme`]): MEEK-style heterogeneous checker
//!   cores — committed instructions stream through a few small
//!   in-order checker pipelines behind a bounded fan-out queue.
//! - **swift** ([`swift::SwiftScheme`]): Azambuja-style software-only
//!   detection — the *program* is rewritten with duplicated
//!   instructions, shadow registers, and basic-block signature checks;
//!   the unprotected baseline core runs the hardened binary.
//!
//! The trait is deliberately small: a scheme is a way to run a program
//! (clean, or over an anchored window) plus a way to score one fault.
//! Window planning, anchor capture, baseline sharing, memoization, and
//! report assembly all stay in the campaign, shared by every backend.

/// Runs one trial's simulation on `$sim` with the scheme's own observer
/// `$own` and the trial's optional tracer and forensic probe attached to
/// the `RunSpec` `$spec`. Each combination is its own monomorphised
/// call, so the common unobserved trial pays nothing.
macro_rules! run_trial_observed {
    ($tracer:expr, $probe:expr, $sim:expr, $spec:expr, $own:expr) => {{
        use ::reese_trace::Pair;
        match ($tracer, $probe) {
            (Some(tr), Some(dp)) => $sim.run_spec($spec.observe(Pair($own, &mut Pair(tr, dp)))),
            (Some(tr), None) => $sim.run_spec($spec.observe(Pair($own, tr))),
            (None, Some(dp)) => $sim.run_spec($spec.observe(Pair($own, dp))),
            (None, None) => $sim.run_spec($spec.observe($own)),
        }
    }};
}

pub(crate) mod classic;
mod fork;
pub(crate) mod meek;
mod observe;
pub mod report;
pub(crate) mod swift;

use crate::engine::WindowBaseline;
use crate::{FaultClass, TrialOutcome};
use reese_ckpt::{Checkpoint, Scheme};
use reese_core::ReeseConfig;
use reese_isa::Program;
use reese_trace::{DeepLog, Tracer};

pub use fork::{ForkCycles, PendingOutcome, WindowBatch, WindowReplay};
pub use report::{EvalOptions, SchemeRow, SchemesReport};
pub use swift::transform as swift_transform;

/// A fault key as a campaign draws it: class, the global dynamic
/// instruction it targets, and the bit it flips.
pub type FaultKey = (FaultClass, u64, u8);

/// What a clean scheme run produced: the scheme-independent facts a
/// campaign compares trials against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeRun {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed (primary-stream) instructions.
    pub committed: u64,
    /// Values printed by committed `print` instructions, in order.
    pub output: Vec<i64>,
    /// Exit code from the committed `halt`, if the run halted.
    pub exit_code: Option<u64>,
    /// Digest of the final architectural register state.
    pub state_digest: u64,
}

/// One fault-injection trial, as handed to a scheme: the anchored
/// window (checkpoint plus budget), its clean baseline, and the fault
/// key drawn by the campaign.
pub struct Trial<'a> {
    /// The (prepared) program under test.
    pub program: &'a Program,
    /// Anchor checkpoint the window restores from.
    pub ck: &'a Checkpoint,
    /// Clean reference for the same window.
    pub baseline: &'a WindowBaseline,
    /// Fault class drawn from the campaign mix.
    pub class: FaultClass,
    /// Global dynamic-instruction index the fault targets.
    pub seq: u64,
    /// Bit position (0..64) the fault flips.
    pub bit: u8,
    /// Committed-instruction budget for the window.
    pub budget: u64,
    /// Metrics tracer, when the campaign samples per-interval metrics.
    pub tracer: Option<&'a mut Tracer>,
    /// Deep forensic observer, when a single trial is being explained.
    /// Captures every pipeline event and per-cycle state of the faulty
    /// run for divergence diffing against the clean window.
    pub probe: Option<&'a mut DeepLog>,
}

/// A soft-error detection mechanism, as seen by a fault-injection
/// campaign.
///
/// Implementations must be pure given their construction config: every
/// method is `&self`, and two calls with equal arguments must produce
/// equal results (campaign memoization and the Full/Replay engine
/// oracle both depend on it).
pub trait DetectionScheme: Send + Sync {
    /// Which registered scheme this is.
    fn scheme(&self) -> Scheme;

    /// Prepares a program for this scheme. The identity for hardware
    /// schemes; software-only schemes return the hardened rewrite.
    /// Everything downstream — checkpoints, dynamic length, fault
    /// sequence numbers — is in terms of the *prepared* program.
    fn prepare(&self, program: &Program) -> Result<Program, String> {
        Ok(program.clone())
    }

    /// Clean detailed run from program start, stopping at `halt` or
    /// after `max_instructions` commits. The cycle count defines the
    /// scheme's time overhead, so schemes with off-core checking
    /// account their drain/stall time here.
    fn run_limit(&self, program: &Program, max_instructions: u64) -> Result<SchemeRun, String>;

    /// Clean run over an anchored window: restore from `ck`, run until
    /// `budget` instructions commit (or halt).
    fn run_window(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
    ) -> Result<SchemeRun, String>;

    /// [`DetectionScheme::run_window`] with a deep observer attached —
    /// the forensics capture path. Must simulate the identical machine:
    /// the returned [`SchemeRun`] must equal the unobserved one.
    fn run_window_observed(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        probe: &mut DeepLog,
    ) -> Result<SchemeRun, String>;

    /// Runs one injected fault over its anchored window, restored from
    /// `ck`, and scores it as far as it can be without the clean
    /// window. `tracer` and `probe` watch the faulted run (metrics
    /// sampling, forensics) without changing it. Only called for
    /// classes with [`FaultClass::detectable_by_design`] — the campaign
    /// scores the modeled-undetectable classes itself, identically for
    /// every scheme.
    fn run_faulted(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        key: FaultKey,
        tracer: Option<&mut Tracer>,
        probe: Option<&mut DeepLog>,
    ) -> Result<PendingOutcome, String>;

    /// Scores one injected fault over its anchored window against the
    /// window's clean baseline ([`DetectionScheme::run_faulted`], then
    /// [`PendingOutcome::settle`]).
    fn run_trial(&self, t: Trial<'_>) -> Result<TrialOutcome, String> {
        let key = (t.class, t.seq, t.bit);
        self.run_faulted(t.program, t.ck, t.budget, key, t.tracer, t.probe)
            .map(|p| p.settle(t.baseline))
    }

    /// Whether a fault of `class` leaves the simulated machine
    /// untouched, so that its trial is the clean window run itself (a
    /// checker-side upset on a machine that checks off-core). The
    /// replay engine scores such keys from the clean run instead of
    /// forking them.
    fn inert(&self, class: FaultClass) -> bool {
        let _ = class;
        false
    }

    /// Runs one batch of the replay engine's window phase: the window's
    /// clean run from the anchor, with every key in `batch.forks`
    /// forked off it at its injection point (see
    /// [`WindowBatch`]). Each outcome must equal what
    /// [`DetectionScheme::run_faulted`] gives for the same key.
    fn replay_window(&self, batch: &WindowBatch<'_>) -> WindowReplay;
}

/// Builds the registered backend for a scheme over a REESE
/// configuration (non-REESE schemes use the subset of the config that
/// applies to them: the pipeline core, the flush penalty).
pub fn build(scheme: Scheme, config: &ReeseConfig) -> Box<dyn DetectionScheme> {
    match scheme {
        Scheme::Baseline => Box::new(classic::BaselineScheme::new(config)),
        Scheme::Reese => Box::new(classic::ReeseScheme::new(config)),
        Scheme::Duplex => Box::new(classic::DuplexScheme::new(config)),
        Scheme::Meek => Box::new(meek::MeekScheme::new(config)),
        Scheme::Swift => Box::new(swift::SwiftScheme::new(config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_scheme_builds() {
        let config = ReeseConfig::starting();
        for s in Scheme::ALL {
            let b = build(s, &config);
            assert_eq!(b.scheme(), s);
        }
    }

    #[test]
    fn prepare_is_identity_for_hardware_schemes() {
        let config = ReeseConfig::starting();
        let prog = reese_isa::assemble("  li t0, 3\n  print t0\n  halt\n").unwrap();
        for s in [
            Scheme::Baseline,
            Scheme::Reese,
            Scheme::Duplex,
            Scheme::Meek,
        ] {
            let prepared = build(s, &config).prepare(&prog).unwrap();
            assert_eq!(prepared.text(), prog.text(), "{s} must not rewrite code");
        }
        let hardened = build(Scheme::Swift, &config).prepare(&prog).unwrap();
        assert!(
            hardened.len() > prog.len(),
            "swift must duplicate instructions"
        );
    }
}
