//! Trial engines: per-trial recompute-from-scratch vs checkpoint-
//! anchored replay.
//!
//! Both engines score a simulated trial over the same **anchored
//! window**: the detailed machine starts from the continuous-warm
//! functional state at the checkpoint boundary at-or-before the fault
//! (minus a runway, so the pipeline reaches steady state before the
//! fault fires) and runs to the boundary at-or-after the fault plus a
//! margin (so recovery bubbles drain inside the window). Detection,
//! latency, recovery cost, and state cleanliness are classified from
//! the faulted window against the clean window from the same start
//! state and budget.
//!
//! The window is the *definition* of a trial, not an approximation of
//! one: a whole-program "extra cycles" number for a recovered
//! transient measures the tail of the workload (downstream slack
//! absorbs or amplifies the flush bubble arbitrarily far from the
//! fault), whereas the windowed overhead is a property of the fault
//! itself. When the window covers the whole program — every small
//! program with dynamic length below the checkpoint interval — the
//! anchored trial degenerates to exactly the historical full-run
//! trial.
//!
//! [`TrialEngine::Full`] is the oracle arm: every trial re-derives its
//! anchor state by functionally executing the program from instruction
//! 0 (via [`reese_ckpt::warm_checkpoint_at`]) and re-runs its own
//! clean window — no sweep, no caches, no memoization, full
//! per-trial cost. [`TrialEngine::Replay`] captures all anchors in one
//! [`reese_ckpt::checkpoint_stream`] sweep and memoizes outcomes by
//! fault key. It runs each window's clean run once from its anchor and
//! forks the window's trials off it: at a trial's fork point, the last
//! cycle boundary before any part of the machine can have executed the
//! faulted instruction, it clones the running core, arms the fault on
//! the clone and simulates only the faulted suffix (see
//! [`crate::schemes::WindowBatch`]). Per-interval metrics sampling
//! instead restores every trial from its anchor against a cached clean
//! window, as forensics does. Outcome byte-identity between the two
//! arms therefore certifies the entire reuse machinery — checkpoint
//! capture/restore, forking, split scoring, memoization, parallel
//! fan-out, and resume — against the from-scratch computation.

use crate::schemes::DetectionScheme;
use reese_ckpt::Checkpoint;
use reese_isa::Program;
use std::fmt;
use std::str::FromStr;

/// Pipeline spin-up distance: the anchor is the checkpoint boundary
/// at-or-before `seq - RUNWAY`, so at least this many instructions
/// commit before the fault can fire (when the fault is not within the
/// first window).
pub(crate) const RUNWAY: u64 = 512;

/// Drain distance: the window stops at the first checkpoint boundary
/// after `seq + MARGIN`, so recovery bubbles settle inside the window.
pub(crate) const MARGIN: u64 = 512;

/// Default checkpoint spacing for campaigns (instructions).
pub const DEFAULT_CKPT_EVERY: u64 = 2048;

/// Cap on checkpoints resident during the reference sweep. Each
/// capture clones the touched pages plus the full cache/TLB/predictor
/// tables, so an unbounded sweep over a long program is dominated by
/// capture cost; past this count the sweep thins itself (stride
/// doubles) and the campaign derives the anchors its trials actually
/// use from the nearest coarse checkpoint instead.
pub(crate) const MAX_RESIDENT_CHECKPOINTS: usize = 96;

/// Which machinery computes each simulated trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialEngine {
    /// Recompute everything from scratch per trial: functional
    /// fast-forward from instruction 0 to the anchor, then a fresh
    /// clean window and the faulted window. The oracle arm — it shares
    /// no state across trials.
    Full,
    /// One checkpoint sweep per campaign; one clean run per window with
    /// its trials forked off it, memoized outcomes. The default arm.
    Replay,
}

impl fmt::Display for TrialEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrialEngine::Full => "full",
            TrialEngine::Replay => "replay",
        })
    }
}

impl FromStr for TrialEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<TrialEngine, String> {
        match s {
            "full" => Ok(TrialEngine::Full),
            "replay" => Ok(TrialEngine::Replay),
            other => Err(format!(
                "unknown trial engine `{other}` (expected `full` or `replay`)"
            )),
        }
    }
}

/// The anchored window a fault at `seq` is scored over. Identical for
/// both engines by construction: it depends only on (`seq`,
/// checkpoint interval, boundary count, instruction limit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TrialWindow {
    /// Index of the anchor boundary (boundary `i` sits at `i * every`).
    pub anchor_idx: usize,
    /// Committed-instruction budget for the window (`u64::MAX` = run
    /// to halt).
    pub budget: u64,
}

impl TrialWindow {
    /// The anchor boundary in global dynamic-instruction numbering.
    pub fn anchor(&self, every: u64) -> u64 {
        self.anchor_idx as u64 * every
    }
}

/// Number of checkpoint boundaries a sweep captures over a program of
/// `dynamic_len` instructions: boundaries sit at multiples of `every`
/// strictly below the halt.
pub(crate) fn boundary_count(dynamic_len: u64, every: u64) -> usize {
    ((dynamic_len - 1) / every + 1) as usize
}

/// Plans the window for a fault at `seq`. `limit` is the campaign's
/// committed-instruction cap (`u64::MAX` = none); `dynamic_len` is the
/// clean run's committed-instruction count.
pub(crate) fn plan_window(
    seq: u64,
    every: u64,
    boundaries: usize,
    limit: u64,
    dynamic_len: u64,
) -> TrialWindow {
    let anchor_idx = ((seq.saturating_sub(RUNWAY) / every) as usize).min(boundaries - 1);
    let anchor = anchor_idx as u64 * every;
    let stop_idx = (seq + MARGIN) / every + 1;
    let budget = if (stop_idx as usize) < boundaries {
        stop_idx * every - anchor
    } else {
        // Final window: the clean tail halts after `dynamic_len -
        // anchor` commits, but an architecturally corrupted stream may
        // never halt at all (a flipped loop bound loops forever), so
        // "run to halt" still needs a ceiling. One full checkpoint
        // interval of headroom past the clean halt separates a late
        // halt from a runaway; a run that exhausts it scores as
        // budget-limited and not clean.
        let tail = dynamic_len - anchor + every;
        if limit == u64::MAX {
            tail
        } else {
            tail.min(limit - anchor)
        }
    };
    TrialWindow { anchor_idx, budget }
}

/// Clean-window reference: cycle count, fetch-frontier digest, and
/// committed output of the fault-free run from `ck` under `budget`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowBaseline {
    /// Cycles of the clean window.
    pub cycles: u64,
    /// Fetch-frontier architectural digest at window end.
    pub digest: u64,
    /// FNV-1a over the window's committed output writes.
    pub output_fnv: u64,
    /// The window reached the program's halt (rather than its
    /// instruction budget), so the frontier digest is the final
    /// architectural state and is comparable across runs.
    pub halted: bool,
}

impl WindowBaseline {
    /// The baseline of a finished clean window run: its `cycles`,
    /// fetch-frontier `digest`, committed `output` and `exit` code.
    pub(crate) fn of(cycles: u64, digest: u64, output: &[i64], exit: Option<u64>) -> Self {
        WindowBaseline {
            cycles,
            digest,
            output_fnv: output_fnv(output),
            halted: exit.is_some(),
        }
    }
}

/// FNV-1a over a committed output stream.
pub(crate) fn output_fnv(out: &[i64]) -> u64 {
    let bytes: Vec<u8> = out.iter().flat_map(|v| v.to_le_bytes()).collect();
    crate::stream::fnv1a64(&bytes)
}

/// Runs the clean window from a checkpoint through a detection scheme.
pub(crate) fn clean_window(
    scheme: &dyn DetectionScheme,
    program: &Program,
    ck: &Checkpoint,
    budget: u64,
) -> Result<WindowBaseline, String> {
    let r = scheme.run_window(program, ck, budget)?;
    Ok(WindowBaseline::of(
        r.cycles,
        r.state_digest,
        &r.output,
        r.exit_code,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_round_trip() {
        for e in [TrialEngine::Full, TrialEngine::Replay] {
            assert_eq!(e.to_string().parse::<TrialEngine>().unwrap(), e);
        }
        let err = "fast".parse::<TrialEngine>().unwrap_err();
        assert!(err.contains("unknown trial engine `fast`"), "{err}");
    }

    #[test]
    fn boundary_count_matches_sweep_semantics() {
        // Boundaries at multiples of `every` strictly below the halt.
        assert_eq!(boundary_count(1, 2048), 1);
        assert_eq!(boundary_count(2048, 2048), 1);
        assert_eq!(boundary_count(2049, 2048), 2);
        assert_eq!(boundary_count(4096, 2048), 2);
        assert_eq!(boundary_count(4097, 2048), 3);
    }

    #[test]
    fn window_gives_runway_and_margin() {
        // Fault deep in the stream: anchored one boundary back, stopped
        // one boundary past seq + margin.
        let w = plan_window(4500, 2048, 8, u64::MAX, 16_000);
        assert_eq!(w.anchor_idx, 1); // (4500-512)/2048 = 1
        assert_eq!(w.anchor(2048), 2048);
        assert_eq!(w.budget, (2 + 1) * 2048 - 2048); // stop at boundary 3
        assert!(4500 - w.anchor(2048) >= RUNWAY);
    }

    #[test]
    fn window_near_start_anchors_at_zero() {
        let w = plan_window(100, 2048, 8, u64::MAX, 16_000);
        assert_eq!(w.anchor_idx, 0);
        assert_eq!(w.budget, 2048);
    }

    #[test]
    fn window_near_end_runs_to_halt() {
        // Run-to-halt is still bounded: the clean tail plus one
        // interval of headroom, so a corrupted stream that loops
        // forever cannot hang the trial.
        let w = plan_window(15_000, 2048, 8, u64::MAX, 16_000);
        assert_eq!(w.anchor_idx, 7);
        assert_eq!(w.budget, 16_000 - 7 * 2048 + 2048);
    }

    #[test]
    fn window_near_end_respects_instruction_cap() {
        let w = plan_window(15_000, 2048, 8, 16_000, 16_000);
        assert_eq!(w.anchor_idx, 7);
        assert_eq!(w.budget, 16_000 - 7 * 2048);
    }

    #[test]
    fn small_program_degenerates_to_full_run() {
        // Dynamic length below the interval: one boundary, whole-program
        // window — the historical full-run trial.
        let n = boundary_count(122, DEFAULT_CKPT_EVERY);
        assert_eq!(n, 1);
        let w = plan_window(60, DEFAULT_CKPT_EVERY, n, u64::MAX, 122);
        assert_eq!(w.anchor_idx, 0);
        assert_eq!(w.budget, 122 + DEFAULT_CKPT_EVERY);
    }
}
