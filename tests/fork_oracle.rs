//! Fork exactness: the oracles behind the replay engine's forked trials.
//!
//! The replay engine runs each anchored window's clean run once and
//! forks every faulted trial off it: at the trial's fork point it
//! clones the running core, arms the fault on the clone, and simulates
//! only the faulted suffix. That is exact only if (a) a cloned core,
//! and a paused-and-resumed one, continue exactly as the uncloned run
//! does, and (b) the forked trials reproduce the from-scratch `Full`
//! engine byte for byte when many keys share a window, including keys
//! at the very start of the program and in the final run-to-halt
//! window.

use reese::ckpt::Scheme;
use reese::core::{DuplexSim, ReeseConfig, ReeseSim, SchedulerMode};
use reese::faults::{Campaign, CoverageReport, FaultMix, TrialEngine, DEFAULT_CKPT_EVERY};
use reese::isa::Program;
use reese::pipeline::{Core, PipelineConfig, PipelineSim, Redundancy, Start};
use reese::trace::NoopObserver;
use reese::workloads::rv32::Rv32Kernel;
use reese::workloads::Kernel;
use std::fmt::Debug;
use std::path::Path;

/// Runs a fresh core from `make` to the end, pausing at the fork point
/// of every `k`-th dynamic instruction. At each pause a clone runs to
/// the end and must equal the uncloned run; so must the original,
/// paused and resumed at every one of those points.
fn check_forks<'c, P>(label: &str, make: impl Fn() -> Core<'c, P>, k: u64)
where
    P: Redundancy + Clone,
    P::Output: PartialEq + Debug,
    P::Error: Debug,
{
    let reference = make().run(u64::MAX, NoopObserver).unwrap();
    let mut core = make();
    let mut obs = NoopObserver;
    let mut forks = 0;
    let stop = loop {
        match core.run_until(u64::MAX, &mut obs, forks * k).unwrap() {
            Some(stop) => break stop,
            None => {
                let at = core.cycle();
                let clone = core.clone().run(u64::MAX, NoopObserver).unwrap();
                assert!(
                    clone == reference,
                    "{label}: the clone at seq {} (cycle {at}) diverged",
                    forks * k
                );
                forks += 1;
            }
        }
    };
    assert!(forks >= 4, "{label}: only {forks} forks");
    let resumed = core.finish(stop, &mut obs);
    assert!(resumed == reference, "{label}: the paused run diverged");
}

fn starting(mode: SchedulerMode) -> PipelineConfig {
    PipelineConfig::starting().with_scheduler(mode)
}

fn start(program: &Program) -> Start<'_> {
    Start::Program { program, skip: 0 }
}

#[test]
fn cloned_and_resumed_cores_finish_exactly_like_the_uncloned_run() {
    let programs = [
        ("database", Kernel::Database.build(1), 500),
        ("rv32i strings", Rv32Kernel::Strings.build(5), 200),
    ];
    for (name, program, k) in &programs {
        for mode in [SchedulerMode::Scan, SchedulerMode::EventDriven] {
            let base = PipelineSim::new(starting(mode));
            check_forks(
                &format!("baseline {name} {mode:?}"),
                || base.core(start(program)),
                *k,
            );
            let reese = ReeseSim::new(ReeseConfig::starting().with_scheduler(mode));
            check_forks(
                &format!("reese {name} {mode:?}"),
                || reese.core(start(program)),
                *k,
            );
            let duplex = DuplexSim::new(starting(mode));
            check_forks(
                &format!("duplex {name} {mode:?}"),
                || duplex.core(start(program)),
                *k,
            );
        }
    }
}

/// A campaign over default-size database (about 4.5k dynamic
/// instructions, so 60 trials put about 15 keys in each 2048-instruction
/// window), with its report and outcome log.
fn campaign(
    scheme: Scheme,
    engine: TrialEngine,
    jobs: usize,
    every: u64,
    log: &Path,
) -> (CoverageReport, Vec<u8>) {
    let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
        .scheme(scheme)
        .trials(60)
        .seed(0x5EED)
        .engine(engine)
        .jobs(jobs)
        .ckpt_every(every)
        .outcomes_jsonl(log)
        .run(&Kernel::Database.build(1))
        .unwrap();
    (report, std::fs::read(log).unwrap())
}

/// Forked campaigns at each of `jobs` must reproduce `Full` byte for
/// byte: report, JSON, CSV and outcome log.
fn forked_matches_full(scheme: Scheme, every: u64, jobs: &[usize]) {
    let dir = std::env::temp_dir().join(format!(
        "reese-fork-oracle-{scheme}-{every}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let (full, full_log) = campaign(scheme, TrialEngine::Full, 3, every, &dir.join("full.jsonl"));
    if every == DEFAULT_CKPT_EVERY {
        // The draw covers both ends of the program: keys inside the
        // first RUNWAY (anchored at instruction 0 and forked at or near
        // cycle 0) and keys in the final run-to-halt window.
        let seqs: Vec<u64> = full.outcomes.iter().map(|o| o.seq).collect();
        assert!(seqs.iter().any(|&s| s < 512), "{seqs:?}");
        assert!(seqs.iter().any(|&s| s >= 2 * every - 512), "{seqs:?}");
    }
    for &j in jobs {
        let log = dir.join(format!("replay-j{j}.jsonl"));
        let (replay, replay_log) = campaign(scheme, TrialEngine::Replay, j, every, &log);
        assert_eq!(replay, full, "{scheme} -j{j}");
        assert_eq!(replay.to_json(), full.to_json(), "{scheme} -j{j}");
        assert_eq!(replay.to_csv(), full.to_csv(), "{scheme} -j{j}");
        assert!(
            replay_log == full_log,
            "{scheme} -j{j}: outcome logs differ"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn forked_baseline_trials_match_full() {
    forked_matches_full(Scheme::Baseline, DEFAULT_CKPT_EVERY, &[1, 3]);
}

#[test]
fn forked_reese_trials_match_full() {
    forked_matches_full(Scheme::Reese, DEFAULT_CKPT_EVERY, &[1, 3]);
}

#[test]
fn forked_duplex_trials_match_full() {
    forked_matches_full(Scheme::Duplex, DEFAULT_CKPT_EVERY, &[1, 3]);
}

#[test]
fn forked_meek_trials_match_full() {
    forked_matches_full(Scheme::Meek, DEFAULT_CKPT_EVERY, &[1, 3]);
}

#[test]
fn forked_swift_trials_match_full() {
    forked_matches_full(Scheme::Swift, DEFAULT_CKPT_EVERY, &[1, 3]);
}

#[test]
fn forked_trials_match_full_at_a_small_checkpoint_interval() {
    // Windows of a few hundred instructions: far more windows, and
    // anchors derived from the thinned sweep.
    forked_matches_full(Scheme::Reese, 64, &[3]);
}
