//! Deterministic-parallelism contract: fanning a campaign or a figure
//! sweep over worker threads changes wall-clock time and nothing else.
//! Every test here compares a `jobs = 1` serial run against parallel
//! runs of the same seed and asserts the scientific output is equal.

use reese::core::ReeseConfig;
use reese::faults::{Campaign, CoverageReport, FaultMix};
use reese::workloads::{Kernel, Suite};
use reese_bench::{Experiment, Variant};

fn campaign_report(kernel: Kernel, jobs: usize) -> CoverageReport {
    Campaign::new(ReeseConfig::starting(), FaultMix::broad())
        .trials(48)
        .seed(0xDE7E12)
        .jobs(jobs)
        .run(&kernel.build(1))
        .expect("campaign runs")
}

#[test]
fn campaign_reports_identical_across_worker_counts() {
    let serial = campaign_report(Kernel::Compiler, 1);
    for jobs in [2, 3, 4, 8] {
        let parallel = campaign_report(Kernel::Compiler, jobs);
        assert_eq!(parallel, serial, "jobs={jobs} must not change the report");
        // Equality covers the aggregate; spot-check the per-trial order
        // too, since the merge is what guarantees it.
        assert_eq!(
            parallel.outcomes, serial.outcomes,
            "trial order must be preserved"
        );
    }
}

#[test]
fn campaign_repeats_are_bit_identical() {
    let a = campaign_report(Kernel::Lisp, 4);
    let b = campaign_report(Kernel::Lisp, 4);
    assert_eq!(a, b, "same seed + same jobs must reproduce exactly");
}

#[test]
fn experiment_grid_identical_across_worker_counts() {
    let suite = Suite::smoke();
    let run = |jobs: usize| {
        Experiment::new(
            "parallel determinism",
            reese::pipeline::PipelineConfig::starting(),
        )
        .variants(&[
            Variant::Baseline,
            Variant::Reese {
                spare_alus: 2,
                spare_muls: 0,
            },
        ])
        .jobs(jobs)
        .run_on(&suite)
    };
    let serial = run(1);
    for jobs in [2, 4] {
        let parallel = run(jobs);
        assert_eq!(
            parallel.ipc, serial.ipc,
            "jobs={jobs} must not change the IPC grid"
        );
        assert_eq!(parallel.kernels, serial.kernels);
        assert_eq!(parallel.variants, serial.variants);
    }
}

#[test]
fn throughput_is_observability_not_science() {
    let serial = campaign_report(Kernel::Compiler, 1);
    let parallel = campaign_report(Kernel::Compiler, 4);
    // Reports compare equal even though the recorded throughput
    // metadata necessarily differs between the two runs.
    assert_eq!(serial, parallel);
    assert_eq!(serial.throughput.as_ref().map(|t| t.jobs), Some(1));
    let t = parallel.throughput.expect("recorded");
    // A thread budget of four: the trial phase's last worker waits while
    // the clean reference run holds its thread, then joins, and a phase
    // with fewer batches than threads uses fewer. The hand-over is
    // pinned by the campaign module's
    // `clean_run_holds_one_thread_of_the_budget_until_it_finishes`.
    assert!((3..=4).contains(&t.jobs), "{} workers", t.jobs);
    assert_eq!(t.items(), 48);
    assert!(t.wall.as_nanos() > 0);
    assert!((0.0..=1.0).contains(&t.utilisation()));
}
