//! Campaign-throughput benchmark: checkpoint-anchored replay vs the
//! from-scratch oracle arm.
//!
//! Runs the same seeded Monte-Carlo injection campaign (default trial
//! count, broad fault mix) on every standard kernel under both
//! [`TrialEngine`] arms. The arms share the anchored-window trial
//! semantics, so their reports must be byte-identical — this binary
//! asserts that on every kernel before timing anything, making a perf
//! run double as the replay-exactness oracle. The paired timings then
//! price what the reuse machinery buys: `Full` re-derives each trial's
//! anchor state from instruction 0 and re-runs its clean window;
//! `Replay` restores each window from the once-per-campaign checkpoint
//! sweep, runs its clean run once with the window's trials forked off
//! it at their injection points, and memoizes duplicate fault keys.
//!
//! Results are printed and written to `BENCH_campaign.json` (override
//! with `--out FILE`; `--samples N` adjusts the timed sample count;
//! `--guard` fails the run if the median replay/full speedup across
//! the kernels drops below the 5x acceptance floor, or any kernel
//! regresses against its recorded seed value).

use reese_core::ReeseConfig;
use reese_faults::{Campaign, FaultMix, TrialEngine};
use reese_stats::bench::{Criterion, PairMeasurement};
use reese_workloads::Kernel;
use std::hint::black_box;

/// Dynamic instructions per kernel: long enough that a fault's anchor
/// sits deep in the stream, where replay's suffix-only cost separates
/// from the from-scratch arm's whole-prefix cost.
const TARGET_INSTRUCTIONS: u64 = 2_000_000;

/// Injection trials per campaign — the CLI default.
const TRIALS: usize = 200;

/// Replay/full campaign speedups measured when this benchmark was
/// seeded, keyed by kernel. Kept in the report so `BENCH_campaign.json`
/// records the before/after of later engine work without digging
/// through git history.
const SPEEDUP_SEED: &[(&str, f64)] = &[
    ("compiler", 6.63),
    ("database", 6.33),
    ("gameplay", 5.10),
    ("imaging", 5.66),
    ("lisp", 8.00),
    ("strings", 5.90),
];

/// `--guard` tolerance: a live per-kernel speedup may sit this
/// fraction below its recorded seed before the run fails. The ratio is
/// host-independent; 15% is far above run-to-run noise.
const GUARD_TOLERANCE: f64 = 0.85;

/// The acceptance floor: the median replay/full speedup across the
/// standard kernels must stay at or above this factor at default
/// trial counts.
const GUARD_FLOOR: f64 = 5.0;

/// `--guard` ceiling on the telemetry-on / telemetry-off time ratio.
/// The journal writes sit around the simulation phases, never inside a
/// trial, so attaching one must be free; 1.10 is far above noise.
const TELEMETRY_CEILING: f64 = 1.10;

struct Cell {
    kernel: &'static str,
    pair: PairMeasurement,
    coverage: f64,
    detected: u64,
}

impl Cell {
    fn full_trials_per_s(&self) -> f64 {
        TRIALS as f64 / self.pair.a.min.as_secs_f64()
    }

    fn replay_trials_per_s(&self) -> f64 {
        TRIALS as f64 / self.pair.b.min.as_secs_f64()
    }

    fn speedup(&self) -> f64 {
        self.pair.speedup
    }

    fn speedup_seed(&self) -> Option<f64> {
        SPEEDUP_SEED
            .iter()
            .find(|(k, _)| *k == self.kernel)
            .map(|&(_, v)| v)
    }
}

fn main() {
    let mut out_path = String::from("BENCH_campaign.json");
    let mut samples = 3usize;
    let mut guard = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out" => out_path = argv.next().expect("--out needs a path"),
            "--samples" => {
                samples = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--samples needs a number")
            }
            "--guard" => guard = true,
            other => panic!("unknown argument {other:?}"),
        }
    }

    let mut cells = Vec::new();
    let mut c = Criterion::default();
    for kernel in Kernel::ALL {
        let program = kernel.build_for(TARGET_INSTRUCTIONS);
        let campaign = |engine: TrialEngine| {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(TRIALS)
                .engine(engine)
        };

        // Oracle first: the two arms must agree byte-for-byte before
        // their relative speed means anything.
        let full = campaign(TrialEngine::Full)
            .run(&program)
            .expect("campaign runs");
        let replay = campaign(TrialEngine::Replay)
            .run(&program)
            .expect("campaign runs");
        assert_eq!(replay, full, "{}: replay diverged from full", kernel.name());
        assert_eq!(
            replay.to_json(),
            full.to_json(),
            "{}: reports must serialise identically",
            kernel.name()
        );

        let mut g = c.benchmark_group(kernel.name());
        g.sample_size(samples);
        let pair = g.bench_pair(
            "campaign/full",
            "campaign/replay",
            || {
                black_box(
                    campaign(TrialEngine::Full)
                        .run(&program)
                        .expect("campaign runs"),
                )
            },
            || {
                black_box(
                    campaign(TrialEngine::Replay)
                        .run(&program)
                        .expect("campaign runs"),
                )
            },
        );
        g.finish();
        cells.push(Cell {
            kernel: kernel.name(),
            pair,
            coverage: full.coverage(),
            detected: full.detected,
        });
    }

    // Telemetry must be free: the journal is written around the
    // phases, not inside trials, so a campaign with `--telemetry-out`
    // attached may not cost measurable throughput. One kernel suffices
    // — every campaign shares the phase structure.
    let tele_pair = {
        let kernel = Kernel::Lisp;
        let program = kernel.build_for(TARGET_INSTRUCTIONS);
        let journal = std::env::temp_dir().join(format!("bench-tele-{}.jsonl", std::process::id()));
        let campaign = || {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(TRIALS)
                .engine(TrialEngine::Replay)
        };
        let mut g = c.benchmark_group("telemetry");
        g.sample_size(samples);
        let pair = g.bench_pair(
            "campaign/telemetry-on",
            "campaign/telemetry-off",
            || {
                black_box(
                    campaign()
                        .telemetry_out(&journal)
                        .run(&program)
                        .expect("campaign runs"),
                )
            },
            || black_box(campaign().run(&program).expect("campaign runs")),
        );
        g.finish();
        let _ = std::fs::remove_file(&journal);
        pair
    };

    println!();
    println!(
        "{:<10} {:>8} {:>14} {:>16} {:>8} {:>8}",
        "kernel", "trials", "full trials/s", "replay trials/s", "seed", "speedup"
    );
    for cell in &cells {
        println!(
            "{:<10} {:>8} {:>14.1} {:>16.1} {:>7.2}x {:>7.2}x",
            cell.kernel,
            TRIALS,
            cell.full_trials_per_s(),
            cell.replay_trials_per_s(),
            cell.speedup_seed().unwrap_or(f64::NAN),
            cell.speedup()
        );
    }
    let mut sorted: Vec<f64> = cells.iter().map(Cell::speedup).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    };
    println!("median speedup across kernels: {median:.2}x");
    println!(
        "telemetry journal cost: on/off time ratio {:.3} (ceiling {TELEMETRY_CEILING})",
        tele_pair.speedup
    );
    if guard {
        assert!(
            tele_pair.speedup <= TELEMETRY_CEILING,
            "guard: telemetry-on/telemetry-off time ratio {:.3} exceeds the \
             {TELEMETRY_CEILING} ceiling — the journal leaked into the trial path",
            tele_pair.speedup
        );
        assert!(
            median >= GUARD_FLOOR,
            "guard: median replay/full campaign speedup {median:.3} fell below the \
             {GUARD_FLOOR}x acceptance floor"
        );
        for cell in &cells {
            let seed = cell.speedup_seed().expect("seed row exists");
            let floor = seed * GUARD_TOLERANCE;
            assert!(
                cell.speedup() >= floor,
                "guard: {} replay/full campaign speedup {:.3} fell below {:.3} \
                 (seed {:.3} x tolerance {GUARD_TOLERANCE})",
                cell.kernel,
                cell.speedup(),
                floor,
                seed,
            );
        }
        println!(
            "guard: median holds the {GUARD_FLOOR}x floor and every kernel holds its seed ratio"
        );
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"campaign\",\n");
    json.push_str(&format!(
        "  \"target_instructions\": {TARGET_INSTRUCTIONS},\n"
    ));
    json.push_str(&format!("  \"trials\": {TRIALS},\n"));
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str(&format!("  \"median_speedup\": {median:.3},\n"));
    json.push_str(&format!("  \"median_floor\": {GUARD_FLOOR:.1},\n"));
    json.push_str(&format!(
        "  \"telemetry_on_off_ratio\": {:.3},\n",
        tele_pair.speedup
    ));
    json.push_str(&format!(
        "  \"telemetry_ceiling\": {TELEMETRY_CEILING:.2},\n"
    ));
    json.push_str("  \"cells\": [\n");
    let rows: Vec<String> = cells
        .iter()
        .map(|cell| {
            format!(
                "    {{\"kernel\": \"{}\", \"trials\": {TRIALS}, \
                 \"full_min_s\": {:.6}, \"replay_min_s\": {:.6}, \
                 \"full_trials_per_s\": {:.1}, \"replay_trials_per_s\": {:.1}, \
                 \"speedup_seed\": {:.3}, \"speedup\": {:.3}, \
                 \"coverage\": {:.6}, \"detected\": {}, \"byte_identical\": true}}",
                cell.kernel,
                cell.pair.a.min.as_secs_f64(),
                cell.pair.b.min.as_secs_f64(),
                cell.full_trials_per_s(),
                cell.replay_trials_per_s(),
                cell.speedup_seed().unwrap_or(f64::NAN),
                cell.speedup(),
                cell.coverage,
                cell.detected,
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, json).expect("write bench report");
    println!("\nwritten to {out_path}");
}
