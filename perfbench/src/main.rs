//! End-to-end and per-layer benchmark of the REESE reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid|campaign-long|schemes-suite|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. One run sets the workload's inputs up
//! several times (`setup_s` is the median), runs one untimed warm-up
//! pass, then repeats the workload for `--seconds` and reports the
//! median pass. With `--trace 1` it alternates untraced and traced
//! passes, runs the layer probes, and reports the per-layer metrics and
//! the tracing overhead instead. Every pass's simulated output is
//! checked; the last line of standard output is one JSON object.

mod probes;
mod spans;
mod stats;
mod workloads;

use spans::Recorder;
use stats::{median, summarize};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Inputs, PassLayers, PassOutput};

const WORKLOADS: [&str; 3] = ["paper-grid", "campaign-long", "schemes-suite"];
/// Set-ups before the first pass.
const SETUP_FIRST: usize = 3;
/// Most set-ups per run: after the first ones, one more follows each
/// timed pass (outside its timing), so the `setup_s` median samples the
/// host across the whole run.
const SETUP_MAX: usize = 15;
/// Recorded expected outputs, relative to the repository root.
const EXPECTED: &str = "perfbench/expected.txt";
/// Where traced runs write spans and telemetry journals.
const OUT_DIR: &str = "perfbench/out";

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move.
#[rustfmt::skip]
const LAYERS: &[(&str, &str, &str)] = &[
    ("workloads.calibrate_ms", "ms", "setup_s, all workloads"),
    ("isa.rv32i_assemble_ms", "ms", "setup_s, all workloads"),
    ("cpu.emulator_minst_per_s", "Minst/s", "wall_s on campaign-long (sweep); a little on paper-grid (fetch)"),
    ("mem.access_ns", "ns", "sim_minst_per_s on paper-grid"),
    ("mem.l1d_miss_frac", "frac", "explains mem.access_ns"),
    ("mem.l2_miss_frac", "frac", "explains mem.access_ns"),
    ("bpred.lookup_ns", "ns", "sim_minst_per_s on paper-grid"),
    ("bpred.mispredict_frac", "frac", "explains bpred.lookup_ns"),
    ("pipeline.mcycles_per_s.starting", "Mcycle/s", "sim_minst_per_s on paper-grid"),
    ("pipeline.mcycles_per_s.ruu256", "Mcycle/s", "sim_minst_per_s on paper-grid"),
    ("core.reese_mcycles_per_s.starting", "Mcycle/s", "sim_minst_per_s on paper-grid; wall_s on campaign-long"),
    ("core.reese_mcycles_per_s.ruu256", "Mcycle/s", "sim_minst_per_s on paper-grid (large-window cells)"),
    ("pipeline.ruu_full_per_kcycle", "1/kcycle", "explains host work per cycle"),
    ("pipeline.lsq_full_per_kcycle", "1/kcycle", "explains host work per cycle"),
    ("core.r_issue_useful_frac", "frac", "explains host work per cycle"),
    ("core.duplex_mcycles_per_s", "Mcycle/s", "trials_per_s on schemes-suite"),
    ("ckpt.sweep_ms", "ms", "wall_s on campaign-long"),
    ("ckpt.capture_us", "us", "wall_s on campaign-long"),
    ("ckpt.derive_ms", "ms", "wall_s on campaign-long"),
    ("ckpt.restore_us", "us", "trials_per_s on schemes-suite"),
    ("ckpt.bytes", "bytes", "peak_rss_mib on campaign-long"),
    ("faults.reference_ms", "ms", "wall_s on both campaign workloads"),
    ("faults.anchors_ms", "ms", "wall_s on both campaign workloads"),
    ("faults.baselines_ms", "ms", "wall_s on both campaign workloads"),
    ("faults.trials_ms", "ms", "wall_s on both campaign workloads"),
    ("faults.run_window_ms.baseline.p50", "ms", "trials_per_s on schemes-suite (baselines phase)"),
    ("faults.run_window_ms.baseline.p90", "ms", "trials_per_s on schemes-suite (baselines phase)"),
    ("faults.run_window_ms.reese.p50", "ms", "trials_per_s on schemes-suite (baselines phase)"),
    ("faults.run_window_ms.reese.p90", "ms", "trials_per_s on schemes-suite (baselines phase)"),
    ("faults.run_window_ms.duplex.p50", "ms", "trials_per_s on schemes-suite (baselines phase)"),
    ("faults.run_window_ms.duplex.p90", "ms", "trials_per_s on schemes-suite (baselines phase)"),
    ("faults.run_window_ms.meek.p50", "ms", "trials_per_s on schemes-suite (baselines phase)"),
    ("faults.run_window_ms.meek.p90", "ms", "trials_per_s on schemes-suite (baselines phase)"),
    ("faults.run_window_ms.swift.p50", "ms", "trials_per_s on schemes-suite (baselines phase)"),
    ("faults.run_window_ms.swift.p90", "ms", "trials_per_s on schemes-suite (baselines phase)"),
    ("faults.run_trial_us.baseline.p50", "us", "trials_per_s on schemes-suite (trials phase)"),
    ("faults.run_trial_us.baseline.p90", "us", "trials_per_s on schemes-suite (trials phase)"),
    ("faults.run_trial_us.reese.p50", "us", "trials_per_s on schemes-suite (trials phase)"),
    ("faults.run_trial_us.reese.p90", "us", "trials_per_s on schemes-suite (trials phase)"),
    ("faults.run_trial_us.duplex.p50", "us", "trials_per_s on schemes-suite (trials phase)"),
    ("faults.run_trial_us.duplex.p90", "us", "trials_per_s on schemes-suite (trials phase)"),
    ("faults.run_trial_us.meek.p50", "us", "trials_per_s on schemes-suite (trials phase)"),
    ("faults.run_trial_us.meek.p90", "us", "trials_per_s on schemes-suite (trials phase)"),
    ("faults.run_trial_us.swift.p50", "us", "trials_per_s on schemes-suite (trials phase)"),
    ("faults.run_trial_us.swift.p90", "us", "trials_per_s on schemes-suite (trials phase)"),
    ("faults.memo_hit_frac", "frac", "none today: memoization is bypassed on both campaign workloads"),
    ("faults.masked_frac", "frac", "ceiling of any functional pre-screen"),
    ("stats.worker_busy_frac", "frac", "trials_per_s on both campaign workloads"),
    ("stats.tail_steals", "count", "trials_per_s on both campaign workloads"),
    ("trace.overhead_frac", "frac", "the cost of the traced run itself"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("`{a}` needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The recorded digest for (workload, seed), if any. `paper-grid` has
/// no randomness, so its entry applies to every seed (`*`).
fn recorded_digest(workload: &str, seed: u64) -> Result<Option<u64>, String> {
    let text = std::fs::read_to_string(EXPECTED)
        .map_err(|e| format!("{EXPECTED}: {e} (run from the repository root)"))?;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [w, s, d] = f[..] {
            if w == workload && (s == "*" || s.parse() == Ok(seed)) {
                let hex = d.trim_start_matches("0x");
                return u64::from_str_radix(hex, 16)
                    .map(Some)
                    .map_err(|e| format!("{EXPECTED}: bad digest `{d}`: {e}"));
            }
        }
    }
    Ok(None)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn run_pass(
    workload: &str,
    inputs: &Inputs,
    expected: &[workloads::Outcome],
    seed: u64,
    rec: &mut Recorder,
) -> PassOutput {
    let out_dir = Path::new(OUT_DIR);
    rec.time("pass", |rec| match workload {
        "paper-grid" => workloads::grid_pass(inputs, expected, rec),
        "campaign-long" => workloads::campaign_long_pass(inputs, seed, out_dir, rec),
        _ => workloads::schemes_pass(inputs, seed, out_dir, rec),
    })
}

/// Host times of repeated set-ups.
#[derive(Default)]
struct Setups {
    secs: Vec<f64>,
    calibrate_ms: Vec<f64>,
    assemble_ms: Vec<f64>,
}

impl Setups {
    /// Sets every input up once more and records the host times.
    fn run(&mut self, rec: &mut Recorder) -> Inputs {
        let t = Instant::now();
        let (inputs, calibrate, assemble) = rec.time("setup", workloads::setup);
        self.secs.push(t.elapsed().as_secs_f64());
        self.calibrate_ms.push(calibrate.as_secs_f64() * 1e3);
        self.assemble_ms.push(assemble.as_secs_f64() * 1e3);
        inputs
    }
}

/// Operation counts and failures across passes, checked against the
/// first pass and the recorded digest.
struct Checker {
    first: Option<PassOutput>,
    recorded: Option<u64>,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Checker {
    fn check(&mut self, pass: PassOutput, label: &str) -> PassOutput {
        let ops = pass.ops();
        self.attempted += ops;
        let mut failed = pass.errors + pass.wrong;
        if pass.wrong > 0 {
            self.notes.push(format!(
                "{label}: {} grid cells differ from the emulator's output or committed count",
                pass.wrong
            ));
        }
        if let Some(want) = self.recorded {
            if pass.digest != want {
                failed = ops;
                self.notes.push(format!(
                    "{label}: output digest {:#018x} differs from the recorded {want:#018x}",
                    pass.digest
                ));
            }
        }
        if let Some(first) = &self.first {
            let differ = (0..ops)
                .filter(|&i| pass.lines.get(i) != first.lines.get(i))
                .count();
            if differ > 0 {
                self.notes.push(format!(
                    "{label}: {differ} operations differ from the first pass"
                ));
                failed = failed.max(differ);
            }
        }
        self.failed += failed.min(ops);
        pass
    }
}

/// One workload in this process.
fn run_workload(args: &Args) -> Result<bool, String> {
    let w = args.workload.as_str();
    let recorded = recorded_digest(w, args.seed)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut rec = if args.trace {
        Recorder::on()
    } else {
        Recorder::off()
    };

    let mut setups = Setups::default();
    for _ in 1..SETUP_FIRST {
        setups.run(&mut rec);
    }
    let inputs = setups.run(&mut rec);
    let expected = if w == "paper-grid" {
        inputs
            .grid
            .iter()
            .chain(&inputs.rv32)
            .map(|(_, p)| workloads::expected_output(p))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };

    let mut checker = Checker {
        first: None,
        recorded,
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    // Warm-up: untimed, untraced, and the reference later passes must
    // reproduce byte for byte.
    let mut off = Recorder::off();
    let warm = run_pass(w, &inputs, &expected, args.seed, &mut off);
    let warm = checker.check(warm, "warm-up pass");
    let accuracy = warm.accuracy.clone();
    checker.first = Some(warm);

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut layers: Vec<PassLayers> = Vec::new();
    let (mut committed, mut trials) = (0u64, 0u64);
    let start = Instant::now();
    let mut pass_id = 0u32;
    while start.elapsed().as_secs_f64() < args.seconds
        || untraced.is_empty()
        || (args.trace && traced.is_empty())
    {
        pass_id += 1;
        let tracing = args.trace && untraced.len() > traced.len();
        let t = Instant::now();
        let out = if tracing {
            rec.set_pass(pass_id);
            run_pass(w, &inputs, &expected, args.seed, &mut rec)
        } else {
            run_pass(w, &inputs, &expected, args.seed, &mut off)
        };
        let wall = t.elapsed().as_secs_f64();
        let label = format!("pass {pass_id}{}", if tracing { " (traced)" } else { "" });
        let out = checker.check(out, &label);
        committed = out.committed;
        trials = out.trials;
        if tracing {
            traced.push(wall);
            layers.push(out.layers);
        } else {
            untraced.push(wall);
        }
        if setups.secs.len() < SETUP_MAX {
            setups.run(&mut rec);
        }
    }
    let (setup_s, calibrate_ms, assemble_ms) =
        (setups.secs, setups.calibrate_ms, setups.assemble_ms);
    let rss = peak_rss_mib()?;

    let correct = checker.failed == 0;
    println!("workload {w}, seed {}", args.seed);
    println!(
        "  inputs: {}",
        match w {
            "paper-grid" => format!(
                "{} committed instructions per cell; 6 native kernels x 5 variants x 5 machines, plus 3 rv32i ports x 5 variants on the starting machine; serial. No randomness: the seed is unused.",
                workloads::GRID_INSNS
            ),
            "campaign-long" => format!(
                "REESE campaign on lisp x{}, {} trials, broad mix, replay engine, {} workers, seed {}",
                workloads::LONG_SCALE,
                workloads::LONG_TRIALS,
                workloads::JOBS,
                args.seed
            ),
            _ => format!(
                "5 schemes x 6 default-size kernels, {} result-mix trials per cell, replay engine, {} workers, seed {}",
                workloads::SUITE_TRIALS,
                workloads::JOBS,
                args.seed
            ),
        }
    );
    println!("  modelled caches: cold at the start of every simulation (no warm-up statistics are discarded)");
    println!(
        "  host: {} available threads",
        reese_stats::available_jobs()
    );
    let s = summarize(&setup_s);
    println!(
        "  setup_s          {:>12.6} s        {}",
        s.median,
        s.render(1.0, 6)
    );
    let s = summarize(&untraced);
    println!(
        "  wall_s           {:>12.6} s        {}",
        s.median,
        s.render(1.0, 6)
    );
    let passes: Vec<String> = untraced.iter().map(|t| format!("{t:.3}")).collect();
    println!("    passes, in order: {}", passes.join(" "));
    if w == "paper-grid" {
        let rates: Vec<f64> = untraced
            .iter()
            .map(|t| committed as f64 / t / 1e6)
            .collect();
        let s = summarize(&rates);
        println!(
            "  sim_minst_per_s  {:>12.6} Minst/s  {}",
            s.median,
            s.render(1.0, 6)
        );
    } else {
        let rates: Vec<f64> = untraced.iter().map(|t| trials as f64 / t).collect();
        let s = summarize(&rates);
        println!(
            "  trials_per_s     {:>12.3} 1/s      {}",
            s.median,
            s.render(1.0, 3)
        );
    }
    println!("  peak_rss_mib     {rss:>12.3} MiB");
    println!(
        "  ops_failed_frac  {:>12.6}          ({} of {} operations failed)",
        checker.failed as f64 / checker.attempted.max(1) as f64,
        checker.failed,
        checker.attempted
    );
    if let Some(a) = &accuracy {
        println!("  model accuracy: {a}");
    }
    let digest = checker.first.as_ref().map_or(0, |f| f.digest);
    match recorded {
        Some(d) => println!("  output check: digest {digest:#018x}, recorded {d:#018x}"),
        None => println!(
            "  output check: digest {digest:#018x}; no recorded digest for this seed, so every pass must reproduce the first byte for byte"
        ),
    }
    for n in &checker.notes {
        println!("  FAILED: {n}");
    }

    let metrics: Vec<(String, f64, String)> = if args.trace {
        let probe = rec.time("probes", |rec| probes::run_all(&inputs, args.seed, rec))?;
        let mut values: Vec<(String, f64)> = vec![
            ("workloads.calibrate_ms".into(), median(&calibrate_ms)),
            ("isa.rv32i_assemble_ms".into(), median(&assemble_ms)),
        ];
        values.extend(probe);
        values.extend(workload_layers(&layers));
        let overhead = median(&traced) / median(&untraced) - 1.0;
        values.push(("trace.overhead_frac".into(), overhead));
        print_trace(&rec, &values, &untraced, &traced);
        let spans = Path::new(OUT_DIR).join(format!("{w}.spans.jsonl"));
        std::fs::write(&spans, rec.to_jsonl()).map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("  spans written to {}", spans.display());
        LAYERS
            .iter()
            .map(|&(name, unit, _)| {
                let v = values
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, v)| v)
                    .ok_or(format!("per-layer metric {name} was not measured"))?;
                Ok((name.to_string(), v, unit.to_string()))
            })
            .collect::<Result<_, String>>()?
    } else {
        vec![
            ("setup_s".into(), median(&setup_s), "s".into()),
            ("wall_s".into(), median(&untraced), "s".into()),
            ("peak_rss_mib".into(), rss, "MiB".into()),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted,
        checker.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// The per-layer metrics read from the traced campaign passes. They are
/// 0 on `paper-grid`, which runs no campaign.
fn workload_layers(passes: &[PassLayers]) -> Vec<(String, f64)> {
    let per_pass = |f: fn(&PassLayers) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&PassLayers) -> u64| passes.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let todo = sum(|l| l.todo);
    let mut out: Vec<(String, f64)> = workloads::PHASES
        .iter()
        .enumerate()
        .map(|(i, (_, name, _))| {
            let ms: Vec<f64> = passes.iter().map(|l| l.phase_ms[i]).collect();
            (format!("{name}_ms"), median(&ms))
        })
        .collect();
    out.extend([
        (
            "faults.memo_hit_frac".into(),
            ratio(todo - sum(|l| l.distinct_keys), todo),
        ),
        (
            "faults.masked_frac".into(),
            ratio(sum(|l| l.masked), sum(|l| l.trials)),
        ),
        (
            "stats.worker_busy_frac".into(),
            ratio(
                passes.iter().map(|l| l.busy_s).sum(),
                passes.iter().map(|l| l.worker_s).sum(),
            ),
        ),
        ("stats.tail_steals".into(), per_pass(|l| l.steals as f64)),
    ]);
    out
}

fn print_trace(rec: &Recorder, values: &[(String, f64)], untraced: &[f64], traced: &[f64]) {
    println!(
        "  traced run: {} untraced passes (median {:.6} s), {} traced passes (median {:.6} s)",
        untraced.len(),
        median(untraced),
        traced.len(),
        median(traced)
    );
    println!("  span self time, grouped by root span (pass = the traced passes):");
    println!(
        "    {:<8} {:<40} {:>7} {:>12} {:>12}",
        "root", "span", "calls", "total ms", "self ms"
    );
    for ((root, name), (calls, total, own)) in rec.self_times() {
        println!(
            "    {root:<8} {name:<40} {calls:>7} {:>12.3} {:>12.3}",
            total.as_secs_f64() * 1e3,
            own.as_secs_f64() * 1e3
        );
    }
    println!("  per-layer metrics:");
    for &(name, unit, moves) in LAYERS {
        if let Some((_, v)) = values.iter().find(|(n, _)| n == name) {
            println!("    {name:<38} {v:>14.6} {unit:<9} moves: {moves}");
        }
    }
}

/// `--workload all`: each workload in a child process of its own, so
/// each peak RSS is that workload's alone.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut results = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        let num = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|r| r.split([',', '}']).next())
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        correct &= out.status.success() && last.contains("\"correct\": true");
        attempted += num("attempted");
        failed += num("failed");
        results.push(format!("\"{w}\": {last}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {{{}}}}}",
        results.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.workload == "all" {
            run_all(&args)
        } else {
            run_workload(&args)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
