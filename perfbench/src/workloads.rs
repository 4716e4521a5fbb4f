//! The three benchmark workloads: their inputs (the set-up), one pass
//! of each, and the checks on each pass's simulated output.

use crate::spans::Recorder;
use crate::stats::fnv1a64;
use reese_bench::{paper_machines, Variant};
use reese_ckpt::Scheme;
use reese_core::{ReeseConfig, ReeseSim};
use reese_cpu::Emulator;
use reese_faults::schemes::{self, EvalOptions, SchemeRow, SchemesReport};
use reese_faults::telemetry::Telemetry;
use reese_faults::{Campaign, CoverageReport, FaultMix, TrialEngine};
use reese_isa::Program;
use reese_pipeline::{PipelineConfig, PipelineSim};
use reese_stats::{mean, percent_delta};
use reese_workloads::rv32::Rv32Kernel;
use reese_workloads::Kernel;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fixed dynamic length of every grid cell: each kernel is
/// calibrated to at least this many instructions and every cell commits
/// exactly this many (the paper's fixed instruction count per
/// benchmark, scaled down).
pub const GRID_INSNS: u64 = 20_000;
/// Outer-pass scales that take each rv32i port past [`GRID_INSNS`]
/// dynamic instructions, in [`Rv32Kernel::ALL`] order.
pub const RV32_SCALES: [u32; 3] = [1_400, 900, 70];
/// `campaign-long`: lisp at this scale runs 1.47M dynamic instructions.
pub const LONG_SCALE: u32 = 40;
/// `campaign-long` trials.
pub const LONG_TRIALS: usize = 200;
/// `schemes-suite` trials per (scheme, kernel) cell.
pub const SUITE_TRIALS: usize = 100;
/// Worker threads of both campaign workloads.
pub const JOBS: usize = 2;

/// Every input the workloads run, built once per set-up.
pub struct Inputs {
    /// The six native kernels calibrated to [`GRID_INSNS`].
    pub grid: Vec<(String, Program)>,
    /// The three rv32i ports, assembled at [`RV32_SCALES`].
    pub rv32: Vec<(String, Program)>,
    /// lisp at [`LONG_SCALE`].
    pub long: Program,
    /// The six native kernels at their default size (scale 1).
    pub suite: Vec<(String, Program)>,
}

/// Builds and calibrates every kernel and assembles the rv32i ports,
/// under the spans `workloads.calibrate` and `isa.rv32i_assemble`.
/// Returns the inputs and the two parts' host times.
pub fn setup(rec: &mut Recorder) -> (Inputs, Duration, Duration) {
    let t = Instant::now();
    let (grid, long, suite) = rec.time("workloads.calibrate", |_| {
        let grid = Kernel::ALL
            .iter()
            .map(|k| (k.name().to_string(), k.build_for(GRID_INSNS)))
            .collect();
        let long = Kernel::Lisp.build(LONG_SCALE);
        let suite = Kernel::ALL
            .iter()
            .map(|k| (k.name().to_string(), k.build(1)))
            .collect();
        (grid, long, suite)
    });
    let calibrate = t.elapsed();
    let t = Instant::now();
    let rv32 = rec.time("isa.rv32i_assemble", |_| {
        Rv32Kernel::ALL
            .iter()
            .zip(RV32_SCALES)
            .map(|(k, s)| (format!("rv32i-{}", k.name()), k.build(s)))
            .collect()
    });
    let assemble = t.elapsed();
    let inputs = Inputs {
        grid,
        rv32,
        long,
        suite,
    };
    (inputs, calibrate, assemble)
}

/// What one operation of a pass produced, compared across passes.
pub struct PassOutput {
    /// One line per operation (grid cell or campaign); two passes agree
    /// only if every line is byte-identical.
    pub lines: Vec<String>,
    /// Operations that returned an error.
    pub errors: usize,
    /// Digest of the pass's simulated output, checked against the
    /// recorded value for the recorded seed.
    pub digest: u64,
    /// Committed instructions simulated by grid cells (0 for campaigns).
    pub committed: u64,
    /// Injection trials reported (0 for the grid).
    pub trials: u64,
    /// Extra checks that failed (the grid's per-cell program output).
    pub wrong: usize,
    /// Human-readable model accuracy, for the grid.
    pub accuracy: Option<String>,
    /// Per-pass layer counters, filled on traced passes only.
    pub layers: PassLayers,
}

/// The campaign phases in its telemetry journal: the event that closes
/// each, the span recorded for it, and the field holding its duration.
pub const PHASES: [(&str, &str, &str); 4] = [
    ("reference_done", "faults.reference", "phase_ms"),
    ("anchors_derived", "faults.anchors", "phase_ms"),
    ("baselines_cached", "faults.baselines", "phase_ms"),
    ("trials_done", "faults.trials", "wall_ms"),
];

/// Counters read from a traced campaign pass.
#[derive(Debug, Default, Clone)]
pub struct PassLayers {
    /// Milliseconds in each of [`PHASES`], summed over the campaigns.
    pub phase_ms: [f64; 4],
    pub todo: u64,
    pub distinct_keys: u64,
    pub masked: u64,
    pub trials: u64,
    pub busy_s: f64,
    pub worker_s: f64,
    pub steals: u64,
}

// ---------------------------------------------------------------- grid

/// The five grid machines: Fig. 6's four plus Fig. 7's RUU=256/LSQ=128.
pub fn grid_machines() -> Vec<(&'static str, PipelineConfig)> {
    let mut m = paper_machines();
    m.push((
        "RUU=256/LSQ=128 (Fig. 7)",
        PipelineConfig::starting().with_ruu(256).with_lsq(128),
    ));
    m
}

/// What a cell's program printed and its exit code. The timing
/// machines' register digest is not compared: their fetch runs ahead of
/// commit, so at an instruction limit it reflects uncommitted work.
pub type Outcome = (Vec<i64>, Option<u64>);

/// The functional emulator's outcome after [`GRID_INSNS`] instructions
/// of a program: what every timing machine must reproduce, together
/// with committing exactly that many instructions.
pub fn expected_output(p: &Program) -> Result<Outcome, String> {
    let mut emu = Emulator::new(p);
    let r = emu.run(GRID_INSNS).map_err(|e| e.to_string())?;
    Ok((r.output, emu.exit_code()))
}

struct CellRun {
    cycles: u64,
    committed: u64,
    outcome: Outcome,
}

fn run_cell(
    rec: &mut Recorder,
    cfg: &PipelineConfig,
    v: Variant,
    p: &Program,
) -> Result<CellRun, String> {
    match v {
        Variant::Baseline => rec.time("pipeline.PipelineSim::run_limit", |_| {
            let r = PipelineSim::new(cfg.clone())
                .run_limit(p, GRID_INSNS)
                .map_err(|e| e.to_string())?;
            Ok(CellRun {
                cycles: r.stats.cycles,
                committed: r.stats.committed,
                outcome: (r.output, r.exit_code),
            })
        }),
        Variant::Reese {
            spare_alus,
            spare_muls,
        } => rec.time("core.ReeseSim::run_limit", |_| {
            let c = ReeseConfig::over(cfg.clone())
                .with_spare_int_alus(spare_alus)
                .with_spare_int_muldivs(spare_muls);
            let r = ReeseSim::new(c)
                .run_limit(p, GRID_INSNS)
                .map_err(|e| e.to_string())?;
            Ok(CellRun {
                cycles: r.stats.pipeline.cycles,
                committed: r.stats.pipeline.committed,
                outcome: (r.output, r.exit_code),
            })
        }),
    }
}

/// One `paper-grid` pass: every native kernel under every paper variant
/// on every grid machine, then the rv32i ports under every variant on
/// the starting machine, serially. `expected[i]` is the functional
/// output of program `i` of `inputs.grid` followed by `inputs.rv32`.
pub fn grid_pass(inputs: &Inputs, expected: &[Outcome], rec: &mut Recorder) -> PassOutput {
    let mut out = PassOutput::empty();
    let programs: Vec<&(String, Program)> = inputs.grid.iter().chain(&inputs.rv32).collect();
    let machines = grid_machines();
    // ipc[machine][variant] over the native kernels, for the accuracy line.
    let mut ipc = vec![vec![Vec::new(); Variant::PAPER.len()]; machines.len()];
    for (mi, (mname, cfg)) in machines.iter().enumerate() {
        for (pi, (kname, p)) in programs.iter().enumerate() {
            let native = pi < inputs.grid.len();
            if !native && mi > 0 {
                continue; // the rv32i ports run on the starting machine only
            }
            for (vi, &v) in Variant::PAPER.iter().enumerate() {
                match run_cell(rec, cfg, v, p) {
                    Ok(c) => {
                        if c.outcome != expected[pi] || c.committed != GRID_INSNS {
                            out.wrong += 1;
                        }
                        out.committed += c.committed;
                        if native {
                            ipc[mi][vi].push(c.committed as f64 / c.cycles.max(1) as f64);
                        }
                        out.lines.push(format!(
                            "{mname}|{}|{kname}|{}|{}",
                            v.label(),
                            c.cycles,
                            c.committed
                        ));
                    }
                    Err(e) => {
                        out.errors += 1;
                        out.lines
                            .push(format!("{mname}|{}|{kname}|error: {e}", v.label()));
                    }
                }
            }
        }
    }
    out.digest = fnv1a64(out.lines.join("\n").as_bytes());
    // Fig. 6's summary: the average-IPC gap of REESE (column 1) and
    // REESE+2 ALU (column 3) against the baseline, averaged over the
    // four paper machines.
    let gap = |col: usize| {
        mean(
            &ipc[..4]
                .iter()
                .map(|m| percent_delta(mean(&m[0]), mean(&m[col])))
                .collect::<Vec<_>>(),
        )
    };
    out.accuracy = Some(format!(
        "REESE vs baseline average IPC gap over the Fig. 6 machines: {:+.1}% (paper: -14.0%), with +2 ALU: {:+.1}% (paper: -8.0%)",
        gap(1),
        gap(3)
    ));
    out
}

// ----------------------------------------------------------- campaigns

/// Where traced passes write the campaign telemetry journal, inside the
/// benchmark's own (git-ignored) output directory.
fn journal_path(out_dir: &Path, workload: &str) -> std::path::PathBuf {
    out_dir.join(format!("{workload}.telemetry.jsonl"))
}

/// Reads one numeric field from a journal line.
fn field(line: &str, key: &str) -> Option<f64> {
    let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Runs one campaign. On a traced pass a telemetry journal is attached;
/// its phase timings become child spans of the `faults.Campaign::run`
/// span and its plan counts, with the report's own counters, are added
/// to `layers`.
fn run_campaign(
    rec: &mut Recorder,
    campaign: Campaign,
    program: &Program,
    journal: &Path,
    layers: &mut PassLayers,
) -> Result<CoverageReport, String> {
    if !rec.enabled() {
        return campaign.run(program).map_err(|e| e.to_string());
    }
    let span = rec.enter("faults.Campaign::run");
    let epoch = rec.offset(Instant::now());
    let tele = Arc::new(Telemetry::create(journal)?);
    let result = campaign.telemetry(Arc::clone(&tele)).run(program);
    rec.exit(span);
    drop(tele);
    let report = result.map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(journal).map_err(|e| e.to_string())?;
    for line in text.lines() {
        let Some(at) = field(line, "elapsed_ms") else {
            continue;
        };
        for (i, (event, name, key)) in PHASES.iter().enumerate() {
            if line.contains(&format!("\"event\": \"{event}\"")) {
                let ms = field(line, key).unwrap_or(0.0);
                layers.phase_ms[i] += ms;
                let end = epoch + Duration::from_millis(at as u64);
                let start = end.saturating_sub(Duration::from_millis(ms as u64));
                rec.record(name, span, start, end);
            }
        }
        if line.contains("\"event\": \"plan\"") {
            layers.todo += field(line, "todo").unwrap_or(0.0) as u64;
            layers.distinct_keys += field(line, "distinct_keys").unwrap_or(0.0) as u64;
        }
    }
    layers.trials += report.trials() as u64;
    layers.masked += report
        .outcomes
        .iter()
        .filter(|o| !o.detected && o.state_clean)
        .count() as u64;
    if let Some(t) = &report.throughput {
        layers.busy_s += t.workers.iter().map(|w| w.busy.as_secs_f64()).sum::<f64>();
        layers.worker_s += t.wall.as_secs_f64() * t.workers.len() as f64;
        layers.steals += t.steals();
    }
    Ok(report)
}

/// One `campaign-long` pass: a REESE campaign on lisp×40 with the broad
/// mix, the replay engine and [`JOBS`] workers.
pub fn campaign_long_pass(
    inputs: &Inputs,
    seed: u64,
    out_dir: &Path,
    rec: &mut Recorder,
) -> PassOutput {
    let mut out = PassOutput::empty();
    let campaign = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
        .scheme(Scheme::Reese)
        .trials(LONG_TRIALS)
        .seed(seed)
        .jobs(JOBS)
        .engine(TrialEngine::Replay);
    let journal = journal_path(out_dir, "campaign-long");
    match run_campaign(rec, campaign, &inputs.long, &journal, &mut out.layers) {
        Ok(report) => {
            let csv = report.to_csv();
            out.digest = fnv1a64(csv.as_bytes());
            out.trials = report.trials() as u64;
            out.lines.push(csv);
        }
        Err(e) => {
            out.errors += 1;
            out.lines.push(format!("error: {e}"));
        }
    }
    out
}

/// One `schemes-suite` pass: every registered scheme on the six default
/// kernels, [`SUITE_TRIALS`] result-mix trials per cell.
///
/// An untraced pass is one call to [`SchemesReport::evaluate`], the
/// path `reese schemes` takes. A traced pass makes the same calls that
/// function makes, one by one, so each gets a span; both must render a
/// byte-identical CSV.
pub fn schemes_pass(inputs: &Inputs, seed: u64, out_dir: &Path, rec: &mut Recorder) -> PassOutput {
    let mut out = PassOutput::empty();
    let config = ReeseConfig::starting();
    let mix = FaultMix::result_errors_only();
    let opts = EvalOptions {
        trials: SUITE_TRIALS,
        seed,
        jobs: JOBS,
        engine: TrialEngine::Replay,
        ..EvalOptions::default()
    };
    let report = if rec.enabled() {
        schemes_traced(
            &config,
            &mix,
            &inputs.suite,
            &opts,
            out_dir,
            rec,
            &mut out.layers,
        )
    } else {
        SchemesReport::evaluate(&config, &mix, &inputs.suite, &opts).map_err(|e| e.to_string())
    };
    match report {
        Ok(r) => {
            let csv = r.to_csv();
            out.digest = fnv1a64(csv.as_bytes());
            out.trials = r.rows.iter().map(|row| row.trials as u64).sum();
            // One operation per (scheme, kernel) campaign: the header
            // line plus one CSV row each.
            out.lines = csv.lines().skip(1).map(str::to_string).collect();
        }
        Err(e) => {
            out.errors += inputs.suite.len() * Scheme::ALL.len();
            out.lines.push(format!("error: {e}"));
        }
    }
    out
}

/// One (scheme, kernel) row of [`SchemesReport::evaluate`].
#[allow(clippy::too_many_arguments)]
fn scheme_cell(
    config: &ReeseConfig,
    mix: &FaultMix,
    opts: &EvalOptions,
    kernel: &str,
    program: &Program,
    scheme: Scheme,
    baseline_cycles: u64,
    journal: &Path,
    rec: &mut Recorder,
    layers: &mut PassLayers,
) -> Result<SchemeRow, String> {
    let backend = schemes::build(scheme, config);
    let prepared = rec.time("faults.DetectionScheme::prepare", |_| {
        backend.prepare(program)
    })?;
    let clean = rec.time(&format!("faults.run_limit.{}", scheme.name()), |_| {
        backend.run_limit(&prepared, opts.max_instructions)
    })?;
    let campaign = Campaign::new(config.clone(), *mix)
        .scheme(scheme)
        .trials(opts.trials)
        .seed(opts.seed)
        .jobs(opts.jobs)
        .engine(opts.engine)
        .max_instructions(opts.max_instructions);
    let report = run_campaign(rec, campaign, program, journal, layers)?;
    Ok(SchemeRow {
        scheme,
        kernel: kernel.to_string(),
        trials: report.trials(),
        detected: report.detected,
        coverage: report.coverage(),
        mean_latency: report.mean_detection_latency(),
        p50_latency: report.latency_percentile(1, 2).unwrap_or(0),
        p90_latency: report.latency_percentile(9, 10).unwrap_or(0),
        p99_latency: report.latency_percentile(99, 100).unwrap_or(0),
        latency_histogram: report.latency_histogram(),
        time_overhead: clean.cycles as f64 / baseline_cycles.max(1) as f64,
        code_overhead: prepared.len() as f64 / program.len().max(1) as f64,
    })
}

/// [`SchemesReport::evaluate`], call by call, under spans.
fn schemes_traced(
    config: &ReeseConfig,
    mix: &FaultMix,
    programs: &[(String, Program)],
    opts: &EvalOptions,
    out_dir: &Path,
    rec: &mut Recorder,
    layers: &mut PassLayers,
) -> Result<SchemesReport, String> {
    let journal = journal_path(out_dir, "schemes-suite");
    let mut rows = Vec::new();
    for (kernel, program) in programs {
        let baseline_cycles = rec.time("pipeline.PipelineSim::run_limit", |_| {
            PipelineSim::new(config.pipeline.clone())
                .run_limit(program, opts.max_instructions)
                .map(|r| r.stats.cycles)
                .map_err(|e| e.to_string())
        })?;
        for scheme in Scheme::ALL {
            let cell = rec.enter(format!("schemes.cell.{}", scheme.name()));
            let row = scheme_cell(
                config,
                mix,
                opts,
                kernel,
                program,
                scheme,
                baseline_cycles,
                &journal,
                rec,
                layers,
            );
            rec.exit(cell);
            rows.push(row?);
        }
    }
    Ok(SchemesReport { rows })
}

impl PassOutput {
    fn empty() -> PassOutput {
        PassOutput {
            lines: Vec::new(),
            errors: 0,
            digest: 0,
            committed: 0,
            trials: 0,
            wrong: 0,
            accuracy: None,
            layers: PassLayers::default(),
        }
    }

    /// Operations in the pass.
    pub fn ops(&self) -> usize {
        self.lines.len().max(self.errors)
    }
}
