//! Monte-Carlo fault-injection campaigns.

use crate::engine::{
    boundary_count, clean_window, plan_window, TrialWindow, WindowBaseline,
    MAX_RESIDENT_CHECKPOINTS,
};
use crate::schemes::{
    self, DetectionScheme, FaultKey, ForkCycles, PendingOutcome, SchemeRun, WindowBatch,
    WindowReplay,
};
use crate::stream::{fnv1a64, outcome_line, LogFile, LogHeader, LogWriter};
use crate::telemetry::{json_str, Telemetry};
use crate::{CoverageReport, FaultClass, FaultMix, TrialEngine, TrialOutcome};
use reese_ckpt::{
    checkpoint_stream_thinned, derive_checkpoint, warm_checkpoint_at, Checkpoint, Scheme,
};
use reese_core::ReeseConfig;
use reese_cpu::Emulator;
use reese_isa::Program;
use reese_stats::{par_map_indexed, par_map_joined, Gate, ParallelStats, SplitMix64};
use reese_trace::{MetricsSeries, Tracer};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Error raised by a campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The workload itself failed to run cleanly (before any injection).
    Workload(String),
    /// A trial produced an unexpected simulator failure.
    Trial {
        /// Index of the failing trial.
        trial: usize,
        /// Description of the failure.
        message: String,
    },
    /// A `--resume` log exists but records a different campaign (or is
    /// corrupt), so its outcomes cannot be reused.
    Resume(String),
    /// Reading or writing a campaign log failed.
    Io(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Workload(m) => write!(f, "workload failed: {m}"),
            CampaignError::Trial { trial, message } => write!(f, "trial {trial} failed: {message}"),
            CampaignError::Resume(m) => write!(f, "resume log mismatch: {m}"),
            CampaignError::Io(m) => write!(f, "campaign log I/O failed: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// A Monte-Carlo soft-error injection campaign.
///
/// Each trial picks a random dynamic instruction, bit position, and
/// fault class from the configured [`FaultMix`], runs the REESE machine
/// with that single fault, and records whether the P/R comparison caught
/// it, the detection latency, and the recovery cost in cycles.
///
/// Classes REESE cannot observe by design ([`FaultClass::PostCompare`],
/// [`FaultClass::CacheCell`], [`FaultClass::PipelineControl`]) are
/// scored as undetected without corrupting anything — they model the
/// coverage boundary the paper states in §4.2.
///
/// Simulated trials are scored over a **checkpoint-anchored window**
/// around the fault (see [`crate::engine`]): under the default
/// [`TrialEngine::Replay`] a fault deep in a long workload costs a
/// restore plus a short suffix run instead of a whole-program
/// re-simulation, and identical fault keys are memoized, so campaigns
/// with millions of injections stay tractable. [`TrialEngine::Full`]
/// recomputes every trial from instruction 0 with no shared state and
/// is kept as the oracle arm: both engines must produce byte-identical
/// reports.
///
/// All per-trial parameters are drawn **serially** from the single
/// SplitMix64 stream before any trial runs, so the resulting
/// [`CoverageReport`] compares equal for any worker count —
/// parallelism buys wall-clock time only — and a campaign interrupted
/// and resumed from its [`Campaign::outcomes_jsonl`] log recomputes
/// exactly the missing trials.
///
/// # Example
///
/// ```
/// use reese_core::ReeseConfig;
/// use reese_faults::{Campaign, FaultMix};
///
/// let prog = reese_isa::assemble(
///     "  li t0, 40\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
/// )?;
/// let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
///     .trials(10)
///     .seed(7)
///     .jobs(2)
///     .run(&prog)?;
/// assert_eq!(report.detected, 10); // result errors are always caught
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    config: ReeseConfig,
    mix: FaultMix,
    scheme: Scheme,
    trials: usize,
    seed: u64,
    max_instructions: u64,
    jobs: usize,
    metrics_interval: u64,
    engine: TrialEngine,
    ckpt_every: u64,
    outcomes_jsonl: Option<PathBuf>,
    resume: Option<PathBuf>,
    trial_limit: Option<usize>,
    telemetry_out: Option<PathBuf>,
    telemetry: Option<std::sync::Arc<Telemetry>>,
}

impl Campaign {
    /// Creates a campaign over a REESE configuration and fault mix.
    pub fn new(config: ReeseConfig, mix: FaultMix) -> Campaign {
        Campaign {
            config,
            mix,
            scheme: Scheme::Reese,
            trials: 100,
            seed: 0xFA017,
            max_instructions: u64::MAX,
            jobs: 1,
            metrics_interval: 0,
            engine: TrialEngine::Replay,
            ckpt_every: crate::DEFAULT_CKPT_EVERY,
            outcomes_jsonl: None,
            resume: None,
            trial_limit: None,
            telemetry_out: None,
            telemetry: None,
        }
    }

    /// Selects the detection backend under test (default
    /// [`Scheme::Reese`]). The campaign machinery — parameter
    /// pre-draw, anchored windows, memoization, resume — is shared;
    /// only program preparation and trial scoring go through the
    /// scheme (see [`crate::schemes`]).
    pub fn scheme(mut self, scheme: Scheme) -> Campaign {
        self.scheme = scheme;
        self
    }

    /// Sets the number of trials (default 100).
    pub fn trials(mut self, n: usize) -> Campaign {
        self.trials = n;
        self
    }

    /// Sets the PRNG seed (default fixed, campaigns are reproducible).
    pub fn seed(mut self, seed: u64) -> Campaign {
        self.seed = seed;
        self
    }

    /// Caps the per-trial committed-instruction budget.
    pub fn max_instructions(mut self, n: u64) -> Campaign {
        self.max_instructions = n;
        self
    }

    /// Sets the thread budget (default 1 = serial). The clean reference
    /// run takes one thread while it lasts and the pool phases share the
    /// rest, each taking that thread back once the run is done; at 1
    /// everything runs in turn on the calling thread. The report is
    /// bit-identical for every value; 0 is treated as 1.
    pub fn jobs(mut self, n: usize) -> Campaign {
        self.jobs = n.max(1);
        self
    }

    /// Samples per-interval metrics every `n` cycles during each
    /// simulated trial and pools them row-by-row into
    /// [`CoverageReport::metrics`]. 0 (the default) disables sampling —
    /// trials run on the zero-cost unobserved path, and identical fault
    /// keys are memoized. Trial outcomes are bit-identical either way.
    pub fn metrics_interval(mut self, n: u64) -> Campaign {
        self.metrics_interval = n;
        self
    }

    /// Selects the trial engine (default [`TrialEngine::Replay`]). Both
    /// engines produce byte-identical reports; `Full` pays the
    /// from-scratch cost per trial and exists as the oracle arm.
    pub fn engine(mut self, engine: TrialEngine) -> Campaign {
        self.engine = engine;
        self
    }

    /// Sets the checkpoint interval K in instructions (default
    /// [`crate::DEFAULT_CKPT_EVERY`]). Smaller K means shorter replay
    /// windows but more checkpoints; the interval shapes the anchored
    /// windows, so it participates in the campaign-log header.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn ckpt_every(mut self, n: u64) -> Campaign {
        assert!(n >= 1, "checkpoint interval must be at least 1");
        self.ckpt_every = n;
        self
    }

    /// Streams every computed outcome to a JSONL campaign log (header
    /// line plus one line per trial, appended and flushed as trials
    /// complete), creating/truncating the file.
    pub fn outcomes_jsonl(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.outcomes_jsonl = Some(path.into());
        self
    }

    /// Resumes from an existing campaign log: recorded trials are
    /// reused verbatim, only missing ones are computed, and the new
    /// outcomes append to the same file. The final report is
    /// byte-identical to an uninterrupted run. Takes precedence over
    /// [`Campaign::outcomes_jsonl`].
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.resume = Some(path.into());
        self
    }

    /// Caps how many *new* trials this invocation computes (in trial
    /// order), leaving the rest for a later [`Campaign::resume`]. The
    /// returned report is partial; `None` (the default) computes all.
    pub fn trial_limit(mut self, n: usize) -> Campaign {
        self.trial_limit = Some(n);
        self
    }

    /// Streams a telemetry journal (phase timings, worker throughput,
    /// memoization hit rate, progress/ETA) to a JSONL file as the
    /// campaign runs (see [`crate::telemetry`]). The journal records
    /// wall-clock observations only — trial outcomes are bit-identical
    /// with or without it.
    pub fn telemetry_out(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.telemetry_out = Some(path.into());
        self
    }

    /// Attaches an already-open shared [`Telemetry`] journal instead of
    /// creating one: several sequential campaigns (the `schemes`
    /// ranking's cells) then interleave their events into one file.
    /// Takes precedence over [`Campaign::telemetry_out`].
    pub fn telemetry(mut self, journal: std::sync::Arc<Telemetry>) -> Campaign {
        self.telemetry = Some(journal);
        self
    }

    /// Runs the campaign.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Workload`] if the program cannot run
    /// cleanly, [`CampaignError::Trial`] if a trial fails in an
    /// unexpected way (permanent faults are *expected* only for sticky
    /// injections, which this campaign does not produce),
    /// [`CampaignError::Resume`] if a resume log records a different
    /// campaign, or [`CampaignError::Io`] on log file failures.
    pub fn run(&self, program: &Program) -> Result<CoverageReport, CampaignError> {
        let tele = match (&self.telemetry, &self.telemetry_out) {
            (Some(shared), _) => Some(std::sync::Arc::clone(shared)),
            (None, Some(path)) => Some(std::sync::Arc::new(
                Telemetry::create(path).map_err(CampaignError::Io)?,
            )),
            (None, None) => None,
        };
        let tele = tele.as_deref();
        if let Some(t) = tele {
            t.reset_progress();
            t.emit(
                "campaign_start",
                &[
                    ("scheme", json_str(self.scheme.name())),
                    ("engine", json_str(&format!("{:?}", self.engine))),
                    ("jobs", self.jobs.to_string()),
                    ("trials", self.trials.to_string()),
                    ("seed", self.seed.to_string()),
                ],
            );
        }
        let scheme = schemes::build(self.scheme, &self.config);
        // Everything downstream — checkpoints, dynamic length, fault
        // sequence numbers — is in terms of the *prepared* program
        // (the identity for every hardware scheme).
        let prepared = scheme.prepare(program).map_err(CampaignError::Workload)?;
        let (scheme, program) = (scheme.as_ref(), &prepared);

        // Opened once the clean run no longer holds a thread.
        let clean_done = Gate::new();
        std::thread::scope(|scope| {
            let clean = CleanRun::start(scope, self.jobs, &clean_done, || {
                scheme.run_limit(program, self.max_instructions)
            });
            let sweep_start = Instant::now();
            let (coarse, stride, dynamic_len) = self.reference_sweep(program)?;
            if let Some(t) = tele {
                t.emit(
                    "reference_done",
                    &[
                        ("checkpoints", coarse.len().to_string()),
                        ("stride", stride.to_string()),
                        ("dynamic_len", dynamic_len.to_string()),
                        (
                            "phase_ms",
                            (sweep_start.elapsed().as_millis() as u64).to_string(),
                        ),
                    ],
                );
            }
            let mut log = PendingLog::default();
            let trials = self.trial_phases(
                scheme,
                program,
                tele,
                &clean_done,
                &mut log,
                coarse,
                stride,
                dynamic_len,
            );

            // The clean run's numbers are first needed here, by the log
            // header and the report. A failed clean run wins over every
            // error after the sweep, and a resume log's header is
            // checked in full before any trial error or log append.
            let (clean, clean_time) = clean.join();
            let clean = clean.map_err(CampaignError::Workload)?;
            if let Some(t) = tele {
                t.emit(
                    "clean_done",
                    &[
                        ("clean_cycles", clean.cycles.to_string()),
                        ("phase_ms", (clean_time.as_millis() as u64).to_string()),
                    ],
                );
            }
            log.settle(&self.log_header(dynamic_len, clean.cycles, clean.state_digest))?;
            let Trials {
                recorded,
                computed,
                metrics,
                throughput,
            } = trials?;

            // Stream the new outcomes (trial order) before assembling
            // the report, so an interrupted consumer still has them on
            // disk.
            if let Some(w) = &mut log.writer {
                for (&t, o) in &computed {
                    w.line(&outcome_line(self.seed, t, o))?;
                }
            }

            let mut all = recorded;
            all.extend(computed);
            let mut report = CoverageReport::new(clean.cycles);
            for o in all.values() {
                report.record(*o);
            }
            report.metrics = metrics;
            report.throughput = Some(throughput);
            if let Some(t) = tele {
                t.emit(
                    "campaign_done",
                    &[
                        ("trials", report.trials().to_string()),
                        ("detected", report.detected.to_string()),
                        ("coverage", format!("{:.6}", report.coverage())),
                    ],
                );
            }
            Ok(report)
        })
    }

    /// Everything after the reference sweep that does not need the
    /// clean run: the parameter pre-draw, the campaign log's opening,
    /// anchors, and the trials (with their window baselines). The trial
    /// phases hold their last worker back until `clean_done` opens. A
    /// resumed log's header is left in `log` before it is checked, so
    /// the caller can check it in full once the clean run has joined.
    #[allow(clippy::too_many_arguments)]
    fn trial_phases(
        &self,
        scheme: &dyn DetectionScheme,
        program: &Program,
        tele: Option<&Telemetry>,
        clean_done: &Gate,
        log: &mut PendingLog,
        coarse: Vec<Checkpoint>,
        stride: u64,
        dynamic_len: u64,
    ) -> Result<Trials, CampaignError> {
        if dynamic_len == 0 {
            return Err(CampaignError::Workload(
                "program executes no instructions".into(),
            ));
        }
        let boundaries = boundary_count(dynamic_len, self.ckpt_every);
        if self.engine == TrialEngine::Replay {
            assert_eq!(
                stride % self.ckpt_every,
                0,
                "sweep stride must stay on the anchor grid"
            );
            assert_eq!(
                coarse.len(),
                boundary_count(dynamic_len, stride),
                "checkpoint sweep disagrees with planned boundary count"
            );
        }

        // Serial parameter pre-draw: the single SplitMix64 stream is
        // consumed in trial order here, before any trial executes, so
        // the fan-out below cannot perturb it and the report compares
        // equal for every worker count.
        let mut rng = SplitMix64::new(self.seed);
        let params: Vec<FaultKey> = (0..self.trials)
            .map(|_| {
                let class = self.mix.sample(rng.next_u64());
                let seq = rng.range_u64(0, dynamic_len);
                let bit = (rng.next_u64() & 63) as u8;
                (class, seq, bit)
            })
            .collect();

        // Campaign-log plumbing. The clean run's two header fields may
        // not be known yet: a resume log is checked on every other
        // field now, and a fresh log is opened now but is emptied and
        // gets its header line only once the clean run has joined.
        let recorded = match (&self.resume, &self.outcomes_jsonl) {
            (Some(path), _) => {
                let file = LogFile::read(path)?;
                log.resumed = Some(file.header);
                let expected = LogHeader {
                    clean_cycles: file.header.clean_cycles,
                    clean_digest: file.header.clean_digest,
                    ..self.log_header(dynamic_len, 0, 0)
                };
                file.header
                    .expect_matches(&expected)
                    .map_err(CampaignError::Resume)?;
                let recorded = file.outcomes()?;
                log.writer = Some(LogWriter::append(path)?);
                recorded
            }
            (None, Some(path)) => {
                log.writer = Some(LogWriter::create(path)?);
                BTreeMap::new()
            }
            (None, None) => BTreeMap::new(),
        };

        if let Some(t) = tele {
            if !recorded.is_empty() {
                t.emit("resume_loaded", &[("recorded", recorded.len().to_string())]);
            }
        }

        // Which trials still need computing, honoring the trial cap.
        let mut todo: Vec<usize> = (0..self.trials)
            .filter(|t| !recorded.contains_key(t))
            .collect();
        if let Some(cap) = self.trial_limit {
            todo.truncate(cap);
        }

        // Distinct fault keys in first-occurrence order: a simulated
        // outcome is a pure function of (class, seq, bit), so the
        // memoized path computes each key once however many trials drew
        // it.
        let mut keys: Vec<FaultKey> = Vec::new();
        let mut key_of: HashMap<FaultKey, usize> = HashMap::new();
        for &t in &todo {
            key_of.entry(params[t]).or_insert_with(|| {
                keys.push(params[t]);
                keys.len() - 1
            });
        }

        if let Some(t) = tele {
            // Memoization effectiveness: duplicated keys never simulate.
            let hit_rate = if todo.is_empty() {
                0.0
            } else {
                1.0 - keys.len() as f64 / todo.len() as f64
            };
            t.emit(
                "plan",
                &[
                    ("todo", todo.len().to_string()),
                    ("distinct_keys", keys.len().to_string()),
                    ("memo_hit_rate", format!("{hit_rate:.4}")),
                ],
            );
        }

        // Recover exactly the anchor checkpoints the distinct keys use
        // from the coarse sweep — the campaign pays a capture per
        // *used* anchor, not per boundary of a long program.
        let windows = self.planned_windows(boundaries, dynamic_len, &keys);
        let phase_start = Instant::now();
        let anchors = self.anchor_checkpoints(clean_done, program, &coarse, stride, &windows)?;
        drop(coarse);
        if let Some(t) = tele {
            t.emit(
                "anchors_derived",
                &[
                    ("anchors", anchors.len().to_string()),
                    (
                        "phase_ms",
                        (phase_start.elapsed().as_millis() as u64).to_string(),
                    ),
                ],
            );
        }

        let mut computed: BTreeMap<usize, TrialOutcome> = BTreeMap::new();
        let mut metrics: Option<MetricsSeries> = None;
        let (throughput, cycles);
        if self.metrics_interval == 0 {
            let results;
            (results, throughput, cycles) = if self.engine == TrialEngine::Replay {
                if let Some(t) = tele {
                    // The clean windows run inside the window phase, so
                    // there is no separate baseline phase to time.
                    t.emit(
                        "baselines_cached",
                        &[
                            ("windows", windows.len().to_string()),
                            ("phase_ms", "0".into()),
                        ],
                    );
                }
                let plan = WindowPlan::new(
                    scheme,
                    &keys,
                    &windows,
                    |seq| self.window_of(seq, boundaries, dynamic_len),
                    self.jobs,
                );
                self.window_phase(clean_done, scheme, program, &anchors, &plan, tele)?
            } else {
                // The oracle arm: every key from scratch.
                let total = keys.len() as u64;
                let stride = (total / 16).max(1);
                let (results, stats) = par_map_joined(
                    self.jobs,
                    Some(clean_done),
                    &keys,
                    |_| 1,
                    |_, &key| {
                        let r = self.trial_outcome(
                            scheme,
                            program,
                            &anchors,
                            &HashMap::new(),
                            boundaries,
                            dynamic_len,
                            key,
                            None,
                        );
                        if let Some(t) = tele {
                            t.progress(total, stride);
                        }
                        r
                    },
                );
                let mut cycles = ForkCycles::default();
                for (_, spent) in results.iter().flatten() {
                    cycles.add(*spent);
                }
                let results = results.into_iter().map(|r| r.map(|(o, _)| o)).collect();
                (results, stats, cycles)
            };
            for &t in &todo {
                match &results[key_of[&params[t]]] {
                    Ok(o) => {
                        computed.insert(t, *o);
                    }
                    Err(m) => {
                        return Err(CampaignError::Trial {
                            trial: t,
                            message: m.clone(),
                        })
                    }
                }
            }
        } else {
            // Metrics sampling pools one series per simulated *trial*;
            // memoization would collapse duplicate keys and change the
            // pooled totals, so every trial simulates individually, each
            // restored from its anchor against a cached clean window.
            let phase_start = Instant::now();
            let baselines =
                self.window_baselines(clean_done, scheme, program, &anchors, &windows)?;
            if let Some(t) = tele {
                t.emit(
                    "baselines_cached",
                    &[
                        ("windows", baselines.len().to_string()),
                        (
                            "phase_ms",
                            (phase_start.elapsed().as_millis() as u64).to_string(),
                        ),
                    ],
                );
            }
            let total = todo.len() as u64;
            let stride = (total / 16).max(1);
            let (results, stats) = par_map_joined(
                self.jobs,
                Some(clean_done),
                &todo,
                |_| 1,
                |_, &t| {
                    let key = params[t];
                    let mut tracer = key
                        .0
                        .detectable_by_design()
                        .then(|| Tracer::new().with_interval(self.metrics_interval));
                    let outcome = self
                        .trial_outcome(
                            scheme,
                            program,
                            &anchors,
                            &baselines,
                            boundaries,
                            dynamic_len,
                            key,
                            tracer.as_mut(),
                        )
                        .map_err(|message| CampaignError::Trial { trial: t, message })?;
                    let series = tracer.map(|mut t| {
                        t.finish();
                        t.into_parts().1
                    });
                    if let Some(tl) = tele {
                        tl.progress(total, stride);
                    }
                    Ok((outcome, series))
                },
            );
            throughput = stats;
            let mut spent = ForkCycles {
                clean: baselines.values().map(|b| b.cycles).sum(),
                ..ForkCycles::default()
            };
            for (result, &t) in results.into_iter().zip(&todo) {
                let ((outcome, trial_cycles), series) = result?;
                spent.add(trial_cycles);
                computed.insert(t, outcome);
                if let Some(m) = series {
                    match &mut metrics {
                        None => metrics = Some(m),
                        Some(acc) => acc.merge_pooled(&m),
                    }
                }
            }
            cycles = spent;
        }

        if let Some(t) = tele {
            t.trials_done(&throughput, &cycles);
        }
        Ok(Trials {
            recorded,
            computed,
            metrics,
            throughput,
        })
    }

    /// The window a fault at `seq` is scored over.
    fn window_of(&self, seq: u64, boundaries: usize, dynamic_len: u64) -> TrialWindow {
        plan_window(
            seq,
            self.ckpt_every,
            boundaries,
            self.max_instructions,
            dynamic_len,
        )
    }

    /// The replay engine's window phase: every planned window's clean
    /// run once from its anchor, with the window's keys forked off it
    /// (see [`crate::schemes::WindowBatch`]) in the batches `plan`
    /// splits them into. Returns one result per key of the plan, the
    /// fan-out's stats, and where the simulated cycles went. A window
    /// whose clean run fails fails the campaign, as a failed clean
    /// window always has.
    fn window_phase(
        &self,
        clean_done: &Gate,
        scheme: &dyn DetectionScheme,
        program: &Program,
        anchors: &HashMap<usize, Checkpoint>,
        plan: &WindowPlan,
        tele: Option<&Telemetry>,
    ) -> Result<Scored, CampaignError> {
        let total = plan.indices.len() as u64;
        let stride = (total / 16).max(1);
        let weight = |b: &Batch| plan.span(b).len() as u64;
        let (replays, stats) = par_map_joined(
            self.jobs,
            Some(clean_done),
            &plan.batches,
            weight,
            |_, b| {
                let keys = &plan.keys[plan.span(b)];
                let r = match b.window {
                    Some(window) => {
                        let (forks, inert) = keys.split_at(b.forks.len());
                        scheme.replay_window(&WindowBatch {
                            program,
                            ck: &anchors[&window.anchor_idx],
                            budget: window.budget,
                            forks,
                            inert,
                            to_end: b.to_end.is_some(),
                        })
                    }
                    None => WindowReplay {
                        clean: Ok(None),
                        outcomes: keys
                            .iter()
                            .map(|&k| {
                                Ok(PendingOutcome {
                                    outcome: undetectable(k),
                                    cycles: 0,
                                    end: None,
                                })
                            })
                            .collect(),
                        cycles: ForkCycles::default(),
                    },
                };
                if let Some(t) = tele {
                    for _ in keys {
                        t.progress(total, stride);
                    }
                }
                r
            },
        );

        let mut cycles = ForkCycles::default();
        let mut baselines = HashMap::new();
        let mut failures = BTreeMap::new();
        for (b, r) in plan.batches.iter().zip(&replays) {
            cycles.add(r.cycles);
            match (&r.clean, b.window) {
                (Ok(Some(baseline)), Some(w)) => {
                    baselines.insert(w, *baseline);
                }
                (Err(m), _) => {
                    failures.insert(b.order, m.clone());
                }
                _ => {}
            }
        }
        if let Some(m) = failures.into_values().next() {
            return Err(CampaignError::Workload(format!("clean window failed: {m}")));
        }
        let mut results = vec![None; plan.indices.len()];
        for (b, r) in plan.batches.iter().zip(replays) {
            let span = plan.span(b);
            for (&i, o) in plan.indices[span].iter().zip(r.outcomes) {
                results[i] = Some(o.map(|p| match p.end {
                    None => p.outcome,
                    Some(_) => p.settle(&baselines[&b.window.expect("only windows compare")]),
                }));
            }
        }
        let results = results
            .into_iter()
            .map(|r| r.expect("every key is scored"))
            .collect();
        Ok((results, stats, cycles))
    }

    /// The reference pass. Under `Replay` the checkpoint-capture sweep
    /// *is* the reference pass — one emulator walk yields the dynamic
    /// length and a bounded set of coarse checkpoints (the sweep thins
    /// itself on long programs; the anchors trials actually use are
    /// derived afterwards, so capture cost scales with the campaign,
    /// not the program). Under `Full` no state is kept (trials
    /// re-derive their anchors from scratch), so only a plain emulator
    /// run measures the length.
    fn reference_sweep(
        &self,
        program: &Program,
    ) -> Result<(Vec<Checkpoint>, u64, u64), CampaignError> {
        match self.engine {
            TrialEngine::Replay => checkpoint_stream_thinned(
                program,
                self.ckpt_every,
                &self.config.pipeline,
                self.max_instructions,
                MAX_RESIDENT_CHECKPOINTS,
            )
            .map_err(|e| CampaignError::Workload(e.to_string())),
            TrialEngine::Full => {
                let mut emu = Emulator::new(program);
                let r = emu
                    .run(self.max_instructions)
                    .map_err(|e| CampaignError::Workload(e.to_string()))?;
                Ok((Vec::new(), self.ckpt_every, r.instructions))
            }
        }
    }

    /// The distinct windows the simulated keys are scored over, in
    /// first-occurrence order.
    fn planned_windows(
        &self,
        boundaries: usize,
        dynamic_len: u64,
        keys: &[FaultKey],
    ) -> Vec<TrialWindow> {
        let mut seen = HashSet::new();
        keys.iter()
            .filter(|(class, _, _)| class.detectable_by_design())
            .map(|&(_, seq, _)| self.window_of(seq, boundaries, dynamic_len))
            .filter(|w| seen.insert(*w))
            .collect()
    }

    /// Derives the anchor checkpoints the planned windows use from the
    /// coarse sweep, on a pool. Each distinct anchor costs at most one
    /// coarse-stride warm fast-forward plus one capture; anchors that
    /// land on the coarse grid are reused as-is. Replay-only: the
    /// `Full` arm re-derives anchors from instruction 0 inside each
    /// trial.
    fn anchor_checkpoints(
        &self,
        clean_done: &Gate,
        program: &Program,
        coarse: &[Checkpoint],
        stride: u64,
        windows: &[TrialWindow],
    ) -> Result<HashMap<usize, Checkpoint>, CampaignError> {
        if self.engine == TrialEngine::Full {
            return Ok(HashMap::new());
        }
        let mut seen = HashSet::new();
        let wanted: Vec<usize> = windows
            .iter()
            .map(|w| w.anchor_idx)
            .filter(|&idx| seen.insert(idx))
            .collect();
        // Unlike the other phases, this one keeps to the threads it has
        // when it starts. Only the calling thread could take the clean
        // run's thread over, and it allocated the sweep's checkpoints:
        // anchors it derived, which live through the trials, would pin
        // that memory (schemes -j 2 peaked 14 MiB higher).
        let workers = if clean_done.is_open() {
            self.jobs
        } else {
            self.jobs - 1
        };
        let (results, _) = par_map_indexed(workers, &wanted, |_, &idx| {
            let boundary = idx as u64 * self.ckpt_every;
            let base = &coarse[(boundary / stride) as usize];
            derive_checkpoint(program, base, boundary, &self.config.pipeline)
                .map_err(|e| e.to_string())
        });
        let mut map = HashMap::with_capacity(wanted.len());
        for (idx, r) in wanted.into_iter().zip(results) {
            let ck =
                r.map_err(|m| CampaignError::Workload(format!("anchor derivation failed: {m}")))?;
            map.insert(idx, ck);
        }
        Ok(map)
    }

    /// The campaign-log header: everything the outcome sequence is a
    /// pure function of (deliberately excluding the engine, the worker
    /// count, and metrics sampling — none may change outcomes).
    fn log_header(&self, dynamic_len: u64, clean_cycles: u64, clean_digest: u64) -> LogHeader {
        let mut mix = [0u32; 5];
        for (slot, class) in mix.iter_mut().zip(FaultClass::ALL) {
            *slot = self.mix.weight(class);
        }
        // The scheme participates in the config digest (a duplex log
        // must not resume a REESE campaign). The REESE hash stays
        // unsalted so logs from before schemes existed keep resuming.
        let config_fnv = match self.scheme {
            Scheme::Reese => fnv1a64(format!("{:?}", self.config).as_bytes()),
            s => fnv1a64(format!("{}:{:?}", s.name(), self.config).as_bytes()),
        };
        LogHeader {
            seed: self.seed,
            trials: self.trials as u64,
            mix,
            ckpt_every: self.ckpt_every,
            max_instructions: self.max_instructions,
            config_fnv,
            dynamic_len,
            clean_cycles,
            clean_digest,
        }
    }

    /// Clean-window baselines for every planned window, computed on the
    /// pool before the sampled trials fan out. Replay-only: the `Full`
    /// arm recomputes its baseline inside each trial, sharing nothing.
    fn window_baselines(
        &self,
        clean_done: &Gate,
        scheme: &dyn DetectionScheme,
        program: &Program,
        anchors: &HashMap<usize, Checkpoint>,
        windows: &[TrialWindow],
    ) -> Result<HashMap<TrialWindow, WindowBaseline>, CampaignError> {
        if self.engine == TrialEngine::Full {
            return Ok(HashMap::new());
        }
        let (results, _) = par_map_joined(
            self.jobs,
            Some(clean_done),
            windows,
            |_| 1,
            |_, w| clean_window(scheme, program, &anchors[&w.anchor_idx], w.budget),
        );
        let mut map = HashMap::with_capacity(windows.len());
        for (&w, r) in windows.iter().zip(results) {
            let baseline =
                r.map_err(|m| CampaignError::Workload(format!("clean window failed: {m}")))?;
            map.insert(w, baseline);
        }
        Ok(map)
    }

    /// Scores one fault key over its anchored window (see
    /// [`crate::engine`] for the window contract shared by both
    /// engines), restored from the anchor, and counts the cycles it
    /// simulated.
    #[allow(clippy::too_many_arguments)]
    fn trial_outcome(
        &self,
        scheme: &dyn DetectionScheme,
        program: &Program,
        anchors: &HashMap<usize, Checkpoint>,
        baselines: &HashMap<TrialWindow, WindowBaseline>,
        boundaries: usize,
        dynamic_len: u64,
        key: FaultKey,
        tracer: Option<&mut Tracer>,
    ) -> Result<(TrialOutcome, ForkCycles), String> {
        let (class, seq, _) = key;
        if !class.detectable_by_design() {
            return Ok((undetectable(key), ForkCycles::default()));
        }
        let window = self.window_of(seq, boundaries, dynamic_len);
        let mut spent = ForkCycles::default();
        let owned;
        let (ck, baseline): (&Checkpoint, WindowBaseline) = match self.engine {
            TrialEngine::Replay => (&anchors[&window.anchor_idx], baselines[&window]),
            TrialEngine::Full => {
                // The oracle arm: re-derive the anchor state from
                // instruction 0 and re-run the clean window, every
                // trial, sharing nothing with any other trial.
                owned = warm_checkpoint_at(
                    program,
                    window.anchor(self.ckpt_every),
                    &self.config.pipeline,
                )
                .map_err(|e| e.to_string())?;
                let baseline = clean_window(scheme, program, &owned, window.budget)?;
                spent.clean = baseline.cycles;
                (&owned, baseline)
            }
        };
        let faulted = scheme.run_faulted(program, ck, window.budget, key, tracer, None)?;
        spent.suffix = faulted.cycles;
        Ok((faulted.settle(&baseline), spent))
    }
}

/// One result per fault key, the fan-out's stats, and where the
/// simulated cycles went.
type Scored = (Vec<Result<TrialOutcome, String>>, ParallelStats, ForkCycles);

/// The outcome of a key outside every scheme's observation window:
/// undetected by design, with nothing to simulate.
fn undetectable((class, seq, bit): FaultKey) -> TrialOutcome {
    TrialOutcome {
        class,
        seq,
        bit,
        detected: false,
        detection_latency: None,
        extra_cycles: 0,
        state_clean: true,
        inject_cycle: None,
        diverge_cycle: None,
        detect_cycle: None,
    }
}

/// How the replay engine's window phase splits its keys into batches.
///
/// Each window's keys to fork are sorted by seq and cut into contiguous
/// batches of at most half a worker's share of all forks (no cut at
/// `-j 1`), so a campaign with fewer windows than workers (a short
/// program, or CI's million-injection smoke, whose program is one
/// window) still feeds them all evenly, while one with many small
/// windows splits none. Each batch
/// replays the clean prefix up to its own last fork, and the window's
/// last batch runs the clean window to its end. Keys outside every
/// scheme's observation window form one more batch, scored without
/// simulation. The plan depends only on the campaign's inputs.
struct WindowPlan {
    /// Every key, grouped by window in first-occurrence order: a
    /// window's forks sorted by seq, then its inert keys; the
    /// unsimulated keys last.
    keys: Vec<FaultKey>,
    /// The index in the campaign's key list of each of `keys`.
    indices: Vec<usize>,
    /// The batches, most forks first so the longest start earliest.
    batches: Vec<Batch>,
}

/// A contiguous run of [`WindowPlan::keys`]: forks of one window.
struct Batch {
    /// The window, or `None` for the unsimulated keys.
    window: Option<TrialWindow>,
    /// The window's first-occurrence rank (clean-run failures report in
    /// this order).
    order: usize,
    /// The batch's forks.
    forks: Range<usize>,
    /// Where the window's keys end, when this batch runs the clean
    /// window to its end and scores its inert keys too.
    to_end: Option<usize>,
}

impl WindowPlan {
    fn new(
        scheme: &dyn DetectionScheme,
        keys: &[FaultKey],
        windows: &[TrialWindow],
        window_of: impl Fn(u64) -> TrialWindow,
        jobs: usize,
    ) -> WindowPlan {
        let slot: HashMap<TrialWindow, usize> =
            windows.iter().enumerate().map(|(i, &w)| (w, i)).collect();
        let mut forks = vec![Vec::new(); windows.len()];
        let mut inert = vec![Vec::new(); windows.len()];
        let mut unsimulated = Vec::new();
        for (i, &(class, seq, _)) in keys.iter().enumerate() {
            if !class.detectable_by_design() {
                unsimulated.push(i);
            } else if scheme.inert(class) {
                inert[slot[&window_of(seq)]].push(i);
            } else {
                forks[slot[&window_of(seq)]].push(i);
            }
        }
        // Two batches per worker let the tail steals even out batches
        // whose suffixes differ in length.
        let batches_wanted = if jobs > 1 { 2 * jobs } else { 1 };
        let share = forks
            .iter()
            .map(Vec::len)
            .sum::<usize>()
            .div_ceil(batches_wanted)
            .max(1);
        let mut indices = Vec::with_capacity(keys.len());
        let mut batches = Vec::new();
        for (order, (mut forks, inert)) in forks.into_iter().zip(inert).enumerate() {
            forks.sort_by_key(|&i| (keys[i].1, i));
            let (start, n) = (indices.len(), forks.len());
            let end = start + n + inert.len();
            let parts = n.div_ceil(share).max(1);
            batches.extend((0..parts).map(|p| Batch {
                window: Some(windows[order]),
                order,
                forks: start + p * n / parts..start + (p + 1) * n / parts,
                to_end: (p + 1 == parts).then_some(end),
            }));
            indices.extend(forks.into_iter().chain(inert));
        }
        if !unsimulated.is_empty() {
            let start = indices.len();
            batches.push(Batch {
                window: None,
                order: windows.len(),
                forks: start..start,
                to_end: Some(start + unsimulated.len()),
            });
            indices.extend(unsimulated);
        }
        batches.sort_by_key(|b| std::cmp::Reverse(b.forks.len()));
        WindowPlan {
            keys: indices.iter().map(|&i| keys[i]).collect(),
            indices,
            batches,
        }
    }

    /// A batch's span of [`WindowPlan::keys`]: its forks, plus the
    /// window's inert keys if it runs the window to its end.
    fn span(&self, b: &Batch) -> Range<usize> {
        b.forks.start..b.to_end.unwrap_or(b.forks.end)
    }
}

/// The campaign's clean whole-program detailed run. It supplies only
/// the report's `clean_cycles` and the log header's clean-run fields,
/// so it runs on its own scoped thread beside the sweep and the trial
/// phases and is joined where those numbers are first needed. It opens
/// its gate when it finishes, so a pool phase's held-back worker takes
/// its thread over. At `-j1` it runs inline, before the sweep.
enum CleanRun<'scope> {
    Running(ScopedJoinHandle<'scope, (Result<SchemeRun, String>, Duration)>),
    Done((Result<SchemeRun, String>, Duration)),
}

impl<'scope> CleanRun<'scope> {
    fn start<'env, F>(
        scope: &'scope Scope<'scope, 'env>,
        jobs: usize,
        done: &'scope Gate,
        run: F,
    ) -> CleanRun<'scope>
    where
        F: FnOnce() -> Result<SchemeRun, String> + Send + 'scope,
    {
        let timed = move || {
            let start = Instant::now();
            let result = (run(), start.elapsed());
            done.open();
            result
        };
        if jobs > 1 {
            CleanRun::Running(scope.spawn(timed))
        } else {
            CleanRun::Done(timed())
        }
    }

    /// The run's result and its wall time.
    fn join(self) -> (Result<SchemeRun, String>, Duration) {
        match self {
            CleanRun::Running(handle) => handle.join().expect("clean reference run panicked"),
            CleanRun::Done(done) => done,
        }
    }
}

/// The campaign log while the clean run may still be going: a resumed
/// log's recorded header, checked in full once the run has joined, and
/// the open writer, which neither truncates nor writes the file until
/// then.
#[derive(Default)]
struct PendingLog {
    resumed: Option<LogHeader>,
    writer: Option<LogWriter>,
}

impl PendingLog {
    /// Finishes the header once the clean run's fields are known: a
    /// resumed log must match it in every field, and a fresh log is
    /// emptied and gets it as its first line.
    fn settle(&mut self, header: &LogHeader) -> Result<(), CampaignError> {
        match (&self.resumed, &mut self.writer) {
            (Some(recorded), _) => recorded
                .expect_matches(header)
                .map_err(CampaignError::Resume),
            (None, Some(writer)) => writer.begin(header),
            (None, None) => Ok(()),
        }
    }
}

/// What the trial phases produced, ready for the report.
struct Trials {
    recorded: BTreeMap<usize, TrialOutcome>,
    computed: BTreeMap<usize, TrialOutcome>,
    metrics: Option<MetricsSeries>,
    throughput: ParallelStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::assemble;

    fn loop_prog() -> reese_isa::Program {
        assemble("  li t0, 60\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n").unwrap()
    }

    #[test]
    fn result_errors_fully_detected() {
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
            .trials(25)
            .seed(1)
            .run(&loop_prog())
            .unwrap();
        assert_eq!(report.trials(), 25);
        assert_eq!(report.detected, 25);
        assert!((report.coverage() - 1.0).abs() < 1e-12);
        assert!(report.mean_detection_latency() > 0.0);
        assert!(
            report.all_states_clean(),
            "recovery must restore architectural state"
        );
    }

    #[test]
    fn broad_mix_shows_coverage_boundary() {
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
            .trials(60)
            .seed(2)
            .run(&loop_prog())
            .unwrap();
        assert!(report.detected > 0, "result errors present");
        assert!(report.detected < 60, "uncovered classes present");
        for c in [
            FaultClass::PostCompare,
            FaultClass::CacheCell,
            FaultClass::PipelineControl,
        ] {
            let (det, total) = report.by_class(c);
            if total > 0 {
                assert_eq!(det, 0, "{c} must be undetectable");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(20)
                .seed(42)
                .run(&loop_prog())
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn parallel_report_is_bit_identical_to_serial() {
        let run = |jobs: usize| {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(24)
                .seed(42)
                .jobs(jobs)
                .run(&loop_prog())
                .unwrap()
        };
        let serial = run(1);
        for jobs in [2, 4, 7] {
            assert_eq!(run(jobs), serial, "jobs={jobs} must not change the report");
        }
    }

    #[test]
    fn full_engine_matches_replay_engine() {
        let run = |engine: TrialEngine| {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(20)
                .seed(42)
                .engine(engine)
                .run(&loop_prog())
                .unwrap()
        };
        let full = run(TrialEngine::Full);
        let replay = run(TrialEngine::Replay);
        assert_eq!(full, replay);
        assert_eq!(full.to_json(), replay.to_json());
    }

    #[test]
    fn parallel_run_reports_throughput() {
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
            .trials(8)
            .jobs(4)
            .run(&loop_prog())
            .unwrap();
        let t = report.throughput.expect("throughput recorded");
        assert_eq!(t.items(), 8, "eight distinct fault keys, none memoized");
        // Four threads in all: the trial phase's last worker joins once
        // the clean run is done. The hand-over is pinned by
        // `clean_run_holds_one_thread_of_the_budget_until_it_finishes`.
        assert!((3..=4).contains(&t.jobs), "{} workers", t.jobs);
        assert_eq!(t.workers.len(), t.jobs);
        assert!(t.items_per_sec() > 0.0);
    }

    #[test]
    fn sampled_campaign_pools_metrics_without_changing_outcomes() {
        let run = |interval: u64| {
            Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
                .trials(6)
                .seed(11)
                .metrics_interval(interval)
                .run(&loop_prog())
                .unwrap()
        };
        let plain = run(0);
        let sampled = run(200);
        assert_eq!(
            sampled, plain,
            "sampling must not perturb trial outcomes (equality ignores metrics)"
        );
        assert!(plain.metrics.is_none());
        let m = sampled.metrics.as_ref().expect("metrics pooled");
        assert!(!m.rows.is_empty());
        // Six simulated trials pooled: the committed total is six times
        // one faulted run's commit count (all trials run the same
        // program to completion).
        assert_eq!(m.totals().committed % 6, 0);
        assert!(m.totals().committed > 0);
    }

    #[test]
    fn recovery_costs_cycles() {
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
            .trials(10)
            .seed(3)
            .run(&loop_prog())
            .unwrap();
        assert!(report.mean_recovery_cycles() > 0.0, "a flush is never free");
    }

    #[test]
    fn empty_program_rejected() {
        let prog = assemble("  halt\n").unwrap();
        // One instruction is fine; a zero-trial campaign also fine.
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
            .trials(0)
            .run(&prog)
            .unwrap();
        assert_eq!(report.trials(), 0);
        assert_eq!(report.coverage(), 0.0);
    }

    #[test]
    fn memoization_keeps_duplicate_keys_cheap() {
        // A one-instruction-long program (plus halt) gives few distinct
        // seqs, so a large campaign collapses to few simulated keys.
        let prog =
            assemble("  li t0, 2\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n").unwrap();
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
            .trials(5_000)
            .seed(5)
            .run(&prog)
            .unwrap();
        assert_eq!(report.trials(), 5_000);
        let t = report.throughput.expect("throughput recorded");
        // 2 classes x 6 dynamic instructions x 64 bits = 768 keys max.
        assert!(
            t.items() <= 768,
            "{} simulated items for 5000 trials",
            t.items()
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_checkpoint_interval_panics() {
        let _ = Campaign::new(ReeseConfig::starting(), FaultMix::broad()).ckpt_every(0);
    }

    #[test]
    fn outcomes_jsonl_then_resume_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!("reese-campaign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("campaign.jsonl");
        let base = || {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(16)
                .seed(9)
        };
        let whole = base().run(&loop_prog()).unwrap();
        // First half, interrupted via the trial cap...
        let partial = base()
            .outcomes_jsonl(&log)
            .trial_limit(8)
            .run(&loop_prog())
            .unwrap();
        assert_eq!(partial.trials(), 8);
        assert_eq!(partial.outcomes, whole.outcomes[..8]);
        // ...then resumed to completion.
        let resumed = base().resume(&log).run(&loop_prog()).unwrap();
        assert_eq!(resumed, whole);
        assert_eq!(resumed.to_json(), whole.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_seed() {
        let dir = std::env::temp_dir().join(format!("reese-campaign-seed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("campaign.jsonl");
        Campaign::new(ReeseConfig::starting(), FaultMix::broad())
            .trials(4)
            .seed(1)
            .outcomes_jsonl(&log)
            .run(&loop_prog())
            .unwrap();
        let err = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
            .trials(4)
            .seed(2)
            .resume(&log)
            .run(&loop_prog())
            .unwrap_err();
        match err {
            CampaignError::Resume(m) => assert!(m.contains("`seed`"), "{m}"),
            other => panic!("expected Resume error, got {other}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_different_program() {
        let dir = std::env::temp_dir().join(format!("reese-campaign-prog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("campaign.jsonl");
        let base = || {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(4)
                .seed(1)
        };
        base().outcomes_jsonl(&log).run(&loop_prog()).unwrap();
        let other =
            assemble("  li t0, 10\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n").unwrap();
        let err = base().resume(&log).run(&other).unwrap_err();
        assert!(matches!(err, CampaignError::Resume(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_missing_file_is_io_error() {
        let err = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
            .trials(4)
            .resume("/nonexistent/campaign.jsonl")
            .run(&loop_prog())
            .unwrap_err();
        assert!(matches!(err, CampaignError::Io(_)), "{err}");
    }

    /// A loop long enough for several anchors, so every pool phase has
    /// work to split while the clean run may still be going.
    fn long_loop_prog() -> reese_isa::Program {
        assemble("  li t0, 3000\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n").unwrap()
    }

    #[test]
    fn thread_budget_of_three_matches_serial_report_and_log() {
        let dir = std::env::temp_dir().join(format!("reese-campaign-j3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run = |jobs: usize| {
            let log = dir.join(format!("j{jobs}.jsonl"));
            let report = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(40)
                .seed(13)
                .ckpt_every(512)
                .jobs(jobs)
                .outcomes_jsonl(&log)
                .run(&long_loop_prog())
                .unwrap();
            (report, std::fs::read(&log).unwrap())
        };
        let (serial, serial_log) = run(1);
        let (pooled, pooled_log) = run(3);
        assert_eq!(pooled, serial);
        assert_eq!(pooled.to_json(), serial.to_json());
        assert_eq!(pooled_log, serial_log, "-j 3 must write the same log");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_tampered_clean_digest_without_touching_the_log() {
        let dir =
            std::env::temp_dir().join(format!("reese-campaign-digest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("campaign.jsonl");
        let base = || {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(16)
                .seed(9)
        };
        base()
            .outcomes_jsonl(&log)
            .trial_limit(8)
            .run(&loop_prog())
            .unwrap();
        let text = std::fs::read_to_string(&log).unwrap();
        let (header, rest) = text.split_once('\n').unwrap();
        let digest = header.split("\"clean_digest\": ").nth(1).unwrap();
        let digest = digest.trim_end_matches('}');
        let tampered = header.replace(
            &format!("\"clean_digest\": {digest}"),
            &format!("\"clean_digest\": {}", digest.parse::<u64>().unwrap() ^ 1),
        );
        assert_ne!(tampered, header);
        let tampered = format!("{tampered}\n{rest}");
        std::fs::write(&log, &tampered).unwrap();
        for jobs in [1, 2] {
            let err = base()
                .jobs(jobs)
                .resume(&log)
                .run(&loop_prog())
                .unwrap_err();
            match err {
                CampaignError::Resume(m) => assert!(m.contains("`clean_digest`"), "{m}"),
                other => panic!("expected Resume error, got {other}"),
            }
            assert_eq!(
                std::fs::read_to_string(&log).unwrap(),
                tampered,
                "a rejected resume must not append to the log"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_run_holds_one_thread_of_the_budget_until_it_finishes() {
        let (inline_done, threaded_done) = (Gate::new(), Gate::new());
        std::thread::scope(|scope| {
            let inline = CleanRun::start(scope, 1, &inline_done, || Err("inline".into()));
            assert!(matches!(inline, CleanRun::Done(_)), "-j1 runs it inline");
            assert!(inline_done.is_open(), "an inline run frees its thread");

            let (go, wait) = std::sync::mpsc::channel::<()>();
            let running = CleanRun::start(scope, 4, &threaded_done, move || {
                wait.recv().unwrap();
                Err("threaded".into())
            });
            assert!(
                !threaded_done.is_open(),
                "a blocked clean run holds a thread"
            );
            // A pool phase meanwhile holds its last worker back.
            let items: Vec<u8> = (0..8).collect();
            let (_, stats) = par_map_joined(4, Some(&threaded_done), &items, |_| 1, |_, &x| x);
            assert_eq!(stats.workers[3].items, 0, "{stats}");
            go.send(()).unwrap();
            assert_eq!(running.join().0.unwrap_err(), "threaded");
            assert!(
                threaded_done.is_open(),
                "a finished clean run frees its thread"
            );
        });
    }

    #[test]
    fn failed_clean_run_leaves_an_existing_log_unchanged() {
        // A memory slower than the deadlock horizon stalls the timing
        // model's first fetch for good, so the clean run fails while
        // the functional sweep completes.
        let mut config = ReeseConfig::starting();
        config.pipeline.hierarchy.mem_latency = 1_000_000;
        let program = loop_prog();
        let dir = std::env::temp_dir().join(format!("reese-campaign-clean-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("campaign.jsonl");
        let before = "an earlier campaign's log\n";
        std::fs::write(&log, before).unwrap();
        for jobs in [1, 2] {
            let err = Campaign::new(config.clone(), FaultMix::broad())
                .trials(4)
                .jobs(jobs)
                .outcomes_jsonl(&log)
                .run(&program)
                .unwrap_err();
            match err {
                CampaignError::Workload(m) => assert!(m.contains("deadlock"), "{m}"),
                other => panic!("expected the clean run's error, got {other}"),
            }
            assert_eq!(std::fs::read_to_string(&log).unwrap(), before, "-j{jobs}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_clean_done_carries_the_report_clean_cycles() {
        let dir =
            std::env::temp_dir().join(format!("reese-campaign-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("telemetry.jsonl");
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
            .trials(12)
            .jobs(2)
            .telemetry_out(&journal)
            .run(&long_loop_prog())
            .unwrap();
        let text = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"event\": \"clean_done\""))
            .collect();
        assert_eq!(lines.len(), 1, "{text}");
        let cycles: u64 = lines[0]
            .split("\"clean_cycles\": ")
            .nth(1)
            .and_then(|v| v.split([',', '}']).next())
            .and_then(|v| v.trim().parse().ok())
            .expect("clean_done carries clean_cycles");
        assert_eq!(cycles, report.clean_cycles);
        assert!(report.clean_cycles > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
