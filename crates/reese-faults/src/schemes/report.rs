//! The cross-scheme comparison report: every registered backend over
//! the same kernels, same fault draws, one ranked table.
//!
//! Fair-accounting rules (also documented in `EXPERIMENTS.md`):
//!
//! - **Time overhead** is clean-run cycles of the scheme divided by
//!   clean-run cycles of the unprotected baseline core *on the
//!   original program*. Software schemes pay their extra instructions
//!   here; off-core checkers pay their verification tail (the run is
//!   done when the last commit is checked, not when it commits).
//! - **Code overhead** is static text length of the prepared program
//!   over the original. 1.0 for every hardware scheme.
//! - **Coverage and latency** come from a [`Campaign`] with identical
//!   trial count, seed, and mix per scheme, so every scheme faces the
//!   same fault-class draws. Sequence numbers index each scheme's own
//!   prepared dynamic stream — the software scheme's duplicated
//!   instructions are genuine extra targets, not an accounting trick.

use super::build;
use crate::report::histogram_json;
use crate::{Campaign, CampaignError, FaultMix, TrialEngine};
use reese_ckpt::Scheme;
use reese_core::ReeseConfig;
use reese_isa::Program;
use reese_stats::Histogram;
use std::fmt;

/// One (scheme, kernel) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeRow {
    /// The detection scheme measured.
    pub scheme: Scheme,
    /// Kernel name.
    pub kernel: String,
    /// Injection trials run.
    pub trials: usize,
    /// Trials detected.
    pub detected: u64,
    /// Detected fraction.
    pub coverage: f64,
    /// Mean detection latency over detected trials, in cycles.
    pub mean_latency: f64,
    /// Median detection latency, in cycles.
    pub p50_latency: u64,
    /// 90th-percentile detection latency, in cycles.
    pub p90_latency: u64,
    /// 99th-percentile detection latency, in cycles.
    pub p99_latency: u64,
    /// Full detection-latency distribution over detected trials
    /// (unit-width buckets, [`crate::report::LATENCY_HISTOGRAM_CAP`]).
    pub latency_histogram: Histogram,
    /// Clean scheme cycles / clean baseline cycles.
    pub time_overhead: f64,
    /// Prepared static instructions / original static instructions.
    pub code_overhead: f64,
}

/// Per-scheme aggregate across kernels, used for ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeSummary {
    /// The scheme.
    pub scheme: Scheme,
    /// Mean coverage across kernels.
    pub coverage: f64,
    /// Mean of per-kernel mean latencies over kernels with detections.
    pub mean_latency: f64,
    /// Mean time overhead across kernels.
    pub time_overhead: f64,
    /// Mean code overhead across kernels.
    pub code_overhead: f64,
}

/// Evaluation knobs shared by every (scheme, kernel) cell.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Injection trials per cell.
    pub trials: usize,
    /// Campaign PRNG seed.
    pub seed: u64,
    /// Worker threads.
    pub jobs: usize,
    /// Trial engine.
    pub engine: TrialEngine,
    /// Committed-instruction cap per run (`u64::MAX` = none).
    pub max_instructions: u64,
    /// Shared telemetry journal: every cell campaign appends its phase
    /// and throughput events here, bracketed by `cell_start` events
    /// naming the (scheme, kernel) pair. `None` (default) disables.
    pub telemetry_out: Option<std::path::PathBuf>,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            trials: 100,
            seed: 0xFA017,
            jobs: 1,
            engine: TrialEngine::Replay,
            max_instructions: u64::MAX,
            telemetry_out: None,
        }
    }
}

/// The full cross-scheme report.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemesReport {
    /// One row per (scheme, kernel), schemes in registry order.
    pub rows: Vec<SchemeRow>,
}

impl SchemesReport {
    /// Runs every registered backend over the given named programs.
    ///
    /// # Errors
    ///
    /// Propagates the first campaign or preparation failure.
    pub fn evaluate(
        config: &ReeseConfig,
        mix: &FaultMix,
        programs: &[(String, Program)],
        opts: &EvalOptions,
    ) -> Result<SchemesReport, CampaignError> {
        let tele = match &opts.telemetry_out {
            Some(path) => Some(std::sync::Arc::new(
                crate::telemetry::Telemetry::create(path).map_err(CampaignError::Io)?,
            )),
            None => None,
        };
        let mut rows = Vec::with_capacity(Scheme::ALL.len() * programs.len());
        for (kernel, program) in programs {
            // Each cell's campaign already runs its scheme's clean
            // whole-program run; the time overhead divides its cycles
            // by the baseline cell's once the kernel's cells are done.
            let mut cells = Vec::with_capacity(Scheme::ALL.len());
            for scheme in Scheme::ALL {
                let prepared = build(scheme, config)
                    .prepare(program)
                    .map_err(CampaignError::Workload)?;
                let mut campaign = Campaign::new(config.clone(), *mix)
                    .scheme(scheme)
                    .trials(opts.trials)
                    .seed(opts.seed)
                    .jobs(opts.jobs)
                    .engine(opts.engine)
                    .max_instructions(opts.max_instructions);
                if let Some(t) = &tele {
                    t.emit(
                        "cell_start",
                        &[
                            ("scheme", crate::telemetry::json_str(scheme.name())),
                            ("kernel", crate::telemetry::json_str(kernel)),
                        ],
                    );
                    campaign = campaign.telemetry(std::sync::Arc::clone(t));
                }
                let report = campaign.run(program)?;
                let row = SchemeRow {
                    scheme,
                    kernel: kernel.clone(),
                    trials: report.trials(),
                    detected: report.detected,
                    coverage: report.coverage(),
                    mean_latency: report.mean_detection_latency(),
                    p50_latency: report.latency_percentile(1, 2).unwrap_or(0),
                    p90_latency: report.latency_percentile(9, 10).unwrap_or(0),
                    p99_latency: report.latency_percentile(99, 100).unwrap_or(0),
                    latency_histogram: report.latency_histogram(),
                    time_overhead: 0.0,
                    code_overhead: prepared.len() as f64 / program.len().max(1) as f64,
                };
                cells.push((row, report.clean_cycles));
            }
            let baseline_cycles = cells
                .iter()
                .find(|(row, _)| row.scheme == Scheme::Baseline)
                .map(|&(_, cycles)| cycles)
                .expect("Scheme::ALL registers the baseline");
            for (mut row, cycles) in cells {
                row.time_overhead = cycles as f64 / baseline_cycles.max(1) as f64;
                rows.push(row);
            }
        }
        Ok(SchemesReport { rows })
    }

    /// Per-scheme aggregates, ranked best-first: coverage descending,
    /// then time overhead ascending (cheapest protection wins ties).
    pub fn ranked(&self) -> Vec<SchemeSummary> {
        let mut out: Vec<SchemeSummary> = Scheme::ALL
            .into_iter()
            .map(|scheme| {
                let rows: Vec<&SchemeRow> =
                    self.rows.iter().filter(|r| r.scheme == scheme).collect();
                let n = rows.len().max(1) as f64;
                let with_lat: Vec<&&SchemeRow> = rows.iter().filter(|r| r.detected > 0).collect();
                SchemeSummary {
                    scheme,
                    coverage: rows.iter().map(|r| r.coverage).sum::<f64>() / n,
                    mean_latency: if with_lat.is_empty() {
                        0.0
                    } else {
                        with_lat.iter().map(|r| r.mean_latency).sum::<f64>() / with_lat.len() as f64
                    },
                    time_overhead: rows.iter().map(|r| r.time_overhead).sum::<f64>() / n,
                    code_overhead: rows.iter().map(|r| r.code_overhead).sum::<f64>() / n,
                }
            })
            .collect();
        out.sort_by(|a, b| {
            b.coverage
                .partial_cmp(&a.coverage)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    a.time_overhead
                        .partial_cmp(&b.time_overhead)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        out
    }

    /// The per-scheme summary for one scheme, if it has rows.
    pub fn summary(&self, scheme: Scheme) -> Option<SchemeSummary> {
        self.ranked().into_iter().find(|s| s.scheme == scheme)
    }

    /// CSV: one row per (scheme, kernel), deterministic field order
    /// and formatting (the CI smoke step diffs this against a golden
    /// file).
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "scheme,kernel,trials,detected,coverage,mean_latency,p50_latency,p90_latency,p99_latency,time_overhead,code_overhead\n",
        );
        for r in &self.rows {
            s.push_str(&format!(
                "{},{},{},{},{:.4},{:.2},{},{},{},{:.4},{:.4}\n",
                r.scheme,
                r.kernel,
                r.trials,
                r.detected,
                r.coverage,
                r.mean_latency,
                r.p50_latency,
                r.p90_latency,
                r.p99_latency,
                r.time_overhead,
                r.code_overhead
            ));
        }
        s
    }

    /// JSON object with per-cell rows and the ranked summary.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"scheme\": \"{}\", \"kernel\": \"{}\", \"trials\": {}, \"detected\": {}, \"coverage\": {:.6}, \"mean_latency\": {:.4}, \"p50_latency\": {}, \"p90_latency\": {}, \"p99_latency\": {}, \"latency_histogram\": {}, \"time_overhead\": {:.6}, \"code_overhead\": {:.6}}}{}\n",
                r.scheme,
                r.kernel,
                r.trials,
                r.detected,
                r.coverage,
                r.mean_latency,
                r.p50_latency,
                r.p90_latency,
                r.p99_latency,
                histogram_json(&r.latency_histogram),
                r.time_overhead,
                r.code_overhead,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"ranking\": [\n");
        let ranked = self.ranked();
        for (i, r) in ranked.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"scheme\": \"{}\", \"coverage\": {:.6}, \"mean_latency\": {:.4}, \"time_overhead\": {:.6}, \"code_overhead\": {:.6}}}{}\n",
                r.scheme,
                r.coverage,
                r.mean_latency,
                r.time_overhead,
                r.code_overhead,
                if i + 1 < ranked.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

impl fmt::Display for SchemesReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} {:>9} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10}",
            "scheme",
            "coverage",
            "mean lat",
            "p50 lat",
            "p90 lat",
            "p99 lat",
            "time ovh",
            "code ovh"
        )?;
        for s in self.ranked() {
            let worst = |pick: fn(&SchemeRow) -> u64| {
                self.rows
                    .iter()
                    .filter(|r| r.scheme == s.scheme)
                    .map(pick)
                    .max()
                    .unwrap_or(0)
            };
            writeln!(
                f,
                "{:<10} {:>8.1}% {:>10.1} {:>8} {:>8} {:>8} {:>9.2}x {:>9.2}x",
                s.scheme.name(),
                s.coverage * 100.0,
                s.mean_latency,
                worst(|r| r.p50_latency),
                worst(|r| r.p90_latency),
                worst(|r| r.p99_latency),
                s.time_overhead,
                s.code_overhead
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "{:<10} {:<10} {:>7} {:>9} {:>9} {:>10} {:>10}",
            "scheme", "kernel", "trials", "detected", "coverage", "time ovh", "code ovh"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:<10} {:>7} {:>9} {:>8.1}% {:>9.2}x {:>9.2}x",
                r.scheme.name(),
                r.kernel,
                r.trials,
                r.detected,
                r.coverage * 100.0,
                r.time_overhead,
                r.code_overhead
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_pipeline::PipelineSim;
    use reese_workloads::Kernel;

    #[test]
    fn time_overhead_matches_a_separate_clean_run_per_scheme() {
        let config = ReeseConfig::starting();
        let program = Kernel::Strings.build_for(4_000);
        let opts = EvalOptions {
            trials: 4,
            jobs: 2,
            ..EvalOptions::default()
        };
        let report = SchemesReport::evaluate(
            &config,
            &FaultMix::result_errors_only(),
            &[("strings".to_string(), program.clone())],
            &opts,
        )
        .unwrap();
        // The oracle: a separate clean run per scheme over a separate
        // unprotected-core run, independent of the campaigns.
        let baseline_cycles = PipelineSim::new(config.pipeline.clone())
            .run_limit(&program, opts.max_instructions)
            .unwrap()
            .stats
            .cycles;
        assert_eq!(report.rows.len(), Scheme::ALL.len());
        for (row, scheme) in report.rows.iter().zip(Scheme::ALL) {
            assert_eq!(row.scheme, scheme);
            let backend = build(scheme, &config);
            let prepared = backend.prepare(&program).unwrap();
            let clean = backend.run_limit(&prepared, opts.max_instructions).unwrap();
            let expected = clean.cycles as f64 / baseline_cycles.max(1) as f64;
            assert_eq!(row.time_overhead.to_bits(), expected.to_bits(), "{scheme}");
        }
    }
}
