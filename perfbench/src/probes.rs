//! Layer probes of the traced run: each times calls into one library
//! layer from outside, under a span named after the call, on inputs
//! fixed by the set-up and the seed.

use crate::spans::Recorder;
use crate::stats::{fnv1a64, median, percentile};
use crate::workloads::{grid_machines, Inputs, GRID_INSNS};
use reese_bpred::BranchUnit;
use reese_ckpt::{
    checkpoint_stream, checkpoint_stream_thinned, derive_checkpoint, Checkpoint, Scheme,
};
use reese_core::{DuplexSim, ReeseConfig, ReeseSim};
use reese_cpu::Emulator;
use reese_faults::{schemes, FaultMix, Trial, WindowBaseline, DEFAULT_CKPT_EVERY};
use reese_isa::{OpKind, Program};
use reese_mem::MemHierarchy;
use reese_pipeline::{PipelineConfig, PipelineSim};
use reese_stats::SplitMix64;
use std::time::{Duration, Instant};

/// Repetitions of each timed probe; the median is reported.
const REPS: usize = 5;
/// Repetitions of the (longer) timing-machine probes.
const TIMING_REPS: usize = 3;
/// Fault keys drawn per (scheme, kernel) for the window and trial
/// probes.
const KEYS: usize = 8;
/// The campaign's resident-checkpoint cap for its reference sweep.
const MAX_RESIDENT: usize = 96;
/// The campaign's window shape: instructions simulated before the fault
/// (runway) and after it (margin).
const RUNWAY: u64 = 512;
const MARGIN: u64 = 512;

/// Named probe results, in report order.
pub type Metrics = Vec<(String, f64)>;

/// Runs `f` under a span and returns its result and host time.
fn timed<T>(rec: &mut Recorder, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
    let span = rec.enter(name);
    let t = Instant::now();
    let out = f();
    let d = t.elapsed();
    rec.exit(span);
    (out, d)
}

/// Runs every probe.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn run_all(inputs: &Inputs, seed: u64, rec: &mut Recorder) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    rec.time("probe.cpu", |rec| cpu(inputs, rec, &mut m))?;
    rec.time("probe.mem_bpred", |rec| mem_bpred(inputs, rec, &mut m))?;
    rec.time("probe.timing", |rec| timing(inputs, rec, &mut m))?;
    rec.time("probe.ckpt", |rec| ckpt(inputs, rec, &mut m))?;
    rec.time("probe.schemes", |rec| {
        scheme_windows(inputs, seed, rec, &mut m)
    })?;
    Ok(m)
}

/// Programs the single-layer probes replay: the calibrated grid, each
/// for its first [`GRID_INSNS`] instructions like a grid cell.
fn grid_programs(inputs: &Inputs) -> impl Iterator<Item = &Program> {
    inputs.grid.iter().chain(&inputs.rv32).map(|(_, p)| p)
}

/// `Emulator::run` on every grid kernel and on lisp×40.
fn cpu(inputs: &Inputs, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
    let mut rates = Vec::new();
    for _ in 0..REPS {
        let (mut insts, mut time) = (0u64, Duration::ZERO);
        for p in grid_programs(inputs).chain([&inputs.long]) {
            let (r, d) = timed(rec, "cpu.Emulator::run", || Emulator::new(p).run(u64::MAX));
            insts += r.map_err(|e| e.to_string())?.instructions;
            time += d;
        }
        rates.push(insts as f64 / time.as_secs_f64() / 1e6);
    }
    m.push(("cpu.emulator_minst_per_s".into(), median(&rates)));
    Ok(())
}

/// Replays each grid kernel's data-access stream through a cold
/// `MemHierarchy::access_data`, and its conditional-branch stream
/// through `predict_branch`/`resolve_branch` of a fresh predictor.
fn mem_bpred(inputs: &Inputs, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
    let cfg = PipelineConfig::starting();
    let mut accesses: Vec<Vec<(u64, bool)>> = Vec::new();
    let mut branches: Vec<Vec<(u64, bool)>> = Vec::new();
    for p in grid_programs(inputs) {
        let (mut acc, mut br) = (Vec::new(), Vec::new());
        let mut emu = Emulator::new(p);
        while emu.exit_code().is_none() && emu.instructions() < GRID_INSNS {
            let info = emu.step().map_err(|e| e.to_string())?;
            if let Some(a) = info.mem {
                acc.push((a.addr, a.is_store));
            }
            if info.instr.op.kind() == OpKind::Branch {
                br.push((info.pc, info.taken));
            }
        }
        accesses.push(acc);
        branches.push(br);
    }

    let (mut ns, mut l1d, mut l2) = (Vec::new(), (0, 0), (0, 0));
    for rep in 0..REPS {
        let mut time = Duration::ZERO;
        for stream in &accesses {
            let mut h = MemHierarchy::new(cfg.hierarchy.clone());
            let (sum, d) = timed(rec, "mem.MemHierarchy::access_data", || {
                stream
                    .iter()
                    .map(|&(a, w)| u64::from(h.access_data(a, w)))
                    .sum::<u64>()
            });
            std::hint::black_box(sum);
            time += d;
            if rep == 0 {
                let s = h.stats();
                l1d = (l1d.0 + s.l1d.misses, l1d.1 + s.l1d.accesses);
                l2 = (l2.0 + s.l2.misses, l2.1 + s.l2.accesses);
            }
        }
        let n: usize = accesses.iter().map(Vec::len).sum();
        ns.push(time.as_secs_f64() * 1e9 / n.max(1) as f64);
    }
    m.push(("mem.access_ns".into(), median(&ns)));
    m.push((
        "mem.l1d_miss_frac".into(),
        l1d.0 as f64 / l1d.1.max(1) as f64,
    ));
    m.push(("mem.l2_miss_frac".into(), l2.0 as f64 / l2.1.max(1) as f64));

    let (mut ns, mut wrong, mut total) = (Vec::new(), 0u64, 0u64);
    for rep in 0..REPS {
        let mut time = Duration::ZERO;
        for stream in &branches {
            let mut unit = BranchUnit::new(cfg.predictor.clone());
            let (missed, d) = timed(rec, "bpred.BranchUnit::predict_resolve", || {
                let mut missed = 0u64;
                for &(pc, taken) in stream {
                    let predicted = unit.predict_branch(pc);
                    unit.resolve_branch(pc, predicted, taken);
                    missed += u64::from(predicted != taken);
                }
                missed
            });
            time += d;
            if rep == 0 {
                wrong += missed;
                total += stream.len() as u64;
            }
        }
        ns.push(time.as_secs_f64() * 1e9 / total.max(1) as f64);
    }
    m.push(("bpred.lookup_ns".into(), median(&ns)));
    m.push((
        "bpred.mispredict_frac".into(),
        wrong as f64 / total.max(1) as f64,
    ));
    Ok(())
}

/// `run_limit` of the three timing machines over the grid kernels on
/// the starting machine and on the RUU=256 machine.
fn timing(inputs: &Inputs, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
    let machines = grid_machines();
    let starting = &machines[0].1;
    let ruu256 = &machines[4].1;
    let (mut r_issued, mut r_tried) = (0u64, 0u64);
    for (label, cfg) in [("starting", starting), ("ruu256", ruu256)] {
        let (mut pipe, mut core) = (Vec::new(), Vec::new());
        for rep in 0..TIMING_REPS {
            let (mut pc, mut pt, mut rc, mut rt) = (0u64, Duration::ZERO, 0u64, Duration::ZERO);
            for p in grid_programs(inputs) {
                let (r, d) = timed(rec, "pipeline.PipelineSim::run_limit", || {
                    PipelineSim::new(cfg.clone()).run_limit(p, GRID_INSNS)
                });
                let s = r.map_err(|e| e.to_string())?.stats;
                pc += s.cycles;
                pt += d;
                let (r, d) = timed(rec, "core.ReeseSim::run_limit", || {
                    ReeseSim::new(ReeseConfig::over(cfg.clone())).run_limit(p, GRID_INSNS)
                });
                let s = r.map_err(|e| e.to_string())?.stats;
                rc += s.pipeline.cycles;
                rt += d;
                if rep == 0 && label == "starting" {
                    r_issued += s.r_issued;
                    r_tried += s.r_tried;
                }
            }
            pipe.push(pc as f64 / pt.as_secs_f64() / 1e6);
            core.push(rc as f64 / rt.as_secs_f64() / 1e6);
        }
        m.push((format!("pipeline.mcycles_per_s.{label}"), median(&pipe)));
        m.push((format!("core.reese_mcycles_per_s.{label}"), median(&core)));
    }
    // The baseline's dispatch stalls, counted on the starting machine.
    let (mut ruu_full, mut lsq_full, mut cycles) = (0u64, 0u64, 0u64);
    for p in grid_programs(inputs) {
        let s = PipelineSim::new(starting.clone())
            .run_limit(p, GRID_INSNS)
            .map_err(|e| e.to_string())?
            .stats;
        ruu_full += s.dispatch_stall_ruu_full;
        lsq_full += s.dispatch_stall_lsq_full;
        cycles += s.cycles;
    }
    m.push((
        "pipeline.ruu_full_per_kcycle".into(),
        ruu_full as f64 * 1e3 / cycles.max(1) as f64,
    ));
    m.push((
        "pipeline.lsq_full_per_kcycle".into(),
        lsq_full as f64 * 1e3 / cycles.max(1) as f64,
    ));
    m.push((
        "core.r_issue_useful_frac".into(),
        r_issued as f64 / r_tried.max(1) as f64,
    ));

    let mut duplex = Vec::new();
    for _ in 0..TIMING_REPS {
        let (mut c, mut t) = (0u64, Duration::ZERO);
        for p in grid_programs(inputs) {
            let (r, d) = timed(rec, "core.DuplexSim::run_limit", || {
                DuplexSim::new(starting.clone()).run_limit(p, GRID_INSNS)
            });
            c += r.map_err(|e| e.to_string())?.stats.pipeline.cycles;
            t += d;
        }
        duplex.push(c as f64 / t.as_secs_f64() / 1e6);
    }
    m.push(("core.duplex_mcycles_per_s".into(), median(&duplex)));
    Ok(())
}

/// The checkpoint layer on lisp×40: the campaign's thinned reference
/// sweep, and capture, restore and derive of its checkpoints.
fn ckpt(inputs: &Inputs, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
    let p = &inputs.long;
    let pipeline = PipelineConfig::starting();
    let every = DEFAULT_CKPT_EVERY;
    let mut sweep_ms = Vec::new();
    let mut sweep = None;
    for _ in 0..2 {
        let (r, d) = timed(rec, "ckpt.checkpoint_stream_thinned", || {
            checkpoint_stream_thinned(p, every, &pipeline, u64::MAX, MAX_RESIDENT)
        });
        sweep = Some(r.map_err(|e| e.to_string())?);
        sweep_ms.push(d.as_secs_f64() * 1e3);
    }
    let (coarse, stride, _) = sweep.expect("the sweep ran");
    m.push(("ckpt.sweep_ms".into(), median(&sweep_ms)));

    let restore_us: Vec<f64> = coarse
        .iter()
        .map(|ck| {
            let (emu, d) = timed(rec, "ckpt.Checkpoint::restore", || ck.restore(p));
            std::hint::black_box(emu);
            d.as_secs_f64() * 1e6
        })
        .collect();
    let mid = &coarse[coarse.len() / 2];
    let emu = mid.restore(p);
    let capture_us: Vec<f64> = (0..20)
        .map(|_| {
            let (ck, d) = timed(rec, "ckpt.Checkpoint::capture", || {
                Checkpoint::capture(&emu, mid.warm.clone())
            });
            std::hint::black_box(ck);
            d.as_secs_f64() * 1e6
        })
        .collect();
    // A campaign derives anchors between coarse checkpoints; the middle
    // of a stride is the average distance.
    let mut derive_ms = Vec::new();
    for base in coarse.iter().step_by(coarse.len().div_ceil(8).max(1)) {
        let boundary = base.instructions + (stride / every / 2) * every;
        let (r, d) = timed(rec, "ckpt.derive_checkpoint", || {
            derive_checkpoint(p, base, boundary, &pipeline)
        });
        std::hint::black_box(r.map_err(|e| e.to_string())?);
        derive_ms.push(d.as_secs_f64() * 1e3);
    }
    let bytes: usize = coarse.iter().map(|ck| ck.encode().len()).sum();
    m.push(("ckpt.capture_us".into(), median(&capture_us)));
    m.push(("ckpt.derive_ms".into(), median(&derive_ms)));
    m.push(("ckpt.restore_us".into(), median(&restore_us)));
    m.push(("ckpt.bytes".into(), bytes as f64));
    Ok(())
}

/// `DetectionScheme::run_window` and `run_trial` of every scheme over
/// anchored windows of the default-size kernels, at fault keys drawn
/// from the seed the way a campaign draws them.
fn scheme_windows(
    inputs: &Inputs,
    seed: u64,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Result<(), String> {
    let config = ReeseConfig::starting();
    let mix = FaultMix::result_errors_only();
    let every = DEFAULT_CKPT_EVERY;
    for scheme in Scheme::ALL {
        let backend = schemes::build(scheme, &config);
        let (mut window_ms, mut trial_us) = (Vec::new(), Vec::new());
        for (ki, (_, program)) in inputs.suite.iter().enumerate() {
            let prepared = backend.prepare(program)?;
            let (cks, len) = checkpoint_stream(&prepared, every, &config.pipeline, u64::MAX)
                .map_err(|e| e.to_string())?;
            let mut rng = SplitMix64::new(seed ^ ((u64::from(scheme.id()) << 32) | ki as u64));
            for _ in 0..KEYS {
                let class = mix.sample(rng.next_u64());
                let seq = rng.range_u64(0, len);
                let bit = (rng.next_u64() & 63) as u8;
                let anchor_idx = (seq.saturating_sub(RUNWAY) / every).min(cks.len() as u64 - 1);
                let anchor = anchor_idx * every;
                let stop = (seq + MARGIN) / every + 1;
                let budget = if stop < cks.len() as u64 {
                    stop * every - anchor
                } else {
                    len - anchor + every
                };
                let ck = &cks[anchor_idx as usize];
                let (r, d) = timed(rec, "faults.DetectionScheme::run_window", || {
                    backend.run_window(&prepared, ck, budget)
                });
                let r = r?;
                window_ms.push(d.as_secs_f64() * 1e3);
                if !class.detectable_by_design() {
                    continue;
                }
                let out: Vec<u8> = r.output.iter().flat_map(|v| v.to_le_bytes()).collect();
                let baseline = WindowBaseline {
                    cycles: r.cycles,
                    digest: r.state_digest,
                    output_fnv: fnv1a64(&out),
                    halted: r.exit_code.is_some(),
                };
                let (o, d) = timed(rec, "faults.DetectionScheme::run_trial", || {
                    backend.run_trial(Trial {
                        program: &prepared,
                        ck,
                        baseline: &baseline,
                        class,
                        seq,
                        bit,
                        budget,
                        tracer: None,
                        probe: None,
                    })
                });
                std::hint::black_box(o?);
                trial_us.push(d.as_secs_f64() * 1e6);
            }
        }
        for (q, tag) in [(0.5, "p50"), (0.9, "p90")] {
            m.push((
                format!("faults.run_window_ms.{}.{tag}", scheme.name()),
                percentile(&window_ms, q),
            ));
        }
        for (q, tag) in [(0.5, "p50"), (0.9, "p90")] {
            m.push((
                format!("faults.run_trial_us.{}.{tag}", scheme.name()),
                percentile(&trial_us, q),
            ));
        }
    }
    Ok(())
}
