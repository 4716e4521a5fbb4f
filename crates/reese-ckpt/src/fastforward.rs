//! Fast functional fast-forward: run the emulator to instruction
//! boundaries and emit [`Checkpoint`]s whose warm section carries the
//! caches, TLBs, and branch predictor as the detailed machine would
//! have left them.
//!
//! The fast-forward pass is purely functional — no pipeline, no
//! scheduling — so it costs one emulator step, one hierarchy access and
//! one predictor update per instruction. The warm structures run
//! continuously from instruction 0, so every checkpoint past 0 carries
//! the program's full warm history.

use crate::Checkpoint;
use reese_bpred::{BranchStats, BranchUnit};
use reese_cpu::{EmuError, Emulator, StepInfo};
use reese_isa::{OpKind, Opcode, Program, Reg};
use reese_mem::{CacheStats, MemHierarchy};
use reese_pipeline::{PipelineConfig, WarmState};

/// Runs the program functionally to its halt (or to `max_instructions`
/// committed), capturing a warm [`Checkpoint`] every `every`
/// instructions starting at 0. The sweep doubles as the campaign's
/// reference pass: the returned count is the program's dynamic length
/// under the same budget `Emulator::run` would apply, so no separate
/// reference emulation is needed.
///
/// The warm structures run continuously from instruction 0 and every
/// boundary past 0 snapshots their **full history**: replay-anchored
/// fault trials compare cycle-exact deltas against a clean replay from
/// the same state, so the restored caches, TLBs, and predictor must
/// carry everything the program has touched, not just the last
/// interval — a large L2 remembers lines from far before any bounded
/// window. No checkpoint is captured at the halt/budget point itself —
/// a suffix starting there would have nothing to run.
///
/// # Errors
///
/// Returns [`EmuError`] if the program leaves its text segment.
///
/// # Panics
///
/// Panics if `every` is 0.
pub fn checkpoint_stream(
    program: &Program,
    every: u64,
    pipeline: &PipelineConfig,
    max_instructions: u64,
) -> Result<(Vec<Checkpoint>, u64), EmuError> {
    let (out, stride, len) =
        checkpoint_stream_thinned(program, every, pipeline, max_instructions, usize::MAX)?;
    debug_assert_eq!(stride, every, "an unbounded stream never thins");
    Ok((out, len))
}

/// [`checkpoint_stream`] with a bounded resident set: whenever the
/// sweep would hold more than `max_resident` checkpoints it drops every
/// other one and doubles the capture stride, so an arbitrarily long
/// program costs a bounded number of captures (each capture clones the
/// touched pages plus the full cache/TLB/predictor tables — on long
/// programs that, not the emulation, dominates the sweep).
///
/// Returns the kept checkpoints (at instruction `i * stride` for
/// consecutive `i` from 0), the final stride (`every * 2^j` for some
/// `j >= 0`), and the dynamic length. Any finer-grained boundary can be
/// recovered afterwards with [`derive_checkpoint`] from the nearest
/// kept checkpoint at or below it.
///
/// # Errors
///
/// Returns [`EmuError`] if the program leaves its text segment.
///
/// # Panics
///
/// Panics if `every` is 0 or `max_resident < 2`.
pub fn checkpoint_stream_thinned(
    program: &Program,
    every: u64,
    pipeline: &PipelineConfig,
    max_instructions: u64,
    max_resident: usize,
) -> Result<(Vec<Checkpoint>, u64, u64), EmuError> {
    assert!(every > 0, "checkpoint interval must be at least 1");
    assert!(max_resident >= 2, "need at least two resident checkpoints");
    let mut emu = Emulator::new(program);
    let inst_size = program.inst_size();
    let mut out: Vec<Checkpoint> = Vec::new();
    let mut hierarchy = MemHierarchy::new(pipeline.hierarchy.clone());
    let mut branch = BranchUnit::new(pipeline.predictor.clone());
    let mut stride = every;
    let mut next_boundary = 0u64;
    loop {
        let executed = emu.instructions();
        if emu.exit_code().is_some() || executed >= max_instructions {
            break;
        }
        if executed == next_boundary {
            if out.len() == max_resident {
                // Thin: keep the even-indexed checkpoints (still a
                // consecutive grid under the doubled stride).
                let mut i = 0;
                out.retain(|_| {
                    i += 1;
                    (i - 1) % 2 == 0
                });
                stride *= 2;
            }
            // After a thin the current boundary may fall off the new
            // grid — it would have been a dropped odd slot.
            if executed.is_multiple_of(stride) {
                let warm = (executed > 0).then(|| {
                    scrubbed(WarmState {
                        hierarchy: hierarchy.export_state(),
                        branch: branch.export_state(),
                    })
                });
                out.push(Checkpoint::capture(&emu, warm));
            }
            next_boundary = (executed / stride + 1) * stride;
        }
        let info = emu.step()?;
        warm_step(&mut hierarchy, &mut branch, &info, inst_size);
    }
    Ok((out, stride, emu.instructions()))
}

/// Re-derives the continuous-warm checkpoint at `boundary` from an
/// earlier sweep checkpoint, bit-identical to what the sweep itself
/// would have captured there: the base carries the full
/// architectural-plus-warm history of instructions `0..base`, and the
/// snapshots are lossless, so continuing the same emulator and warm
/// structures reproduces the sweep's state exactly. This is how a
/// campaign recovers the handful of anchor boundaries its trials
/// actually use from a thinned (coarse-stride) sweep without paying a
/// capture at every fine boundary.
///
/// # Errors
///
/// Returns [`EmuError`] if the program leaves its text segment.
///
/// # Panics
///
/// Panics if `boundary` precedes the base checkpoint or lies beyond the
/// program's halt.
pub fn derive_checkpoint(
    program: &Program,
    base: &Checkpoint,
    boundary: u64,
    pipeline: &PipelineConfig,
) -> Result<Checkpoint, EmuError> {
    assert!(
        boundary >= base.instructions,
        "boundary {boundary} precedes the base checkpoint at {}",
        base.instructions
    );
    if boundary == base.instructions {
        return Ok(base.clone());
    }
    let mut emu = base.restore(program);
    let inst_size = program.inst_size();
    let mut hierarchy = MemHierarchy::new(pipeline.hierarchy.clone());
    let mut branch = BranchUnit::new(pipeline.predictor.clone());
    if let Some(w) = &base.warm {
        hierarchy.import_state(&w.hierarchy);
        branch.import_state(&w.branch);
    }
    while emu.instructions() < boundary {
        assert!(
            emu.exit_code().is_none(),
            "checkpoint boundary {boundary} lies beyond the program's halt"
        );
        let info = emu.step()?;
        warm_step(&mut hierarchy, &mut branch, &info, inst_size);
    }
    let warm = (boundary > 0).then(|| {
        scrubbed(WarmState {
            hierarchy: hierarchy.export_state(),
            branch: branch.export_state(),
        })
    });
    Ok(Checkpoint::capture(&emu, warm))
}

/// Captures the single continuous-warm checkpoint at `boundary`,
/// bit-identical to the one [`checkpoint_stream`] produces there: the
/// emulator and the warm structures run from instruction 0. This is the
/// from-scratch arm of the campaign trial oracle — it shares no state
/// with any cached sweep, so agreement between the two proves the
/// sweep's reuse machinery faithful.
///
/// # Errors
///
/// Returns [`EmuError`] if the program leaves its text segment.
///
/// # Panics
///
/// Panics if `boundary` lies beyond the program's halt.
pub fn warm_checkpoint_at(
    program: &Program,
    boundary: u64,
    pipeline: &PipelineConfig,
) -> Result<Checkpoint, EmuError> {
    let mut emu = Emulator::new(program);
    let inst_size = program.inst_size();
    let mut hierarchy = MemHierarchy::new(pipeline.hierarchy.clone());
    let mut branch = BranchUnit::new(pipeline.predictor.clone());
    while emu.instructions() < boundary {
        assert!(
            emu.exit_code().is_none(),
            "checkpoint boundary {boundary} lies beyond the program's halt"
        );
        let info = emu.step()?;
        warm_step(&mut hierarchy, &mut branch, &info, inst_size);
    }
    let warm = (boundary > 0).then(|| {
        scrubbed(WarmState {
            hierarchy: hierarchy.export_state(),
            branch: branch.export_state(),
        })
    });
    Ok(Checkpoint::capture(&emu, warm))
}

/// Drives the warm structures exactly as the detailed machine would for
/// one committed instruction: icache fetch, dcache access, and the
/// front end's predict-then-resolve sequence for control flow.
fn warm_step(
    hierarchy: &mut MemHierarchy,
    branch: &mut BranchUnit,
    info: &StepInfo,
    inst_size: u64,
) {
    hierarchy.access_inst(info.pc);
    if let Some(mem) = info.mem {
        hierarchy.access_data(mem.addr, mem.is_store);
    }
    let instr = &info.instr;
    match instr.op.kind() {
        OpKind::Branch => {
            let predicted = branch.predict_branch(info.pc);
            branch.resolve_branch(info.pc, predicted, info.taken);
        }
        OpKind::Jump => {
            if instr.op == Opcode::Jal {
                if instr.rd == Reg::RA {
                    branch.push_return(info.pc + inst_size);
                }
            } else {
                let is_return = instr.rd.is_zero() && instr.rs1 == Reg::RA;
                let predicted = if is_return {
                    branch.pop_return()
                } else {
                    branch.predict_indirect(info.pc)
                };
                if instr.rd == Reg::RA {
                    branch.push_return(info.pc + inst_size);
                }
                branch.resolve_indirect(info.pc, predicted, info.next_pc);
            }
        }
        _ => {}
    }
}

/// Zeroes the statistics carried inside a warm snapshot, keeping the
/// tactical state (lines, LRU ticks, counters, stacks). A restored run
/// then reports only the accesses it performs itself.
fn scrubbed(mut warm: WarmState) -> WarmState {
    warm.hierarchy.l1i.stats = CacheStats::default();
    warm.hierarchy.l1d.stats = CacheStats::default();
    warm.hierarchy.l2.stats = CacheStats::default();
    for tlb in [&mut warm.hierarchy.itlb, &mut warm.hierarchy.dtlb] {
        tlb.hits = 0;
        tlb.misses = 0;
    }
    warm.hierarchy.prefetches_issued = 0;
    warm.branch.stats = BranchStats::default();
    warm
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::assemble;

    const PROG: &str = "  li s0, 60\n  la a0, buf\nloop: andi t0, s0, 31\n  slli t1, t0, 3\n  \
                        add t2, a0, t1\n  sd s0, 0(t2)\n  ld t3, 0(t2)\n  addi s0, s0, -1\n  \
                        bnez s0, loop\n  halt\n  .data\nbuf: .space 256\n";

    /// Instruction boundaries at 0, 1/k, 2/k, ... of the program's
    /// dynamic length.
    fn spread(prog: &Program, k: u64) -> Vec<u64> {
        let n = Emulator::new(prog).run(u64::MAX).unwrap().instructions;
        (0..k).map(|i| i * n / k).collect()
    }

    #[test]
    fn checkpoints_land_on_their_boundaries() {
        let prog = assemble(PROG).unwrap();
        for b in spread(&prog, 4) {
            let ck = warm_checkpoint_at(&prog, b, &PipelineConfig::starting()).unwrap();
            assert_eq!(ck.instructions, b);
            assert_eq!(ck.warm.is_none(), b == 0, "only boundary 0 is cold");
        }
    }

    #[test]
    fn restored_checkpoint_continues_bit_identically() {
        let prog = assemble(PROG).unwrap();
        let reference = Emulator::new(&prog).run(u64::MAX).unwrap();
        for b in spread(&prog, 3) {
            let ck = warm_checkpoint_at(&prog, b, &PipelineConfig::starting()).unwrap();
            let mut emu = ck.restore(&prog);
            let done = emu.run(u64::MAX).unwrap();
            assert_eq!(done.instructions, reference.instructions);
            assert_eq!(done.state_digest, reference.state_digest);
            assert_eq!(emu.output(), reference.output);
        }
    }

    #[test]
    fn warmup_attaches_scrubbed_state_to_later_boundaries() {
        let prog = assemble(PROG).unwrap();
        let bs = spread(&prog, 3);
        let cks: Vec<Checkpoint> = bs
            .iter()
            .map(|&b| warm_checkpoint_at(&prog, b, &PipelineConfig::starting()).unwrap())
            .collect();
        // Boundary 0 has an empty history; later boundaries carry state.
        assert!(cks[0].warm.is_none());
        for ck in &cks[1..] {
            let warm = ck.warm.as_ref().expect("warm state present");
            assert!(
                warm.hierarchy.l1d.lines.iter().any(|l| l.valid),
                "warm-up must have touched the data cache"
            );
            assert_eq!(warm.hierarchy.l1d.stats, CacheStats::default());
            assert_eq!(warm.branch.stats, BranchStats::default());
            assert!(
                warm.branch.dir_words.iter().any(|&w| w != 0),
                "warm-up must have trained the direction predictor"
            );
        }
    }

    #[test]
    fn stream_lands_on_its_grid_and_resumes_exactly() {
        let prog = assemble(PROG).unwrap();
        let n = Emulator::new(&prog).run(u64::MAX).unwrap().instructions;
        let every = 64;
        let (stream, len) =
            checkpoint_stream(&prog, every, &PipelineConfig::starting(), u64::MAX).unwrap();
        assert_eq!(len, n, "the sweep doubles as the reference pass");
        let expected: Vec<u64> = (0..n).step_by(every as usize).collect();
        let got: Vec<u64> = stream.iter().map(|c| c.instructions).collect();
        assert_eq!(got, expected);
        // Continuous warm-up carries full history: a restored stream
        // checkpoint finishes the program bit-identically.
        let reference = Emulator::new(&prog).run(u64::MAX).unwrap();
        for ck in &stream {
            let mut emu = ck.restore(&prog);
            let done = emu.run(u64::MAX).unwrap();
            assert_eq!(done.state_digest, reference.state_digest);
        }
    }

    #[test]
    fn single_boundary_capture_equals_stream_checkpoint() {
        // The campaign oracle depends on this identity: the Full arm's
        // per-trial from-scratch capture must equal the Replay arm's
        // swept checkpoint at the same boundary, warm state included.
        let prog = assemble(PROG).unwrap();
        let (stream, _) =
            checkpoint_stream(&prog, 96, &PipelineConfig::starting(), u64::MAX).unwrap();
        assert!(stream.len() > 2, "need several boundaries");
        for ck in &stream {
            let single =
                warm_checkpoint_at(&prog, ck.instructions, &PipelineConfig::starting()).unwrap();
            assert_eq!(&single, ck, "boundary {}", ck.instructions);
        }
    }

    #[test]
    fn thinned_stream_is_a_strided_subset_of_the_plain_stream() {
        let prog = assemble(PROG).unwrap();
        let every = 16;
        let (plain, _) =
            checkpoint_stream(&prog, every, &PipelineConfig::starting(), u64::MAX).unwrap();
        assert!(plain.len() > 8, "need enough boundaries to force thinning");
        let (thinned, stride, len) =
            checkpoint_stream_thinned(&prog, every, &PipelineConfig::starting(), u64::MAX, 4)
                .unwrap();
        assert!(thinned.len() <= 4);
        assert!(stride > every, "thinning must have engaged");
        assert_eq!(stride % every, 0, "stride doubles from the base interval");
        let n = Emulator::new(&prog).run(u64::MAX).unwrap().instructions;
        assert_eq!(len, n, "the thinned sweep still measures the length");
        let factor = (stride / every) as usize;
        for (i, ck) in thinned.iter().enumerate() {
            assert_eq!(ck.instructions, i as u64 * stride, "consecutive grid");
            assert_eq!(ck, &plain[i * factor], "boundary {}", ck.instructions);
        }
    }

    #[test]
    fn derived_checkpoint_matches_continuous_sweep() {
        // The linchpin of thinned-sweep replay: restoring an earlier
        // sweep checkpoint and warm-stepping forward must reproduce the
        // sweep's own checkpoint at the target boundary, bit for bit.
        let prog = assemble(PROG).unwrap();
        let (stream, _) =
            checkpoint_stream(&prog, 48, &PipelineConfig::starting(), u64::MAX).unwrap();
        assert!(stream.len() > 3, "need several boundaries");
        for (i, base) in stream.iter().enumerate() {
            for target in &stream[i..] {
                let derived = derive_checkpoint(
                    &prog,
                    base,
                    target.instructions,
                    &PipelineConfig::starting(),
                )
                .unwrap();
                assert_eq!(
                    &derived, target,
                    "derive {} -> {}",
                    base.instructions, target.instructions
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "precedes the base checkpoint")]
    fn deriving_backwards_panics() {
        let prog = assemble(PROG).unwrap();
        let (stream, _) =
            checkpoint_stream(&prog, 48, &PipelineConfig::starting(), u64::MAX).unwrap();
        let _ = derive_checkpoint(&prog, &stream[1], 0, &PipelineConfig::starting());
    }

    #[test]
    #[should_panic(expected = "beyond the program's halt")]
    fn single_boundary_capture_past_halt_panics() {
        let prog = assemble("  halt\n").unwrap();
        let _ = warm_checkpoint_at(&prog, 100, &PipelineConfig::starting());
    }

    #[test]
    fn stream_respects_instruction_budget() {
        let prog = assemble(PROG).unwrap();
        let (stream, len) = checkpoint_stream(&prog, 32, &PipelineConfig::starting(), 100).unwrap();
        assert_eq!(len, 100);
        assert!(stream.iter().all(|c| c.instructions < 100));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_stream_interval_panics() {
        let prog = assemble("  halt\n").unwrap();
        let _ = checkpoint_stream(&prog, 0, &PipelineConfig::starting(), u64::MAX);
    }
}
