//! The checkpoint-exactness oracle.
//!
//! A checkpoint taken mid-run and shipped through the wire format must
//! resume bit-identically: on every native kernel and every rv32i port,
//! each interior checkpoint of a `checkpoint_stream` sweep is encoded,
//! decoded under its scheme and ISA stamps, restored, and run to halt.
//! The instruction count, final architectural state and program output
//! must equal the uninterrupted `Emulator` run, on the functional core
//! and on every hardware timing machine. From instruction 0, a restored
//! timed run must also take exactly the cycles of a run from the
//! program itself.

use reese::ckpt::{checkpoint_stream, Checkpoint, Scheme};
use reese::core::{DuplexSim, ReeseConfig, ReeseSim};
use reese::cpu::Emulator;
use reese::isa::Program;
use reese::pipeline::{PipelineConfig, PipelineSim, RunSpec};
use reese::trace::NoopObserver;
use reese::workloads::rv32::Rv32Kernel;
use reese::workloads::Kernel;

/// Native kernel length: long enough to span several memory pages and
/// train the predictors, short enough for a debug-build test.
const NATIVE_INSTRUCTIONS: u64 = 3_000;

/// The schemes with a hardware timing machine of their own.
const TIMED: [Scheme; 3] = [Scheme::Baseline, Scheme::Reese, Scheme::Duplex];

fn programs() -> Vec<(String, Program)> {
    let native = Kernel::ALL.map(|k| (k.name().to_string(), k.build_for(NATIVE_INSTRUCTIONS)));
    let rv32 = Rv32Kernel::ALL.map(|k| (format!("rv32i/{}", k.name()), k.build(1)));
    native.into_iter().chain(rv32).collect()
}

/// What a detailed run reports that the oracle checks.
#[derive(Debug, PartialEq)]
struct Timed {
    committed: u64,
    cycles: u64,
    state_digest: u64,
    output: Vec<i64>,
}

fn spec<'a, F: Default>(
    program: &'a Program,
    from: Option<&'a Checkpoint>,
) -> RunSpec<'a, NoopObserver, F> {
    match from {
        Some(ck) => RunSpec::restored(ck.restore(program), ck.warm.as_ref()),
        None => RunSpec::program(program),
    }
}

/// Runs `program` to halt on `scheme`'s timing machine, from its first
/// instruction or from a restored checkpoint.
fn timed(scheme: Scheme, program: &Program, from: Option<&Checkpoint>) -> Timed {
    let config = ReeseConfig::starting();
    let r = match scheme {
        Scheme::Baseline => {
            let r = PipelineSim::new(config.pipeline)
                .run_spec(spec(program, from))
                .unwrap();
            return Timed {
                committed: r.committed_instructions(),
                cycles: r.cycles(),
                state_digest: r.state_digest,
                output: r.output,
            };
        }
        Scheme::Reese => ReeseSim::new(config).run_spec(spec(program, from)),
        Scheme::Duplex => DuplexSim::new(config.pipeline).run_spec(spec(program, from)),
        Scheme::Meek | Scheme::Swift => unreachable!("no timing machine of its own"),
    }
    .unwrap();
    Timed {
        committed: r.committed_instructions(),
        cycles: r.cycles(),
        state_digest: r.state_digest,
        output: r.output,
    }
}

#[test]
fn wire_restored_checkpoints_finish_every_kernel_exactly() {
    for (name, program) in programs() {
        let reference = Emulator::new(&program).run(u64::MAX).unwrap();
        assert!(reference.halted(), "{name}");
        let total = reference.instructions;
        let (stream, len) =
            checkpoint_stream(&program, total / 4, &PipelineConfig::starting(), u64::MAX).unwrap();
        assert_eq!(len, total, "{name}: the sweep measures the run");
        let interior: Vec<&Checkpoint> = stream.iter().filter(|c| c.instructions > 0).collect();
        assert!(interior.len() >= 3, "{name}: several interior boundaries");

        for ck in interior {
            let at = ck.instructions;
            for scheme in TIMED {
                let bytes = ck.clone().with_scheme(scheme).encode();
                let ck = Checkpoint::decode_for(&bytes, scheme, program.isa())
                    .unwrap_or_else(|e| panic!("{name} @{at} {scheme}: {e}"));

                let mut emu = ck.restore(&program);
                let done = emu.run(u64::MAX).unwrap();
                assert_eq!(done.instructions, total, "{name} @{at}: instructions");
                assert_eq!(
                    done.state_digest, reference.state_digest,
                    "{name} @{at}: final state"
                );
                assert_eq!(emu.output(), reference.output, "{name} @{at}: output");

                // A timed run commits only the suffix, and prints only
                // what the suffix prints.
                let run = timed(scheme, &program, Some(&ck));
                assert_eq!(run.committed, total - at, "{name} @{at} {scheme}");
                assert_eq!(
                    run.state_digest, reference.state_digest,
                    "{name} @{at} {scheme}: final state"
                );
                assert_eq!(
                    run.output,
                    reference.output[ck.output.len()..],
                    "{name} @{at} {scheme}: output"
                );
            }
        }
    }
}

#[test]
fn restoring_at_instruction_zero_keeps_timing_exact() {
    for (name, program) in programs() {
        let (stream, _) =
            checkpoint_stream(&program, u64::MAX, &PipelineConfig::starting(), u64::MAX).unwrap();
        let start = &stream[0];
        assert_eq!(start.instructions, 0);
        assert!(start.warm.is_none(), "{name}: instruction 0 is cold");
        for scheme in TIMED {
            let bytes = start.clone().with_scheme(scheme).encode();
            let start = Checkpoint::decode_for(&bytes, scheme, program.isa()).unwrap();
            assert_eq!(
                timed(scheme, &program, Some(&start)),
                timed(scheme, &program, None),
                "{name} {scheme}: a restored run from instruction 0 is the run"
            );
        }
    }
}
