//! Property-style snapshot round-trip tests over the whole kernel
//! catalogue, seeded with SplitMix64 so every run exercises the same
//! deterministic cases.
//!
//! The invariant under test is the tentpole guarantee of the checkpoint
//! subsystem: snapshot mid-kernel, serialize, deserialize, restore into
//! a fresh simulator, and the continuation is bit-identical to the
//! uninterrupted run — for every kernel, at arbitrary boundaries.

use reese_ckpt::{warm_checkpoint_at, Checkpoint, CkptError};
use reese_cpu::Emulator;
use reese_pipeline::{PipelineConfig, SchedulerMode};
use reese_stats::SplitMix64;
use reese_workloads::Kernel;

/// Kernel instances small enough that six of them round-trip in a unit
/// test, large enough to touch several memory pages and train the
/// predictors.
const KERNEL_INSTRUCTIONS: u64 = 8_000;

#[test]
fn every_kernel_round_trips_through_a_mid_run_snapshot() {
    let mut rng = SplitMix64::new(0x5EED_C0DE);
    for kernel in Kernel::ALL {
        let prog = kernel.build_for(KERNEL_INSTRUCTIONS);
        let reference = Emulator::new(&prog).run(u64::MAX).unwrap();
        let n = reference.instructions;

        // Three random interior boundaries per kernel.
        for _ in 0..3 {
            let boundary = rng.range_u64(1, n);
            let ck = warm_checkpoint_at(&prog, boundary, &PipelineConfig::starting())
                .unwrap_or_else(|e| panic!("{}: fast-forward failed: {e}", kernel.name()));
            let bytes = ck.encode();
            let decoded = Checkpoint::decode(&bytes)
                .unwrap_or_else(|e| panic!("{}: decode failed: {e}", kernel.name()));
            assert_eq!(decoded, ck, "{}: serialization round trip", kernel.name());
            assert_eq!(decoded.instructions, boundary);

            let mut resumed = decoded.restore(&prog);
            let done = resumed.run(u64::MAX).unwrap();
            assert_eq!(done.instructions, n, "{}: instruction count", kernel.name());
            assert_eq!(
                done.state_digest,
                reference.state_digest,
                "{}: architectural state",
                kernel.name()
            );
            assert_eq!(
                resumed.output(),
                reference.output,
                "{}: output",
                kernel.name()
            );
        }
    }
}

#[test]
fn warm_snapshots_do_not_depend_on_the_scheduler_mode_on_every_kernel() {
    // The fast-forward warms caches and predictor from the pipeline
    // config, which also names the scheduler: the SoA `InstArena` under
    // `EventDriven`, the original AoS deque under `Scan`. A checkpoint
    // is a function of architectural and warm state only — both configs
    // must emit byte-identical current-version frames, and a restore
    // from the event-config frame must finish the run bit-identically.
    let mut rng = SplitMix64::new(0xA2E7A);
    for kernel in Kernel::ALL {
        let prog = kernel.build_for(KERNEL_INSTRUCTIONS);
        let reference = Emulator::new(&prog).run(u64::MAX).unwrap();
        let boundary = rng.range_u64(1, reference.instructions);

        let event_cfg = PipelineConfig::starting().with_scheduler(SchedulerMode::EventDriven);
        let scan_cfg = PipelineConfig::starting().with_scheduler(SchedulerMode::Scan);
        let from_event = warm_checkpoint_at(&prog, boundary, &event_cfg).unwrap();
        let from_scan = warm_checkpoint_at(&prog, boundary, &scan_cfg).unwrap();
        let bytes = from_event.encode();
        assert_eq!(
            bytes,
            from_scan.encode(),
            "{}: frame must not depend on the scheduler's window layout",
            kernel.name()
        );
        assert_eq!(
            u16::from_le_bytes([bytes[4], bytes[5]]),
            reese_ckpt::VERSION,
            "{}: frames carry the bumped wire version",
            kernel.name()
        );

        let decoded = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(decoded, from_event, "{}: round trip", kernel.name());
        let mut resumed = decoded.restore(&prog);
        let done = resumed.run(u64::MAX).unwrap();
        assert_eq!(
            (done.instructions, done.state_digest),
            (reference.instructions, reference.state_digest),
            "{}: event-config frame resumes bit-identically",
            kernel.name()
        );
        assert_eq!(resumed.output(), reference.output, "{}", kernel.name());
    }
}

#[test]
fn seeded_corruption_is_always_detected() {
    let prog = Kernel::Lisp.build_for(KERNEL_INSTRUCTIONS);
    let ck =
        warm_checkpoint_at(&prog, KERNEL_INSTRUCTIONS / 2, &PipelineConfig::starting()).unwrap();
    let good = ck.encode();
    assert!(Checkpoint::decode(&good).is_ok());

    let mut rng = SplitMix64::new(0xBAD_CAFE);
    for trial in 0..200 {
        let mut corrupted = good.clone();
        let pos = rng.index(corrupted.len());
        let bit = rng.range_u64(0, 8) as u8;
        corrupted[pos] ^= 1 << bit;
        let err = Checkpoint::decode(&corrupted).expect_err(&format!(
            "trial {trial}: flip at byte {pos} bit {bit} must be caught"
        ));
        // A single bit flip is always within CRC-32's guarantee, unless
        // it lands in the magic or version fields, which are checked
        // first.
        assert!(
            matches!(
                err,
                CkptError::BadCrc { .. } | CkptError::BadMagic | CkptError::UnsupportedVersion(_)
            ),
            "trial {trial}: unexpected error {err:?}"
        );
    }
}

#[test]
fn seeded_truncation_never_panics() {
    let prog = Kernel::Strings.build_for(KERNEL_INSTRUCTIONS);
    let ck =
        warm_checkpoint_at(&prog, KERNEL_INSTRUCTIONS / 3, &PipelineConfig::starting()).unwrap();
    let good = ck.encode();
    let mut rng = SplitMix64::new(0x73_15C47E);
    for _ in 0..100 {
        let cut = rng.index(good.len());
        assert!(Checkpoint::decode(&good[..cut]).is_err());
    }
}
