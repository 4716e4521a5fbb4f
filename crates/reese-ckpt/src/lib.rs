//! Checkpoint/replay for the REESE simulator: full simulator state as a
//! first-class serializable artifact, and the functional fast-forward
//! that captures it for checkpoint-anchored fault campaigns.
//!
//! Two layers:
//!
//! - [`Checkpoint`]: a versioned binary snapshot (magic header, CRC-32
//!   trailer, hand-rolled little-endian layout) of the full functional
//!   machine state — architectural registers, PC, the touched memory
//!   pages, printed output, instruction count — plus an optional warm
//!   section carrying cache, TLB, and branch-predictor state.
//! - The fast-forward: [`checkpoint_stream`] (and its bounded-memory
//!   [`checkpoint_stream_thinned`]) runs the program functionally once,
//!   capturing a warm checkpoint every K instructions;
//!   [`derive_checkpoint`] recovers any finer boundary from an earlier
//!   one; [`warm_checkpoint_at`] captures a single boundary from
//!   scratch, the oracle the other two must match bit for bit.
//!
//! # Example
//!
//! ```
//! use reese_ckpt::{checkpoint_stream, Checkpoint, Scheme};
//! use reese_cpu::Emulator;
//! use reese_pipeline::PipelineConfig;
//!
//! let prog = reese_isa::assemble(
//!     "  li t0, 200\nloop: addi t0, t0, -1\n  print t0\n  bnez t0, loop\n  halt\n",
//! )?;
//! let reference = Emulator::new(&prog).run(u64::MAX)?;
//! let (ckpts, len) = checkpoint_stream(&prog, 100, &PipelineConfig::starting(), u64::MAX)?;
//! assert_eq!(len, reference.instructions);
//!
//! // Ship a mid-run checkpoint through the wire format and finish the run.
//! let bytes = ckpts[3].clone().with_scheme(Scheme::Reese).encode();
//! let ck = Checkpoint::decode_for(&bytes, Scheme::Reese, prog.isa())?;
//! let mut resumed = ck.restore(&prog);
//! let done = resumed.run(u64::MAX)?;
//! assert_eq!(done.instructions, reference.instructions);
//! assert_eq!(done.state_digest, reference.state_digest);
//! assert_eq!(resumed.output(), reference.output);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod checkpoint;
mod fastforward;
mod scheme;
mod wire;

pub use checkpoint::{Checkpoint, CkptError, MAGIC, VERSION};
pub use fastforward::{
    checkpoint_stream, checkpoint_stream_thinned, derive_checkpoint, warm_checkpoint_at,
};
pub use scheme::Scheme;
pub use wire::crc32;
