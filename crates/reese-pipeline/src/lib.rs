//! The baseline out-of-order superscalar timing simulator.
//!
//! A Rust re-implementation of the machine the REESE paper modifies:
//! SimpleScalar 2.0's `sim-outorder`. The pipeline is
//! fetch → dispatch → (out-of-order) issue → writeback → (in-order)
//! commit, built around a Register Update Unit ([`Ruu`]), a load/store
//! queue ([`Lsq`]), a pool of functional units ([`FuPool`]), a gshare
//! front end ([`FetchUnit`]), and the Table 1 cache hierarchy.
//!
//! Simulation is execution-driven: the functional emulator runs the
//! correct path and the timing model charges latencies, structural
//! stalls, and branch-misprediction penalties on the dynamic stream.
//!
//! One generic machine, [`Core`], runs the cycle loop for every
//! redundancy scheme; a [`Redundancy`] policy supplies only what a
//! scheme changes. The baseline is the policy without redundancy, and
//! the components are public because `reese-core` builds REESE and
//! dispatch duplication as two more policies.
//!
//! # Example
//!
//! ```
//! use reese_pipeline::{PipelineConfig, PipelineSim};
//!
//! let prog = reese_isa::assemble(
//!     "  li t0, 10\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
//! )?;
//! let result = PipelineSim::new(PipelineConfig::starting()).run(&prog)?;
//! assert_eq!(result.committed_instructions(), 22);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod arena;
mod config;
mod dyninst;
mod fetch;
mod fu;
mod lsq;
mod machine;
mod readyring;
mod ruu;
mod sim;
mod stats;
mod wheel;

pub use arena::{InstArena, InstView};
pub use config::{FuCounts, PipelineConfig, SchedulerMode};
pub use dyninst::{DynInst, PredictionInfo, Seq};
pub use fetch::{FetchUnit, Fetched};
pub use fu::FuPool;
pub use lsq::{LoadPlan, Lsq};
pub use machine::{Core, Machine, Redundancy, RunSpec, Start, WarmState};
pub use readyring::ReadyRing;
pub use ruu::Ruu;
pub use sim::PipelineSim;
pub use stats::{PipelineStats, SimError, SimResult, SimStop};
pub use wheel::EventWheel;
