//! REESE: REdundant Execution using Spare Elements.
//!
//! The paper's contribution (Nickel & Somani, DSN 2001): a
//! microarchitectural soft-error detection scheme that executes every
//! instruction twice on the same pipeline. The primary (P) stream runs
//! normally; completed instructions migrate — carrying their operands
//! and results — into the [`RQueue`] (the R-stream Queue) just before
//! commit, are re-executed through idle and *spare* functional units as
//! the redundant (R) stream, and commit only after the two results
//! compare equal. A mismatch flushes the machine and re-executes; a
//! persistent mismatch is reported as a permanent fault.
//!
//! The central experimental question ("how much spare hardware is
//! needed to decrease the fault-tolerance overhead to zero?") is asked
//! by layering [`ReeseConfig`] spares on top of any baseline
//! [`reese_pipeline::PipelineConfig`] and comparing IPC.
//!
//! # Example
//!
//! ```
//! use reese_core::{InjectedFault, ReeseConfig, ReeseFaults, ReeseSim};
//! use reese_pipeline::RunSpec;
//!
//! let prog = reese_isa::assemble(
//!     "  li t0, 50\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
//! )?;
//! // Inject a transient bit flip into instruction #10's result latch.
//! let sim = ReeseSim::new(ReeseConfig::starting().with_spare_int_alus(2));
//! let faults = [InjectedFault::primary(10, 5)];
//! let r = sim.run_spec(RunSpec::program(&prog).faults(ReeseFaults::injected(&faults)))?;
//! assert_eq!(r.stats.detections, 1); // caught by the P/R comparison
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod check;
mod config;
mod duplex;
mod fault;
mod rqueue;
mod seqmap;
mod sim;
mod stats;

pub use config::ReeseConfig;
pub use duplex::DuplexSim;
pub use fault::{
    DetectionEvent, DuplexFaults, DurationFault, DurationReport, InjectedFault, ReeseFaults, Stream,
};
pub use rqueue::{RQueue, RQueueEntry};
pub use sim::{ArmFault, ReeseSim};
pub use stats::{ReeseError, ReeseResult, ReeseStats};

// The scheduler-mode knob lives on the pipeline config; re-export it so
// REESE-level callers can flip it without importing reese-pipeline.
pub use reese_pipeline::SchedulerMode;

// Campaigns and sweeps share one `ReeseSim` across worker threads
// (each run builds its own machine internally); keep the
// simulator and its configuration `Send + Sync` so that fan-out stays
// possible. This fails to compile if a non-shareable field sneaks in.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<ReeseConfig>();
    shareable::<ReeseSim>();
};
