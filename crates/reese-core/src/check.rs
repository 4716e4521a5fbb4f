//! Compare-and-recover bookkeeping shared by the two redundant
//! policies (REESE and dispatch duplication).

use crate::seqmap::SeqTable;
use crate::{DetectionEvent, InjectedFault, ReeseError, ReeseResult, ReeseStats};
use reese_pipeline::{Machine, Seq, SimResult};
use reese_trace::{Observer, Stage, Stream};

/// Injected faults grouped by target seq; seq-sorted so any walk over
/// the bookkeeping is process-independent (std-hash iteration order is
/// seeded per process — a latent determinism bug for campaign
/// byte-identity).
pub(crate) fn by_seq(faults: &[InjectedFault]) -> SeqTable<Vec<InjectedFault>> {
    let mut map = SeqTable::new();
    for f in faults {
        map.get_or_insert_with(f.seq, Vec::new).push(*f);
    }
    map
}

/// Redundancy statistics plus the detection log and retry state.
#[derive(Clone)]
pub(crate) struct Checker {
    pub stats: ReeseStats,
    detections: Vec<DetectionEvent>,
    /// Instruction re-executing after a detection flush; a second
    /// consecutive mismatch there is a permanent fault.
    retry_seq: Option<Seq>,
}

impl Checker {
    pub fn new(rqueue_capacity: usize) -> Checker {
        Checker {
            stats: ReeseStats::new(rqueue_capacity),
            detections: Vec::new(),
            retry_seq: None,
        }
    }

    /// Instruction `seq` compared clean and committed.
    pub fn passed(&mut self, seq: Seq) {
        if self.retry_seq == Some(seq) {
            self.retry_seq = None;
        }
    }

    /// A comparison failed: traces the mismatching compare (as RUU or
    /// queue entry `r_seq`) and the squash it triggers (`p_seq`), and
    /// records the detection. The caller then flushes back to the
    /// faulting instruction.
    ///
    /// # Errors
    ///
    /// [`ReeseError::PermanentFault`] when the same instruction already
    /// failed its previous attempt: the paper stops the pipeline and
    /// notifies the user.
    pub fn mismatch<O: Observer>(
        &mut self,
        m: &Machine<'_>,
        obs: &mut O,
        event: DetectionEvent,
        (r_seq, p_seq): (Seq, Seq),
    ) -> Result<(), ReeseError> {
        m.trace(obs, r_seq, event.pc, Stage::Compare, Stream::Redundant);
        m.trace(obs, p_seq, event.pc, Stage::Flush, Stream::Primary);
        self.stats.detections += 1;
        self.stats.flushes += 1;
        self.detections.push(event);
        if self.retry_seq == Some(event.seq) {
            return Err(ReeseError::PermanentFault {
                seq: event.seq,
                pc: event.pc,
            });
        }
        self.retry_seq = Some(event.seq);
        Ok(())
    }

    /// The run's result, with the shared pipeline statistics folded in.
    pub fn finish(self, r: SimResult) -> ReeseResult {
        ReeseResult {
            stop: r.stop,
            stats: ReeseStats {
                pipeline: r.stats,
                ..self.stats
            },
            output: r.output,
            exit_code: r.exit_code,
            state_digest: r.state_digest,
            detections: self.detections,
            duration: None,
        }
    }
}
