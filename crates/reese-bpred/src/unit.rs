//! The complete front-end prediction unit used by the pipeline.

use crate::{
    Bimodal, Btb, Combined, DirectionPredictor, Gshare, Ras, RasSnapshot, StaticPredictor, TwoLevel,
};

/// Which direction predictor to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    AlwaysTaken,
    AlwaysNotTaken,
    Bimodal,
    /// The paper's Table 1 choice (McFarling).
    Gshare,
    TwoLevel,
    Combined,
}

/// Configuration of the full branch-prediction unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Direction predictor kind.
    pub kind: PredictorKind,
    /// log2 of the direction table size.
    pub table_bits: u32,
    /// Global/local history length in bits.
    pub history_bits: u32,
    /// log2 of BTB entries.
    pub btb_bits: u32,
    /// Return-address-stack depth.
    pub ras_entries: usize,
}

impl PredictorConfig {
    /// The configuration used in the paper's Table 1: a 4K-entry gshare
    /// with 12 bits of history, a 512-entry BTB, and an 8-deep RAS.
    pub fn paper() -> PredictorConfig {
        PredictorConfig {
            kind: PredictorKind::Gshare,
            table_bits: 12,
            history_bits: 12,
            btb_bits: 9,
            ras_entries: 8,
        }
    }

    /// Same geometry with a different direction predictor (for the
    /// ablation benches).
    pub fn with_kind(mut self, kind: PredictorKind) -> PredictorConfig {
        self.kind = kind;
        self
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig::paper()
    }
}

/// Aggregate prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional-branch direction predictions made.
    pub branch_lookups: u64,
    /// Conditional-branch direction mispredictions.
    pub branch_mispredicts: u64,
    /// Indirect-jump target predictions made.
    pub indirect_lookups: u64,
    /// Indirect-jump target mispredictions.
    pub indirect_mispredicts: u64,
}

impl BranchStats {
    /// Direction misprediction rate in `[0, 1]`.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branch_lookups == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.branch_lookups as f64
        }
    }
}

/// The front-end branch unit: a direction predictor plus BTB and RAS.
///
/// # Example
///
/// ```
/// use reese_bpred::{BranchUnit, PredictorConfig};
///
/// let mut bu = BranchUnit::new(PredictorConfig::paper());
/// let guess = bu.predict_branch(0x1000);
/// bu.resolve_branch(0x1000, guess, true);
/// assert_eq!(bu.stats().branch_lookups, 1);
/// ```
#[derive(Clone)]
pub struct BranchUnit {
    dir: Direction,
    btb: Btb,
    ras: Ras,
    stats: BranchStats,
}

/// The configured direction predictor. An enum rather than a boxed
/// trait object, so a whole [`BranchUnit`] clones (a forked replay
/// trial copies the running core, predictor included).
#[derive(Debug, Clone)]
enum Direction {
    Static(StaticPredictor),
    Bimodal(Bimodal),
    Gshare(Gshare),
    TwoLevel(TwoLevel),
    Combined(Combined),
}

impl Direction {
    fn get(&self) -> &dyn DirectionPredictor {
        match self {
            Direction::Static(p) => p,
            Direction::Bimodal(p) => p,
            Direction::Gshare(p) => p,
            Direction::TwoLevel(p) => p,
            Direction::Combined(p) => p,
        }
    }

    fn get_mut(&mut self) -> &mut dyn DirectionPredictor {
        match self {
            Direction::Static(p) => p,
            Direction::Bimodal(p) => p,
            Direction::Gshare(p) => p,
            Direction::TwoLevel(p) => p,
            Direction::Combined(p) => p,
        }
    }
}

impl std::fmt::Debug for BranchUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BranchUnit")
            .field("direction", &self.dir.get().name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl BranchUnit {
    /// Instantiates the unit from a configuration.
    pub fn new(config: PredictorConfig) -> BranchUnit {
        let dir = match config.kind {
            PredictorKind::AlwaysTaken => Direction::Static(StaticPredictor::taken()),
            PredictorKind::AlwaysNotTaken => Direction::Static(StaticPredictor::not_taken()),
            PredictorKind::Bimodal => Direction::Bimodal(Bimodal::new(config.table_bits)),
            PredictorKind::Gshare => {
                Direction::Gshare(Gshare::new(config.table_bits, config.history_bits))
            }
            PredictorKind::TwoLevel => Direction::TwoLevel(TwoLevel::new(
                config.table_bits.min(20),
                config.history_bits.min(20),
            )),
            PredictorKind::Combined => {
                Direction::Combined(Combined::new(config.table_bits, config.history_bits))
            }
        };
        BranchUnit {
            dir,
            btb: Btb::new(config.btb_bits),
            ras: Ras::new(config.ras_entries),
            stats: BranchStats::default(),
        }
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict_branch(&mut self, pc: u64) -> bool {
        self.stats.branch_lookups += 1;
        self.dir.get().predict(pc)
    }

    /// Resolves a conditional branch: trains the predictor and counts a
    /// misprediction if `predicted != actual`.
    pub fn resolve_branch(&mut self, pc: u64, predicted: bool, actual: bool) {
        if predicted != actual {
            self.stats.branch_mispredicts += 1;
        }
        self.dir.get_mut().update(pc, actual);
    }

    /// Predicts the target of an indirect jump (non-return `jalr`).
    pub fn predict_indirect(&mut self, pc: u64) -> Option<u64> {
        self.stats.indirect_lookups += 1;
        self.btb.lookup(pc)
    }

    /// Resolves an indirect jump, training the BTB.
    pub fn resolve_indirect(&mut self, pc: u64, predicted: Option<u64>, actual: u64) {
        if predicted != Some(actual) {
            self.stats.indirect_mispredicts += 1;
        }
        self.btb.update(pc, actual);
    }

    /// Pushes a call's return address onto the RAS.
    pub fn push_return(&mut self, addr: u64) {
        self.ras.push(addr);
    }

    /// Pops the predicted return address for a return instruction.
    pub fn pop_return(&mut self) -> Option<u64> {
        self.ras.pop()
    }

    /// Name of the active direction predictor.
    pub fn direction_name(&self) -> &'static str {
        self.dir.get().name()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }

    /// Exports the unit's full dynamic state (direction tables, BTB,
    /// RAS, statistics) for checkpointing. The configuration is not
    /// captured; restore into a unit built from the same
    /// [`PredictorConfig`].
    pub fn export_state(&self) -> BranchSnapshot {
        BranchSnapshot {
            dir_words: self.dir.get().export_words(),
            btb: self.btb.export_entries(),
            ras: self.ras.export_state(),
            stats: self.stats,
        }
    }

    /// Restores state exported by [`BranchUnit::export_state`].
    ///
    /// # Panics
    ///
    /// Panics if any component's snapshot does not match this unit's
    /// geometry.
    pub fn import_state(&mut self, snap: &BranchSnapshot) {
        self.dir.get_mut().import_words(&snap.dir_words);
        self.btb.import_entries(&snap.btb);
        self.ras.import_state(&snap.ras);
        self.stats = snap.stats;
    }
}

/// A complete snapshot of a [`BranchUnit`] for checkpointing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchSnapshot {
    /// Direction-predictor state (see
    /// [`DirectionPredictor::export_words`]).
    pub dir_words: Vec<u64>,
    /// BTB slots.
    pub btb: Vec<Option<(u64, u64)>>,
    /// Return-address stack.
    pub ras: RasSnapshot,
    /// Accumulated statistics.
    pub stats: BranchStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_instantiates() {
        for kind in [
            PredictorKind::AlwaysTaken,
            PredictorKind::AlwaysNotTaken,
            PredictorKind::Bimodal,
            PredictorKind::Gshare,
            PredictorKind::TwoLevel,
            PredictorKind::Combined,
        ] {
            let mut bu = BranchUnit::new(PredictorConfig::paper().with_kind(kind));
            let p = bu.predict_branch(0x1000);
            bu.resolve_branch(0x1000, p, true);
            assert_eq!(bu.stats().branch_lookups, 1);
        }
    }

    #[test]
    fn mispredict_accounting() {
        let mut bu =
            BranchUnit::new(PredictorConfig::paper().with_kind(PredictorKind::AlwaysTaken));
        let p = bu.predict_branch(0x1000);
        assert!(p);
        bu.resolve_branch(0x1000, p, false);
        let p2 = bu.predict_branch(0x1000);
        bu.resolve_branch(0x1000, p2, true);
        assert_eq!(bu.stats().branch_mispredicts, 1);
        assert!((bu.stats().mispredict_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn indirect_flow() {
        let mut bu = BranchUnit::new(PredictorConfig::paper());
        assert_eq!(bu.predict_indirect(0x1000), None);
        bu.resolve_indirect(0x1000, None, 0x2000);
        assert_eq!(bu.predict_indirect(0x1000), Some(0x2000));
        bu.resolve_indirect(0x1000, Some(0x2000), 0x2000);
        assert_eq!(bu.stats().indirect_mispredicts, 1);
        assert_eq!(bu.stats().indirect_lookups, 2);
    }

    #[test]
    fn ras_round_trip() {
        let mut bu = BranchUnit::new(PredictorConfig::paper());
        bu.push_return(0x1008);
        assert_eq!(bu.pop_return(), Some(0x1008));
        assert_eq!(bu.pop_return(), None);
    }

    #[test]
    fn gshare_is_the_paper_default() {
        let bu = BranchUnit::new(PredictorConfig::paper());
        assert_eq!(bu.direction_name(), "gshare");
    }

    #[test]
    fn debug_is_nonempty() {
        let bu = BranchUnit::new(PredictorConfig::paper());
        assert!(format!("{bu:?}").contains("gshare"));
    }
}
