//! The detection-scheme registry: the single source of truth for
//! scheme names, wire ids, and descriptions.
//!
//! Every consumer — CLI parsing and help text, checkpoint wire frames,
//! the fault campaign, the cross-scheme report — derives its accepted
//! set from [`Scheme::ALL`], so registering a new backend here makes it
//! appear everywhere automatically.

/// A detection scheme: which machine (or program transform) provides
/// soft-error detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The unprotected out-of-order baseline.
    Baseline,
    /// REESE: R-stream Queue time redundancy.
    Reese,
    /// Dispatch duplication (Franklin's scheme).
    Duplex,
    /// MEEK-style heterogeneous checker cores: committed instruction
    /// groups stream through small in-order checker pipelines behind a
    /// bounded fan-out queue.
    Meek,
    /// Azambuja-style software-only detection: duplicated instructions
    /// into shadow registers plus basic-block signature checks.
    Swift,
}

impl Scheme {
    /// All registered schemes, in report order.
    pub const ALL: [Scheme; 5] = [
        Scheme::Baseline,
        Scheme::Reese,
        Scheme::Duplex,
        Scheme::Meek,
        Scheme::Swift,
    ];

    /// Stable lower-case name for CLI and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::Reese => "reese",
            Scheme::Duplex => "duplex",
            Scheme::Meek => "meek",
            Scheme::Swift => "swift",
        }
    }

    /// One-line description for help text and reports.
    pub fn description(self) -> &'static str {
        match self {
            Scheme::Baseline => "unprotected out-of-order core (no detection)",
            Scheme::Reese => "R-stream Queue time redundancy (REESE)",
            Scheme::Duplex => "dispatch duplication (Franklin's scheme)",
            Scheme::Meek => "small in-order checker cores behind a bounded queue",
            Scheme::Swift => "software-only duplication + signature checks",
        }
    }

    /// Parses a [`Scheme::name`].
    pub fn parse(s: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The accepted-name list for CLI error messages, e.g.
    /// `baseline|reese|duplex|meek|swift`.
    pub fn expected() -> String {
        Scheme::ALL.map(Scheme::name).join("|")
    }

    /// Stable wire id for the checkpoint format.
    pub fn id(self) -> u8 {
        match self {
            Scheme::Baseline => 0,
            Scheme::Reese => 1,
            Scheme::Duplex => 2,
            Scheme::Meek => 3,
            Scheme::Swift => 4,
        }
    }

    /// Inverse of [`Scheme::id`].
    pub fn from_id(id: u8) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|k| k.id() == id)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::parse(s.name()), Some(s));
            assert_eq!(Scheme::from_id(s.id()), Some(s));
        }
        assert_eq!(Scheme::parse("emulate"), None);
        assert_eq!(Scheme::from_id(Scheme::ALL.len() as u8), None);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        for (i, s) in Scheme::ALL.into_iter().enumerate() {
            assert_eq!(s.id() as usize, i, "wire ids follow registry order");
        }
    }

    #[test]
    fn expected_list_names_every_scheme() {
        assert_eq!(Scheme::expected(), "baseline|reese|duplex|meek|swift");
    }
}
