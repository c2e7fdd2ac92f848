//! Known answers, written down independently of the pipeline.
//!
//! Each registry task's verdict class comes from the paper's figures and
//! the classical results behind the library (FLP for consensus, the
//! loop-agreement contractibility criterion for the surfaces), as tabled
//! in EXPERIMENTS.md (F1–F8, E3 and "Extended library"). The benchmark
//! checks the pipeline against this table, never against itself.

/// A verdict class, without the certificate text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Wait-free solvable.
    Solvable,
    /// Not wait-free solvable.
    Unsolvable,
    /// The pipeline must decline to answer (the undecidable residue).
    Unknown,
}

impl Class {
    /// The label the wire protocol uses for this class.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Class::Solvable => "SOLVABLE",
            Class::Unsolvable => "UNSOLVABLE",
            Class::Unknown => "UNKNOWN",
        }
    }

    /// The class of a pipeline verdict.
    #[must_use]
    pub fn of(verdict: &chromata::Verdict) -> Class {
        match verdict {
            chromata::Verdict::Solvable { .. } => Class::Solvable,
            chromata::Verdict::Unsolvable { .. } => Class::Unsolvable,
            chromata::Verdict::Unknown { .. } => Class::Unknown,
        }
    }
}

/// The verdict class of every registry task, by registry name, with the
/// source of the answer.
pub const VERDICTS: [(&str, Class, &str); 19] = [
    ("identity", Class::Solvable, "solvable control"),
    ("constant", Class::Solvable, "solvable control"),
    ("consensus", Class::Unsolvable, "FLP"),
    ("consensus-2", Class::Unsolvable, "FLP, two processes (E2)"),
    ("majority", Class::Unsolvable, "Figure 1 (F1)"),
    ("hourglass", Class::Unsolvable, "Figure 2 (F2)"),
    ("pinwheel", Class::Unsolvable, "Figure 8 (F8)"),
    (
        "2-set-agreement",
        Class::Unsolvable,
        "k-set agreement, k < n",
    ),
    ("adaptive-renaming", Class::Solvable, "Extended library"),
    ("renaming-5", Class::Solvable, "Extended library"),
    ("leader-election", Class::Unsolvable, "Extended library"),
    ("approximate-agreement", Class::Solvable, "Extended library"),
    ("loop-disk", Class::Solvable, "E3: contractible loop"),
    ("loop-sphere", Class::Solvable, "E3: contractible loop"),
    ("loop-torus", Class::Unsolvable, "E3: essential loop"),
    ("loop-rp2", Class::Unsolvable, "E3: torsion loop"),
    ("loop-klein-torsion", Class::Unsolvable, "E3: torsion loop"),
    (
        "loop-klein-squared",
        Class::Unknown,
        "E3: undecidable residue",
    ),
    (
        "fig3-example",
        Class::Solvable,
        "Figures 3-4 (F3/F4); Figure 7 verifies it",
    ),
];

/// The known verdict class of a registry task.
#[must_use]
pub fn verdict_of(name: &str) -> Option<Class> {
    VERDICTS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, class, _)| class)
}

/// Distinct states the crash-injected Figure 7 checker explores on
/// identity-3 with at most 2 crashes (F7b).
pub const IDENTITY_STATES_2_CRASHES: usize = 385_299;

/// Distinct states the checker explores on fig3-example without crashes.
pub const FIG3_STATES_0_CRASHES: usize = 254_922;

/// Distinct states the checker explores on identity-3 without crashes
/// (F7 and F7b).
pub const IDENTITY_STATES_0_CRASHES: usize = 85_311;

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_cli::registry;

    #[test]
    fn every_registry_task_has_a_known_answer() {
        for entry in registry::entries() {
            assert!(
                verdict_of(entry.name).is_some(),
                "registry task `{}` has no entry in known::VERDICTS",
                entry.name
            );
        }
    }

    #[test]
    fn no_known_answer_names_a_missing_task() {
        let names: Vec<&str> = registry::entries().iter().map(|e| e.name).collect();
        for (name, _, _) in VERDICTS {
            assert!(names.contains(&name), "`{name}` is not a registry task");
        }
    }
}
