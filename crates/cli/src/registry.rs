//! Name → task registry for the CLI.

use std::sync::OnceLock;

use chromata_task::library as lib;
use chromata_task::Task;

/// A library task entry: name, one-line description, constructor.
pub struct Entry {
    /// The name accepted on the command line.
    pub name: &'static str,
    /// One-line description shown by `chromata list`.
    pub description: &'static str,
    build: fn() -> Task,
}

impl Entry {
    /// Builds the task.
    #[must_use]
    pub fn build(&self) -> Task {
        (self.build)()
    }
}

/// All registered library tasks.
#[must_use]
pub fn entries() -> Vec<Entry> {
    vec![
        Entry {
            name: "identity",
            description: "each process outputs its input (solvable control)",
            build: || lib::identity_task(3),
        },
        Entry {
            name: "constant",
            description: "everyone outputs 0 (solvable control)",
            build: || lib::constant_task(3),
        },
        Entry {
            name: "consensus",
            description: "binary consensus, 3 processes (FLP: unsolvable)",
            build: || lib::consensus(3),
        },
        Entry {
            name: "consensus-2",
            description: "binary consensus, 2 processes (unsolvable)",
            build: lib::two_process_consensus,
        },
        Entry {
            name: "majority",
            description: "majority consensus — paper Fig. 1 (unsolvable)",
            build: lib::majority_consensus,
        },
        Entry {
            name: "hourglass",
            description: "the hourglass — paper Fig. 2 / §6.1 (unsolvable)",
            build: lib::hourglass,
        },
        Entry {
            name: "pinwheel",
            description: "the pinwheel — paper Fig. 8 / §6.2 (unsolvable)",
            build: lib::pinwheel,
        },
        Entry {
            name: "2-set-agreement",
            description: "2-set agreement, fixed inputs (unsolvable, colorless obstruction)",
            build: lib::two_set_agreement,
        },
        Entry {
            name: "adaptive-renaming",
            description: "adaptive (2p−1)-renaming (solvable)",
            build: lib::adaptive_renaming,
        },
        Entry {
            name: "renaming-5",
            description: "non-adaptive 5-renaming (solvable)",
            build: || lib::renaming(5),
        },
        Entry {
            name: "leader-election",
            description: "test-and-set as a task (unsolvable from registers)",
            build: lib::leader_election,
        },
        Entry {
            name: "approximate-agreement",
            description: "discrete approximate agreement, resolution 3 (solvable)",
            build: || lib::approximate_agreement(3),
        },
        Entry {
            name: "loop-disk",
            description: "loop agreement on a disk (solvable)",
            build: || lib::loop_agreement("loop-disk", lib::disk_complex()),
        },
        Entry {
            name: "loop-sphere",
            description: "loop agreement on the 2-sphere (solvable)",
            build: || lib::loop_agreement("loop-sphere", lib::sphere_complex()),
        },
        Entry {
            name: "loop-torus",
            description: "loop agreement on the torus, essential loop (unsolvable)",
            build: || lib::loop_agreement("loop-torus", lib::torus_complex()),
        },
        Entry {
            name: "loop-rp2",
            description: "loop agreement on the projective plane (unsolvable, torsion)",
            build: || lib::loop_agreement("loop-rp2", lib::projective_plane_complex()),
        },
        Entry {
            name: "loop-klein-torsion",
            description: "loop agreement on the Klein bottle, torsion loop (unsolvable)",
            build: || lib::loop_agreement("loop-klein-torsion", lib::klein_bottle_single_loop()),
        },
        Entry {
            name: "loop-klein-squared",
            description: "Klein bottle, doubled loop — the undecidable residue (verdict: unknown)",
            build: || lib::loop_agreement("loop-klein-squared", lib::klein_bottle_doubled_loop()),
        },
        Entry {
            name: "fig3-example",
            description: "the running example of paper Fig. 3",
            build: lib::simple_example_task,
        },
    ]
}

/// Looks a task up by registry name. Each entry is built the first time
/// it is found and cloned after that.
#[must_use]
pub fn find(name: &str) -> Option<Task> {
    static BUILT: OnceLock<Vec<(Entry, OnceLock<Task>)>> = OnceLock::new();
    let (entry, task) = BUILT
        .get_or_init(|| {
            entries()
                .into_iter()
                .map(|e| (e, OnceLock::new()))
                .collect()
        })
        .iter()
        .find(|(e, _)| e.name == name)?;
    Some(task.get_or_init(|| entry.build()).clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = entries().iter().map(|e| e.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn every_entry_builds() {
        for e in entries() {
            let t = e.build();
            assert!(!t.name().is_empty());
            assert!(t.process_count() >= 2);
            // The first find builds and memoizes, the second clones.
            assert_eq!(find(e.name).as_ref(), Some(&t), "{}", e.name);
            assert_eq!(find(e.name).as_ref(), Some(&t), "{}", e.name);
        }
    }

    #[test]
    fn lookup() {
        assert!(find("hourglass").is_some());
        assert!(find("nope").is_none());
    }
}
