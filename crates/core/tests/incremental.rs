//! Cross-crate proof of the warm/cold parity contract (public API
//! only): for seeded near-duplicate mutants of library tasks, a warm run
//! through one shared artifact store returns the same verdict and a
//! byte-identical `deterministic_digest` as a cold run from an empty
//! store.
//!
//! Everything lives in one `#[test]` because the artifact store is
//! process-wide: concurrent test threads clearing and re-filling it
//! would race each other's records.

use chromata::{analyze, clear_stage_caches, PipelineOptions, Verdict};
use chromata_task::library::{consensus, hourglass, identity_task, pinwheel, two_set_agreement};
use chromata_task::{mutate_task, Task};

/// Seeded mutants derived per library task.
const MUTANTS_PER_TASK: u64 = 100;

/// The campaign seed: `(seed, index)` fully determines each mutant.
const SEED: u64 = 0xC0F_FEE;

fn library_bases() -> Vec<Task> {
    vec![
        consensus(3),
        two_set_agreement(),
        hourglass(),
        pinwheel(),
        identity_task(3),
    ]
}

fn verdict_label(v: &Verdict) -> String {
    format!("{v}")
}

#[test]
fn warm_mutant_stream_matches_cold_runs() {
    let bases = library_bases();
    let options = PipelineOptions::default();

    // -- Cold reference: every mutant decided from an empty store. ----
    let mut cold: Vec<(String, String, u64)> = Vec::new();
    for base in &bases {
        for index in 0..MUTANTS_PER_TASK {
            let mutant = mutate_task(base, SEED, index);
            clear_stage_caches();
            let analysis = analyze(&mutant, options);
            cold.push((
                mutant.name().to_owned(),
                verdict_label(&analysis.verdict),
                analysis.evidence.deterministic_digest(),
            ));
        }
    }

    // -- Warm pass: the same mutants through one never-cleared store. --
    clear_stage_caches();
    let mut next = cold.iter();
    for base in &bases {
        for index in 0..MUTANTS_PER_TASK {
            let mutant = mutate_task(base, SEED, index);
            let analysis = analyze(&mutant, options);
            let (name, verdict, digest) = next.next().expect("cold reference entry");
            assert_eq!(mutant.name(), name, "mutation is deterministic");
            assert_eq!(
                &verdict_label(&analysis.verdict),
                verdict,
                "warm verdict differs for {name}"
            );
            assert_eq!(
                analysis.evidence.deterministic_digest(),
                *digest,
                "warm evidence digest differs for {name}"
            );
        }
    }
}
