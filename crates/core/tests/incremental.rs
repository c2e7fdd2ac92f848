//! Cross-crate proof of the incremental re-analysis contract (public
//! API only): for seeded near-duplicate mutants of library tasks, a
//! warm run through the shared per-branch artifact store returns the
//! same verdict and a byte-identical `deterministic_digest` as a cold
//! run from an empty store — and the warm run demonstrably reuses
//! per-branch artifacts (`reuse_hits`), including the edit-one-branch
//! scenario where only the downstream work of the edited split branch
//! is recomputed.
//!
//! Everything lives in one `#[test]` because the artifact store is
//! process-wide: concurrent test threads clearing and re-filling it
//! would race each other's counters.

use chromata::{
    analyze, clear_stage_caches, stage_cache_stats, ArtifactKind, PipelineOptions, Verdict,
};
use chromata_task::library::{consensus, hourglass, identity_task, pinwheel, two_set_agreement};
use chromata_task::{mutate_task, Task};
use chromata_topology::{Complex, Simplex, Vertex};

/// Seeded mutants derived per library task (the satellite contract).
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

/// Sums `(reuse_hits, hits, lookups)` over the per-branch (granular)
/// stage caches.
fn granular_totals() -> (u64, u64, u64) {
    let mut totals = (0, 0, 0);
    for (kind, stats) in stage_cache_stats() {
        if matches!(kind, ArtifactKind::LinkGraphs | ArtifactKind::Presentations) {
            totals.0 += stats.reuse_hits;
            totals.1 += stats.hits;
            totals.2 += stats.lookups;
        }
    }
    totals
}

#[test]
fn incremental_reanalysis_matches_cold_runs_and_reuses_branches() {
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

    // -- Warm pass: the same mutants through one shared store. --------
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

    // Near-duplicate mutants share split branches, so the warm pass
    // must have served per-branch artifacts from the cache.
    let (reuse, hits, lookups) = granular_totals();
    assert!(
        reuse > 0,
        "a warm campaign over near-duplicates must reuse branch artifacts"
    );
    assert!(reuse <= hits, "reuse_hits is a subset of hits");
    assert!(hits <= lookups, "cache coherence: hits <= lookups");

    // -- Edit one split branch: only its downstream work re-runs. -----
    let v = |c: u8, x: i64| Vertex::of(c, x);
    let t1 = Simplex::new(vec![v(0, 0), v(1, 0), v(2, 0)]);
    let t2 = Simplex::new(vec![v(0, 1), v(1, 0), v(2, 0)]);
    let input = Complex::from_facets([t1.clone(), t2.clone()]);
    let base = Task::from_facet_delta("edit-base", input.clone(), |sigma| vec![sigma.clone()])
        .expect("identity-style task is valid");
    let edited = Task::from_facet_delta("edit-one-entry", input, |sigma| {
        if *sigma == t2 {
            vec![t2.substituted(&v(0, 1), v(0, 7))]
        } else {
            vec![sigma.clone()]
        }
    })
    .expect("edited task is valid");

    clear_stage_caches();
    let cold_edited = analyze(&edited, options);
    let cold_digest = cold_edited.evidence.deterministic_digest();

    clear_stage_caches();
    let _ = analyze(&base, options);
    let before_edit = granular_totals();
    let warm_edited = analyze(&edited, options);
    let after_edit = granular_totals();

    // τ1's branch is untouched by the edit, so re-analysis reuses it;
    // the verdict and digest still match the cold run byte-for-byte.
    assert!(
        after_edit.0 >= before_edit.0 + 2,
        "the unedited branch must be reused by link-graphs and presentations \
         (reuse_hits {} -> {})",
        before_edit.0,
        after_edit.0
    );
    assert_eq!(
        verdict_label(&warm_edited.verdict),
        verdict_label(&cold_edited.verdict)
    );
    assert_eq!(warm_edited.evidence.deterministic_digest(), cold_digest);
    let links_ev = warm_edited
        .evidence
        .stages
        .iter()
        .find(|s| s.stage == "link-graphs")
        .expect("a link-graphs stage");
    assert!(links_ev.reused, "evidence must surface the branch reuse");
    assert_eq!(links_ev.subkeys, 2, "one sub-key per input facet");
}
