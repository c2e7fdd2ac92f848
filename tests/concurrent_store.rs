//! Concurrency parity for the shared artifact store: `chromata serve`
//! multiplexes many clients over one process-wide store, so the store
//! must behave — observably — as if the same analyses had run one at a
//! time. Pinned here:
//!
//! 1. **Verdict/digest parity under contention** — N threads analyzing
//!    an overlapping task set produce verdict renderings and
//!    evidence-chain digests byte-identical to a sequential cold
//!    baseline, for every thread and every task.
//! 2. **Counter coherence** — after (and despite) contention,
//!    `stage_cache_stats()` satisfies `lookups == hits + misses` for
//!    the verdict cache: every lookup is classified exactly once, no
//!    increment is lost or double-counted under the cache lock.

use std::sync::{Mutex, OnceLock, PoisonError};

use chromata::{analyze, clear_stage_caches, stage_cache_stats, Analysis, PipelineOptions};
use chromata_task::library::{hourglass, identity_task, pinwheel, two_set_agreement};
use chromata_task::Task;

/// Serializes tests in this binary: they clear and repopulate the one
/// process-wide artifact store.
fn store_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// An overlapping task set: every worker analyzes all of these, so the
/// same cache entries are hit from many threads at once.
fn tasks() -> Vec<Task> {
    vec![
        hourglass(),
        two_set_agreement(),
        identity_task(2),
        identity_task(3),
        pinwheel(),
    ]
}

/// `(verdict rendering, evidence digest)` — the full observable answer.
fn fingerprint(a: &Analysis) -> (String, u64) {
    (a.verdict.to_string(), a.evidence.deterministic_digest())
}

fn assert_all_coherent(context: &str) {
    for (kind, stats) in stage_cache_stats() {
        assert!(
            stats.is_coherent(),
            "{context}: {kind} cache incoherent: lookups {} != hits {} + misses {}",
            stats.lookups,
            stats.hits,
            stats.misses
        );
    }
}

#[test]
fn concurrent_analyses_match_the_sequential_baseline() {
    let _guard = store_guard();
    let options = PipelineOptions::default();
    let tasks = tasks();

    // Sequential cold baseline.
    clear_stage_caches();
    let baseline: Vec<(String, u64)> = tasks
        .iter()
        .map(|t| fingerprint(&analyze(t, options)))
        .collect();
    assert_all_coherent("sequential baseline");

    // N threads, each analyzing the full overlapping set (shuffled per
    // thread by rotation so lock acquisition orders differ), against a
    // freshly cleared store.
    clear_stage_caches();
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    let results: Vec<Vec<(usize, (String, u64))>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|worker| {
                let tasks = &tasks;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..ROUNDS {
                        for offset in 0..tasks.len() {
                            let i = (worker + round + offset) % tasks.len();
                            out.push((i, fingerprint(&analyze(&tasks[i], options))));
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (worker, result) in results.iter().enumerate() {
        for (i, fp) in result {
            assert_eq!(
                fp,
                &baseline[*i],
                "worker {worker}, task #{i} ({}): concurrent answer diverged \
                 from the sequential cold baseline",
                tasks[*i].name()
            );
        }
    }
    assert_all_coherent("after contention");
}

#[test]
fn stats_totals_add_up_under_contention() {
    let _guard = store_guard();
    let options = PipelineOptions::default();
    let tasks = tasks();

    clear_stage_caches();
    const THREADS: usize = 6;
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let tasks = &tasks;
            scope.spawn(move || {
                for offset in 0..tasks.len() {
                    let t = &tasks[(worker + offset) % tasks.len()];
                    let _ = analyze(t, options);
                }
            });
        }
    });

    let stats = stage_cache_stats();
    assert_all_coherent("stats totals");
    // The store actually saw traffic: the verdict cache recorded
    // lookups, and repeat analyses of the same tasks produced hits.
    let total_lookups: u64 = stats.iter().map(|(_, s)| s.lookups).sum();
    let total_hits: u64 = stats.iter().map(|(_, s)| s.hits).sum();
    assert!(total_lookups > 0, "the verdict cache recorded no lookup");
    assert!(
        total_hits > 0,
        "overlapping analyses from {THREADS} threads produced no cache hit"
    );
}
