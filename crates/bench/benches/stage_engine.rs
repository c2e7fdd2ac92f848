//! E9 — the staged verdict engine: what the PR-4 restructuring buys.
//!
//! Three comparisons on the task library:
//!
//! * **cold vs warm** — a first `analyze` runs every stage and records
//!   the verdict; the warm rerun is answered from the verdict cache
//!   (evidence chains replay, digests unchanged);
//! * **batch vs sequential** — `analyze_batch` fans the library out over
//!   the `par_map` pool while sharing the verdict cache, versus a
//!   sequential per-task loop;
//! * **per-stage accounting** — a `[series]` dump of the per-stage work,
//!   the verdict-cache and the subdivision-memo counters after a full
//!   library pass, the raw numbers behind EXPERIMENTS.md's per-stage
//!   table.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use chromata::{analyze, analyze_batch, clear_stage_caches, stage_cache_stats, PipelineOptions};
use chromata_subdivision::subdivision_memo_stats;
use chromata_task::library::{
    adaptive_renaming, approximate_agreement, consensus, hourglass, identity_task, leader_election,
    majority_consensus, pinwheel, two_set_agreement,
};
use chromata_task::Task;

fn library() -> Vec<Task> {
    vec![
        identity_task(3),
        hourglass(),
        pinwheel(),
        two_set_agreement(),
        majority_consensus(),
        consensus(3),
        leader_election(),
        approximate_agreement(1),
        adaptive_renaming(),
    ]
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("stages/analyze");
    group.sample_size(10);
    let t = hourglass();
    group.bench_function("cold", |b| {
        b.iter(|| {
            clear_stage_caches();
            analyze(black_box(&t), PipelineOptions::default())
                .evidence
                .deterministic_digest()
        });
    });
    group.bench_function("warm", |b| {
        clear_stage_caches();
        let cold = analyze(&t, PipelineOptions::default());
        b.iter(|| {
            let warm = analyze(black_box(&t), PipelineOptions::default());
            assert_eq!(
                warm.evidence.deterministic_digest(),
                cold.evidence.deterministic_digest()
            );
            warm.verdict.is_unsolvable()
        });
    });
    group.finish();
}

fn bench_batch_vs_sequential(c: &mut Criterion) {
    let tasks = library();
    let mut group = c.benchmark_group("stages/library");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            clear_stage_caches();
            tasks
                .iter()
                .map(|t| analyze(black_box(t), PipelineOptions::default()))
                .filter(|a| a.verdict.is_solvable())
                .count()
        });
    });
    group.bench_function("batch", |b| {
        b.iter(|| {
            clear_stage_caches();
            analyze_batch(black_box(&tasks), PipelineOptions::default())
                .iter()
                .filter(|a| a.verdict.is_solvable())
                .count()
        });
    });
    group.finish();
}

fn bench_stage_accounting(c: &mut Criterion) {
    // One cold pass + one warm pass over the library, then dump every
    // counter the engine keeps. Criterion still gets a benchmark (the
    // warm batch) so the group shows up in reports.
    clear_stage_caches();
    let tasks = library();
    let cold = analyze_batch(&tasks, PipelineOptions::default());
    let warm = analyze_batch(&tasks, PipelineOptions::default());
    for (c0, w) in cold.iter().zip(&warm) {
        assert_eq!(
            c0.evidence.deterministic_digest(),
            w.evidence.deterministic_digest()
        );
    }
    for a in &cold {
        for s in &a.evidence.stages {
            println!(
                "[series] stage-work {} {}: work {} wall_ms {:.3}",
                a.canonical.name(),
                s.stage,
                s.work,
                s.wall.as_secs_f64() * 1e3
            );
        }
    }
    for (kind, stats) in stage_cache_stats() {
        println!(
            "[series] stage-cache {}: hits {} misses {} evictions {}",
            kind.name(),
            stats.hits,
            stats.misses,
            stats.evictions
        );
    }
    let (memo_hits, memo_misses) = subdivision_memo_stats();
    println!("[series] subdivision-memo: hits {memo_hits} misses {memo_misses}");

    let mut group = c.benchmark_group("stages/accounting");
    group.sample_size(10);
    group.bench_function("warm-batch", |b| {
        b.iter(|| analyze_batch(black_box(&tasks), PipelineOptions::default()).len());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cold_vs_warm,
    bench_batch_vs_sequential,
    bench_stage_accounting
);
criterion_main!(benches);
