//! `mutant-stream`: a seeded stream of near-duplicate mutants, each
//! decided once through one store that is never cleared, then dropped.
//! One operation is one mutant decided. Generating a mutant is not timed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use chromata::subdivision::iterated_chromatic_subdivision;
use chromata::{
    analyze_governed, clear_stage_caches, solve_act, stage_cache_stats, validate_witness,
    ActOutcome, Budget, CancelToken, PipelineOptions,
};
use chromata_cli::registry;
use chromata_task::{mutate_task, Task};

use super::{ms, record_end_to_end, repeat_setup, CacheDelta, Layers, Plan, StageWork};
use crate::known::Class;
use crate::metrics::{Measured, Report};
use crate::trace::Tracer;

/// Registry tasks whose mutants are too slow to stream (seconds each)
/// or too large to stay near-duplicates.
const EXCLUDED: [&str; 5] = [
    "majority",
    "loop-torus",
    "loop-rp2",
    "loop-klein-torsion",
    "loop-klein-squared",
];

/// Every this many mutants, one is re-checked after the timed loop.
const SAMPLE_EVERY: u64 = 50;

/// Stage work, cache counters and peak memory are taken over this many
/// leading mutants, so they repeat for a seed however fast the loop runs:
/// the term interner never evicts, so memory grows with every mutant.
const COUNT_WINDOW: u64 = 5_000;

/// Mutants decided in a smoke run.
const SMOKE_MUTANTS: u64 = 60;

pub(super) fn run(plan: &Plan, report: &mut Report, layers: &mut Layers, tracer: &mut Tracer) {
    let mut build_ms = Vec::new();
    let (bases, setup_s) = repeat_setup(|| {
        registry::entries()
            .into_iter()
            .filter(|entry| !EXCLUDED.contains(&entry.name))
            .map(|entry| {
                let start = Instant::now();
                let task = entry.build();
                build_ms.push(ms(start.elapsed()));
                task
            })
            .collect::<Vec<Task>>()
    });
    let options = PipelineOptions::default();
    let budget = Budget::unlimited();
    let cancel = CancelToken::new();
    let seed = super::mutation_seed(plan.seed);
    let mutant = |i: u64| {
        let base = &bases[(i % bases.len() as u64) as usize];
        (base.name().to_owned(), mutate_task(base, seed, i))
    };

    clear_stage_caches();
    let before = stage_cache_stats();
    let mut work = StageWork::default();
    let mut window = None;
    let mut op_ms = Vec::new();
    let mut kind_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut samples = Vec::new();
    let mut generating = Duration::ZERO;
    let loop_start = Instant::now();
    let mut i = 0u64;
    while if plan.smoke {
        i < SMOKE_MUTANTS
    } else {
        loop_start.elapsed().as_secs_f64() < plan.seconds
    } {
        let generated = Instant::now();
        let (base, m) = mutant(i);
        let op = tracer.id();
        let start = Instant::now();
        generating += start - generated;
        let a = analyze_governed(&m, options, &budget, &cancel);
        let end = Instant::now();
        tracer.analysis(op, op, m.name(), (start, end), &a.evidence);
        tracer.span(op, 0, op, "op", start, end);
        op_ms.push(ms(end - start));
        kind_ms.entry(base).or_default().push(ms(end - start));
        if i < COUNT_WINDOW {
            work.add(&a.evidence);
            if i + 1 == COUNT_WINDOW {
                window = Some(CacheDelta::since(&before));
                super::record_peak_rss(report);
            }
        }
        if i.is_multiple_of(SAMPLE_EVERY) {
            samples.push((i, a.evidence.deterministic_digest(), Class::of(&a.verdict)));
        }
        report.check(None);
        i += 1;
    }
    let loop_wall = loop_start.elapsed();
    layers.counts(&work, &window.unwrap_or_else(|| CacheDelta::since(&before)));

    for (i, warm_digest, warm_class) in samples {
        let (_, m) = mutant(i);
        clear_stage_caches();
        let cold = analyze_governed(&m, options, &budget, &cancel);
        report.expect(cold.evidence.deterministic_digest() == warm_digest, || {
            format!("{}: cold digest differs from the warm one", m.name())
        });
        if let ActOutcome::Solvable { rounds, map } = solve_act(&m, 1) {
            let sub = iterated_chromatic_subdivision(m.input(), rounds);
            let valid = validate_witness(&sub, &m, &map);
            report.expect(valid, || {
                format!("{}: ACT returned a witness the checker rejects", m.name())
            });
            report.expect(!(valid && warm_class == Class::Unsolvable), || {
                format!(
                    "{}: the pipeline answered UNSOLVABLE but ACT found a valid map at r = {rounds}",
                    m.name()
                )
            });
        }
    }

    let deciding = loop_wall.saturating_sub(generating).as_secs_f64();
    record_end_to_end(
        report,
        &setup_s,
        &op_ms,
        Measured::value(op_ms.len() as f64 / deciding),
        &kind_ms,
    );
    layers.set_measured("registry.build_ms_p50", Measured::median(&build_ms));
    layers.set_measured("engine.call_ms_p50", Measured::median(&op_ms));
    let op_ns = (op_ms.iter().sum::<f64>() * 1e6) as u64;
    layers.shares(tracer, op_ns);
    layers.overhead(tracer, loop_wall);
}
