//! `library-cold`: every registry task decided cold, in registry order,
//! one pass after another, with the stage caches cleared before each
//! pass. One operation is one pass.

use std::collections::BTreeMap;
use std::time::Instant;

use chromata::{
    analyze_governed, clear_stage_caches, stage_cache_stats, Budget, CancelToken, PipelineOptions,
};
use chromata_cli::registry;

use super::{
    another_pass, check_known, ms, record_end_to_end, repeat_setup, CacheDelta, Layers, Plan,
    StageWork,
};
use crate::metrics::{Measured, Report};
use crate::trace::Tracer;

pub(super) fn run(plan: &Plan, report: &mut Report, layers: &mut Layers, tracer: &mut Tracer) {
    let mut build_ms = Vec::new();
    let (tasks, setup_s) = repeat_setup(|| {
        registry::entries()
            .into_iter()
            .map(|entry| {
                let start = Instant::now();
                let task = entry.build();
                build_ms.push(ms(start.elapsed()));
                (entry.name, task)
            })
            .collect::<Vec<_>>()
    });
    let options = PipelineOptions {
        act_fallback_rounds: 1,
    };
    let budget = Budget::unlimited();
    let cancel = CancelToken::new();

    // Untimed warm-up pass; its digests are the reference every timed
    // pass must reproduce.
    clear_stage_caches();
    let reference: Vec<u64> = tasks
        .iter()
        .map(|(name, task)| {
            let a = analyze_governed(task, options, &budget, &cancel);
            check_known(report, name, &a.verdict);
            a.evidence.deterministic_digest()
        })
        .collect();

    let mut pass_ms = Vec::new();
    let mut kind_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut call_ms = Vec::new();
    let loop_start = Instant::now();
    while another_pass(plan, &pass_ms, loop_start) {
        let op = tracer.id();
        let pass_start = Instant::now();
        clear_stage_caches();
        let before = stage_cache_stats();
        let mut work = StageWork::default();
        for ((name, task), digest) in tasks.iter().zip(&reference) {
            let start = Instant::now();
            let a = analyze_governed(task, options, &budget, &cancel);
            let end = Instant::now();
            let took = ms(end - start);
            kind_ms.entry((*name).to_owned()).or_default().push(took);
            call_ms.push(took);
            tracer.analysis(op, op, name, (start, end), &a.evidence);
            work.add(&a.evidence);
            check_known(report, name, &a.verdict);
            report.expect(a.evidence.deterministic_digest() == *digest, || {
                format!("{name}: evidence digest differs from the warm-up pass")
            });
        }
        let pass_end = Instant::now();
        tracer.span(op, 0, op, "op", pass_start, pass_end);
        if pass_ms.is_empty() {
            layers.counts(&work, &CacheDelta::since(&before));
        }
        pass_ms.push(ms(pass_end - pass_start));
    }
    let loop_wall = loop_start.elapsed();

    let passes_per_s = pass_ms.len() as f64 / loop_wall.as_secs_f64();
    record_end_to_end(
        report,
        &setup_s,
        &pass_ms,
        Measured::value(passes_per_s),
        &kind_ms,
    );
    layers.set_measured("registry.build_ms_p50", Measured::median(&build_ms));
    layers.set_measured("engine.call_ms_p50", Measured::median(&call_ms));
    let op_ns = (pass_ms.iter().sum::<f64>() * 1e6) as u64;
    layers.shares(tracer, op_ns);
    layers.overhead(tracer, loop_wall);
}
