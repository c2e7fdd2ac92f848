//! `decide-verify`: the `chromata decide` path — `analyze_governed`, then
//! `verify_figure7_with_crashes` on the solvable, link-connected result —
//! for identity-3 with at most 2 crashes and fig3-example without
//! crashes. One operation is one pass over both, from a cleared store.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use chromata::{analyze_governed, clear_stage_caches, Budget, CancelToken, PipelineOptions};
use chromata_cli::registry;
use chromata_runtime::verify_figure7_with_crashes;

use super::{
    another_pass, check_known, ms, record_end_to_end, repeat_setup, CacheDelta, Layers, Plan,
    StageWork,
};
use crate::known::{FIG3_STATES_0_CRASHES, IDENTITY_STATES_0_CRASHES, IDENTITY_STATES_2_CRASHES};
use crate::metrics::{Measured, Report};
use crate::trace::Tracer;

/// Task, crash bound, and the state count the checker must explore.
const PASS: [(&str, usize, usize); 2] = [
    ("identity", 2, IDENTITY_STATES_2_CRASHES),
    ("fig3-example", 0, FIG3_STATES_0_CRASHES),
];

/// The smoke run's single, smallest verification.
const SMOKE_PASS: [(&str, usize, usize); 1] = [("identity", 0, IDENTITY_STATES_0_CRASHES)];

pub(super) fn run(plan: &Plan, report: &mut Report, layers: &mut Layers, tracer: &mut Tracer) {
    let pass: &[(&str, usize, usize)] = if plan.smoke { &SMOKE_PASS } else { &PASS };
    let mut build_ms = Vec::new();
    let (tasks, setup_s) = repeat_setup(|| {
        pass.iter()
            .map(|(name, _, _)| {
                let start = Instant::now();
                let task = registry::find(name);
                build_ms.push(ms(start.elapsed()));
                task
            })
            .collect::<Vec<_>>()
    });
    let budget = Budget::unlimited()
        .with_max_states(5_000_000)
        .with_max_steps(500)
        .with_max_act_rounds(2);
    let options = PipelineOptions {
        act_fallback_rounds: 2,
    };
    let cancel = CancelToken::new();

    let mut pass_ms = Vec::new();
    let mut kind_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut call_ms = Vec::new();
    let mut states = 0usize;
    let mut verifying = Duration::ZERO;
    let loop_start = Instant::now();
    while another_pass(plan, &pass_ms, loop_start) {
        let op = tracer.id();
        let pass_start = Instant::now();
        clear_stage_caches();
        let before = chromata::stage_cache_stats();
        let mut work = StageWork::default();
        for (task, &(name, crashes, expected_states)) in tasks.iter().zip(pass) {
            let Some(task) = task else {
                report.check(Some(format!("no registry task `{name}`")));
                continue;
            };
            let start = Instant::now();
            let a = analyze_governed(task, options, &budget, &cancel);
            let analyzed = Instant::now();
            tracer.analysis(op, op, name, (start, analyzed), &a.evidence);
            work.add(&a.evidence);
            check_known(report, name, &a.verdict);
            if !(a.verdict.is_solvable() && task.process_count() == 3 && task.is_link_connected()) {
                report.check(Some(format!(
                    "{name}: outside Figure 7's hypothesis, nothing to verify"
                )));
                continue;
            }
            let verify_start = Instant::now();
            let verified = verify_figure7_with_crashes(task, &budget, &cancel, crashes);
            let end = Instant::now();
            tracer.child(op, op, "runtime.verify", verify_start, end);
            call_ms.push(ms(analyzed - start));
            kind_ms
                .entry(format!("{name}/{crashes}"))
                .or_default()
                .push(ms(end - start));
            verifying += end - verify_start;
            match verified {
                Ok(r) => {
                    states += r.states;
                    report.expect(r.states == expected_states, || {
                        format!(
                            "{name} with <= {crashes} crashes: {} states, pinned {expected_states}",
                            r.states
                        )
                    });
                }
                Err(e) => report.check(Some(format!("{name}: not VERIFIED: {e}"))),
            }
        }
        let pass_end = Instant::now();
        tracer.span(op, 0, op, "op", pass_start, pass_end);
        if pass_ms.is_empty() {
            layers.counts(&work, &CacheDelta::since(&before));
            layers.set("runtime.states", states as f64);
        }
        pass_ms.push(ms(pass_end - pass_start));
    }
    let loop_wall = loop_start.elapsed();

    record_end_to_end(
        report,
        &setup_s,
        &pass_ms,
        Measured::value(pass_ms.len() as f64 / loop_wall.as_secs_f64()),
        &kind_ms,
    );
    layers.set(
        "runtime.states_per_s",
        states as f64 / verifying.as_secs_f64(),
    );
    layers.set_measured("registry.build_ms_p50", Measured::median(&build_ms));
    layers.set_measured("engine.call_ms_p50", Measured::median(&call_ms));
    let op_ns = (pass_ms.iter().sum::<f64>() * 1e6) as u64;
    layers.shares(tracer, op_ns);
    layers.overhead(tracer, loop_wall);
}
