//! `serve-replay`: verdict replays over loopback TCP from a server whose
//! store was restored from a snapshot. One operation is one request, sent
//! with `serve::request_line` on its own connection, as `chromata
//! request` does.
//!
//! Set-up decides all 75 request kinds once through a server, snapshots
//! the store with `persist_now`, wipes it, and boots `Server::start` on
//! the snapshot three times; the last boot serves the timed loop. The
//! loop is closed: two clients, each sending its next request as soon as
//! the previous one is answered, measured in five windows.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use chromata::topology::structural_fingerprint;
use chromata::{
    analyze_governed, clear_stage_caches, load_cache_dir, persist_now, stage_cache_stats, Budget,
    CacheDirConfig, CancelToken, PipelineOptions,
};
use chromata_cli::serve::request_line;
use chromata_cli::wire::{self, Request, TaskSpec};
use chromata_cli::{registry, ServeOptions, Server};
use chromata_task::{mutate_task, Task};
use serde_json::Value;

use super::{check_known, ms, permutation, record_end_to_end, CacheDelta, Layers, Plan};
use crate::known::Class;
use crate::metrics::{Measured, Report};
use crate::trace::Tracer;

/// Registry tasks sent inline as seeded mutants.
const MUTANT_BASES: [&str; 7] = [
    "consensus",
    "2-set-agreement",
    "hourglass",
    "pinwheel",
    "identity",
    "adaptive-renaming",
    "loop-torus",
];

/// Mutants per base task.
const MUTANTS_PER_BASE: u64 = 8;

/// ACT fallback rounds every request asks for.
const ACT_FALLBACK: usize = 1;

/// Clients, each with one connection per request in flight.
const CLIENTS: usize = 2;

/// Measurement windows; the median window sets the throughput.
const WINDOWS: usize = 5;

/// Server boots whose median is the set-up time (one in a smoke run).
const BOOTS: usize = 3;

/// In-process repetitions per request kind in the traced breakdown.
const BREAKDOWN_REPS: usize = 3;

/// Per-request socket timeout (seconds).
const TIMEOUT_S: u64 = 30;

/// Timed seconds in a smoke run.
const SMOKE_SECONDS: f64 = 1.0;

/// One request kind: its wire line and the answer it must get.
struct Kind {
    label: String,
    line: String,
    verdict: String,
    digest: String,
}

impl Kind {
    /// Why `response` is wrong, if it is.
    fn fault(&self, response: &Result<String, chromata_cli::CliError>) -> Option<String> {
        match response {
            Err(e) => Some(format!("{}: {e}", self.label)),
            Ok(r)
                if r.contains(r#""status":"ok""#)
                    && !r.contains("retry_after_ms")
                    && r.contains(&self.verdict)
                    && r.contains(&self.digest) =>
            {
                None
            }
            Ok(r) => Some(format!("{}: unexpected response {r}", self.label)),
        }
    }
}

/// One timed request as its client saw it.
struct Sample {
    kind: usize,
    ms: f64,
    response_bytes: usize,
    fault: Option<String>,
}

/// Removes the scratch directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn options(cache_dir: PathBuf) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        threads: CLIENTS,
        cache_dir: Some(cache_dir),
        persist_secs: 0,
        idle_timeout_secs: TIMEOUT_S,
        ..ServeOptions::default()
    }
}

fn stop(server: Server) {
    server.shutdown();
    let _ = server.wait();
}

pub(super) fn run(
    plan: &Plan,
    report: &mut Report,
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let dir = WorkDir(
        plan.work_dir
            .join(format!("serve-replay-{}", std::process::id())),
    );
    std::fs::create_dir_all(&dir.0)
        .map_err(|e| format!("cannot create {}: {e}", dir.0.display()))?;
    let cache = CacheDirConfig::at(&dir.0);
    let kinds = request_kinds(plan.seed, report)?;

    // Decide every kind once through a server, then snapshot and wipe.
    // Every server gets the scratch directory, so none falls back to a
    // cache directory named by the environment.
    let prep = Server::start(options(dir.0.clone())).map_err(|e| e.to_string())?;
    let addr = prep.local_addr().to_string();
    for kind in &kinds {
        report.check(kind.fault(&request_line(&addr, &kind.line, TIMEOUT_S)));
    }
    let snapshot_start = Instant::now();
    let saved = persist_now(&cache);
    let snapshot_s = snapshot_start.elapsed().as_secs_f64();
    stop(prep);
    match saved {
        Some(Ok(saved)) => {
            layers.set(
                "persist.snapshot_per_s",
                saved.entries_written as f64 / snapshot_s,
            );
            layers.set("persist.snapshot_bytes", dir_bytes(&dir.0) as f64);
        }
        _ => report.check(Some("persist_now did not write a snapshot".to_owned())),
    }
    if plan.trace {
        clear_stage_caches();
        let start = Instant::now();
        let restored = load_cache_dir(&cache).map_or(0, |r| r.restored);
        let restore_s = start.elapsed().as_secs_f64();
        layers.set("persist.restore_per_s", restored as f64 / restore_s);
    }

    let boots = if plan.smoke { 1 } else { BOOTS };
    let mut boot_s = Vec::new();
    let mut server = None;
    for boot in 0..boots {
        clear_stage_caches();
        let start = Instant::now();
        let booted = Server::start(options(dir.0.clone())).map_err(|e| e.to_string())?;
        boot_s.push(start.elapsed().as_secs_f64());
        let loaded = booted.loaded().copied().unwrap_or_default();
        report.expect(loaded.restored > 0 && loaded.recovery_events() == 0, || {
            format!("boot {boot}: restore read {loaded:?}")
        });
        layers.set("persist.restored_entries", loaded.restored as f64);
        layers.set("persist.recovery_events", loaded.recovery_events() as f64);
        if boot + 1 < boots {
            stop(booted);
        } else {
            server = Some(booted);
        }
    }
    let server = server.expect("at least one boot");
    let addr = server.local_addr().to_string();

    let schedule = schedule(plan.seed, kinds.len());
    let stats_before = server_stats(&addr);
    let caches_before = stage_cache_stats();
    let loop_start = Instant::now();
    let (samples, window_rps) = closed_loop(plan, &addr, &kinds, &schedule);
    let loop_wall = loop_start.elapsed();
    let caches = CacheDelta::since(&caches_before);
    let stats_after = server_stats(&addr);

    let mut latency_ms = Vec::with_capacity(samples.len());
    let mut kind_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in &samples {
        report.check(s.fault.clone());
        latency_ms.push(s.ms);
        kind_ms
            .entry(kinds[s.kind].label.clone())
            .or_default()
            .push(s.ms);
    }
    report.expect(
        caches.hit_ratio(chromata::ArtifactKind::Verdict) == 1.0,
        || "a timed request missed the verdict cache".to_owned(),
    );
    record_end_to_end(
        report,
        &boot_s,
        &latency_ms,
        Measured::median(&window_rps),
        &kind_ms,
    );

    if plan.trace {
        layers.counts(&super::StageWork::default(), &caches);
        match (stats_before, stats_after) {
            (Some(before), Some(after)) => {
                layers.set("serve.overloaded", after.0.saturating_sub(before.0) as f64);
                layers.set(
                    "serve.analyzed_ratio",
                    after.1.saturating_sub(before.1) as f64 / samples.len() as f64,
                );
            }
            _ => report.check(Some("the stats op did not answer".to_owned())),
        }
        request_layers(layers, &samples, &kinds);
        breakdown(layers, tracer, &kinds, &samples);
        layers.overhead(tracer, loop_wall);
    }
    stop(server);
    Ok(())
}

/// The 19 library names plus seeded inline mutants, each with its
/// in-process reference verdict and digest.
fn request_kinds(seed: u64, report: &mut Report) -> Result<Vec<Kind>, String> {
    let mut tasks: Vec<(String, Task, String)> = Vec::new();
    for entry in registry::entries() {
        let line = format!(
            r#"{{"op":"analyze","task":"{}","act_fallback":{ACT_FALLBACK}}}"#,
            entry.name
        );
        tasks.push((entry.name.to_owned(), entry.build(), line));
    }
    for name in MUTANT_BASES {
        let base = registry::find(name).ok_or_else(|| format!("no registry task `{name}`"))?;
        for j in 0..MUTANTS_PER_BASE {
            let m = mutate_task(&base, super::mutation_seed(seed), j);
            let json = serde_json::to_string(&m).map_err(|e| e.to_string())?;
            let line = format!(r#"{{"op":"analyze","task":{json},"act_fallback":{ACT_FALLBACK}}}"#);
            tasks.push((m.name().to_owned(), m, line));
        }
    }
    clear_stage_caches();
    let options = PipelineOptions {
        act_fallback_rounds: ACT_FALLBACK,
    };
    let kinds = tasks
        .into_iter()
        .map(|(label, task, line)| {
            let a = analyze_governed(&task, options, &Budget::unlimited(), &CancelToken::new());
            if registry::entries().iter().any(|e| e.name == label) {
                check_known(report, &label, &a.verdict);
            }
            Kind {
                verdict: format!(r#""verdict":"{}""#, Class::of(&a.verdict).label()),
                digest: format!(
                    r#""evidence_digest":"{:016x}""#,
                    a.evidence.deterministic_digest()
                ),
                label,
                line,
            }
        })
        .collect();
    clear_stage_caches();
    Ok(kinds)
}

/// The request order: one seeded permutation of the kinds after another.
fn schedule(seed: u64, kinds: usize) -> Vec<usize> {
    (0..8u64)
        .flat_map(|cycle| permutation(seed ^ cycle.wrapping_mul(0x51_7cc1_b727_220a), kinds))
        .collect()
}

/// `(overloaded, analyzed)` from the server's stats op.
fn server_stats(addr: &str) -> Option<(u64, u64)> {
    let line = request_line(addr, r#"{"op":"stats"}"#, TIMEOUT_S).ok()?;
    let doc: Value = serde_json::from_str(&line).ok()?;
    let count = |key: &str| match doc[key] {
        Value::Int(n) => u64::try_from(n).ok(),
        Value::UInt(n) => Some(n),
        _ => None,
    };
    Some((count("overloaded")?, count("analyzed")?))
}

/// Total size of the files directly in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .filter(std::fs::Metadata::is_file)
            .map(|m| m.len())
            .sum()
    })
}

/// [`CLIENTS`] clients sending back to back for [`WINDOWS`] windows;
/// returns every request and each window's requests per second.
fn closed_loop(
    plan: &Plan,
    addr: &str,
    kinds: &[Kind],
    schedule: &[usize],
) -> (Vec<Sample>, Vec<f64>) {
    let total_s = if plan.smoke {
        SMOKE_SECONDS
    } else {
        plan.seconds
    };
    let window = Duration::from_secs_f64(total_s / WINDOWS as f64);
    let mut samples = Vec::new();
    let mut rates = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let first = samples.len();
        let start = Instant::now();
        let end = start + window;
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    scope.spawn(move || {
                        let mut sent = Vec::new();
                        let mut i = first + t;
                        while Instant::now() < end {
                            let kind = schedule[i % schedule.len()];
                            let before = Instant::now();
                            let response = request_line(addr, &kinds[kind].line, TIMEOUT_S);
                            sent.push(Sample {
                                kind,
                                ms: ms(before.elapsed()),
                                response_bytes: response.as_ref().map_or(0, String::len),
                                fault: kinds[kind].fault(&response),
                            });
                            i += CLIENTS;
                        }
                        sent
                    })
                })
                .collect();
            for t in threads {
                samples.extend(t.join().expect("client thread panicked"));
            }
        });
        rates.push((samples.len() - first) as f64 / start.elapsed().as_secs_f64());
    }
    (samples, rates)
}

/// Request and response sizes.
fn request_layers(layers: &mut Layers, samples: &[Sample], kinds: &[Kind]) {
    let n = samples.len().max(1) as f64;
    let request_bytes: usize = samples.iter().map(|s| kinds[s.kind].line.len() + 1).sum();
    let response_bytes: usize = samples.iter().map(|s| s.response_bytes + 1).sum();
    layers.set("wire.request_bytes_mean", request_bytes as f64 / n);
    layers.set("wire.response_bytes_mean", response_bytes as f64 / n);
}

/// Times the server's in-process steps for each request kind on this
/// thread — parse, registry build, fingerprint, warm analysis, encode —
/// and charges them to the timed requests of that kind. What the
/// round trip spends beyond them (connect, accept queue, worker handoff,
/// socket I/O) is the serve layer's residual.
fn breakdown(layers: &mut Layers, tracer: &mut Tracer, kinds: &[Kind], samples: &[Sample]) {
    let mut per_kind: Vec<BTreeMap<&'static str, f64>> = Vec::with_capacity(kinds.len());
    let mut build_ms = Vec::new();
    let mut call_ms = Vec::new();
    for kind in kinds {
        let mut reps: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for _ in 0..BREAKDOWN_REPS {
            let op = tracer.id();
            let mut step = |name: &'static str, start: Instant, end: Instant| {
                reps.entry(name).or_default().push(ms(end - start));
                tracer.child(op, op, name, start, end);
            };
            let op_start = Instant::now();
            let parsed = wire::parse_request(&kind.line, wire::DEFAULT_MAX_PAYLOAD);
            step("wire.parse", op_start, Instant::now());
            let Ok(Request::Analyze(request)) = parsed else {
                continue;
            };
            let task = match request.task {
                TaskSpec::Named(name) => {
                    let start = Instant::now();
                    let Some(task) = registry::find(&name) else {
                        continue;
                    };
                    let end = Instant::now();
                    step("registry.build", start, end);
                    build_ms.push(ms(end - start));
                    task
                }
                TaskSpec::Inline(task) => *task,
            };
            let start = Instant::now();
            std::hint::black_box(structural_fingerprint(&task));
            step("serve.fingerprint", start, Instant::now());
            let options = PipelineOptions {
                act_fallback_rounds: request.act_fallback,
            };
            let start = Instant::now();
            let a = analyze_governed(&task, options, &Budget::unlimited(), &CancelToken::new());
            let end = Instant::now();
            let call = ms(end - start);
            call_ms.push(call);
            let encode_start = Instant::now();
            std::hint::black_box(wire::analyze_response(
                task.name(),
                &a.verdict,
                a.evidence.decided_by,
                a.evidence.deterministic_digest(),
                call,
                None,
            ));
            let encode_end = Instant::now();
            step("wire.encode", encode_start, encode_end);
            let mut stage_ms = 0.0;
            for stage in &a.evidence.stages {
                let name = crate::trace::stage_span_name(stage.stage);
                reps.entry(name).or_default().push(ms(stage.wall));
                stage_ms += ms(stage.wall);
            }
            reps.entry("engine")
                .or_default()
                .push((call - stage_ms).max(0.0));
            tracer.analysis(op, op, &kind.label, (start, end), &a.evidence);
            tracer.span(op, 0, op, "breakdown", op_start, encode_end);
        }
        per_kind.push(
            reps.into_iter()
                .map(|(name, v)| (name, Measured::median(&v).value))
                .collect(),
        );
    }
    // Charge each timed request its kind's in-process times; the rest of
    // the total round-trip time is the residual.
    let mut charged: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in samples {
        for (&name, &t) in &per_kind[s.kind] {
            *charged.entry(name).or_insert(0.0) += t;
        }
    }
    let round_trips: f64 = samples.iter().map(|s| s.ms).sum();
    let inside: f64 = charged.values().sum();
    charged.insert("serve.residual", (round_trips - inside).max(0.0));
    if round_trips > 0.0 {
        for (name, t) in charged {
            if let Some(metric) = super::share_metric(name) {
                layers.set(metric, t / round_trips);
            }
        }
    }
    layers.set_measured("registry.build_ms_p50", Measured::median(&build_ms));
    layers.set_measured("engine.call_ms_p50", Measured::median(&call_ms));
}
