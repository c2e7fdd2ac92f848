//! The four workloads and the measurement helpers they share.

mod decide;
mod library;
mod mutants;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use chromata::{stage_cache_stats, ArtifactKind, CacheEvent, DecisionCacheStats, EvidenceChain};

use crate::metrics::{Measured, Report, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;

/// A benchmark workload: one set of inputs and the loop that drives it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 19 registry tasks decided cold, pass after pass.
    LibraryCold,
    /// A seeded stream of near-duplicate mutants through one store.
    MutantStream,
    /// Verdict replays over TCP from a server restored from disk.
    ServeReplay,
    /// Decide, then machine-check Figure 7 under crash injection.
    DecideVerify,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LibraryCold,
        Workload::MutantStream,
        Workload::ServeReplay,
        Workload::DecideVerify,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::LibraryCold => "library-cold",
            Workload::MutantStream => "mutant-stream",
            Workload::ServeReplay => "serve-replay",
            Workload::DecideVerify => "decide-verify",
        }
    }

    /// The workload with command-line name `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is driven.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Seed for the generated inputs.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Whether spans are recorded and per-layer metrics computed.
    pub trace: bool,
    /// Fixed minimal counts instead of `seconds` (for the smoke test).
    pub smoke: bool,
    /// A scratch directory the run may create, use and remove.
    pub work_dir: PathBuf,
}

/// Runs `workload` once. Check failures are recorded in the report; an
/// `Err` means the run could not be set up at all.
///
/// # Errors
///
/// Fails when the workload cannot be set up (for example, when the
/// server cannot bind a loopback port).
pub fn run(workload: Workload, plan: &Plan) -> Result<(Report, Tracer), String> {
    let mut tracer = Tracer::new(plan.trace);
    let mut report = Report::default();
    let mut layers = Layers::default();
    match workload {
        Workload::LibraryCold => library::run(plan, &mut report, &mut layers, &mut tracer),
        Workload::MutantStream => mutants::run(plan, &mut report, &mut layers, &mut tracer),
        Workload::ServeReplay => serve::run(plan, &mut report, &mut layers, &mut tracer)?,
        Workload::DecideVerify => decide::run(plan, &mut report, &mut layers, &mut tracer),
    }
    if !report.end_to_end.contains_key("peak_rss_mb") {
        record_peak_rss(&mut report);
    }
    if plan.trace {
        report.per_layer = layers.finish();
    }
    Ok((report, tracer))
}

/// Records the process's peak resident set size so far (`VmHWM`) in MiB
/// as `peak_rss_mb`. A workload whose memory grows with the number of
/// operations records it after a fixed count; the others at exit.
fn record_peak_rss(report: &mut Report) {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    match kib {
        Some(kib) => {
            report
                .end_to_end
                .insert("peak_rss_mb", Measured::value(kib / 1024.0));
        }
        None => report.check(Some("cannot read VmHWM from /proc/self/status".to_owned())),
    }
}

/// Milliseconds in `d`.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Wall time spent repeating a workload's set-up, so that short set-ups
/// are timed many times and the first, colder repetitions cannot move
/// their median.
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// Runs `build` repeatedly, timing each run, until [`SETUP_BUDGET`] has
/// passed (at least three times); returns the last result and the times
/// in seconds.
fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let first = Instant::now();
    loop {
        let start = Instant::now();
        let built = build();
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= 3 && first.elapsed() >= SETUP_BUDGET {
            return (built, times);
        }
    }
}

/// Whether a pass-based loop should start another pass, given the
/// passes so far in milliseconds: always the first, then only while one
/// more average pass fits in the budget.
fn another_pass(plan: &Plan, pass_ms: &[f64], loop_start: Instant) -> bool {
    if pass_ms.is_empty() {
        return true;
    }
    if plan.smoke {
        return false;
    }
    let mean_s = pass_ms.iter().sum::<f64>() / pass_ms.len() as f64 / 1e3;
    loop_start.elapsed().as_secs_f64() + mean_s <= plan.seconds
}

/// Checks a registry task's verdict against the known answer.
fn check_known(report: &mut Report, name: &str, verdict: &chromata::Verdict) {
    let expected = crate::known::verdict_of(name);
    let got = crate::known::Class::of(verdict);
    report.expect(expected == Some(got), || {
        format!(
            "{name}: verdict {} but the known answer is {}",
            got.label(),
            expected.map_or("missing", crate::known::Class::label)
        )
    });
}

/// Records the end-to-end metrics every workload shares.
fn record_end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    op_ms: &[f64],
    ops_per_s: Measured,
    kind_ms: &BTreeMap<String, Vec<f64>>,
) {
    report
        .end_to_end
        .insert("setup_s", Measured::median(setup_s));
    report.end_to_end.insert("ops_per_s", ops_per_s);
    report
        .end_to_end
        .insert("op_ms_p50", Measured::median(op_ms));
    report
        .end_to_end
        .insert("op_ms_p90", Measured::percentile(op_ms, 0.90));
    let medians: Vec<f64> = kind_ms
        .values()
        .filter_map(|v| stats::Summary::of(v).map(|s| s.median))
        .collect();
    report.end_to_end.insert(
        "kind_ms_geomean",
        Measured::median(&medians)
            .with_note(format!("over {} op kinds", medians.len()))
            .with_value(stats::geomean(&medians).unwrap_or(f64::NAN)),
    );
}

/// Per-layer values as a workload measures them; [`Layers::finish`]
/// fills every catalogued metric the workload did not touch with 0.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, Measured>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, Measured::value(value));
    }

    fn set_measured(&mut self, name: &'static str, value: Measured) {
        self.values.insert(name, value);
    }

    /// Every catalogued per-layer metric, in name order.
    fn finish(mut self) -> BTreeMap<&'static str, Measured> {
        PER_LAYER
            .iter()
            .map(|spec| {
                let m = self
                    .values
                    .remove(spec.name)
                    .unwrap_or_else(|| Measured::value(0.0));
                (spec.name, m)
            })
            .collect()
    }

    /// Each layer's self time as a share of `op_ns` of operation time.
    fn shares(&mut self, tracer: &Tracer, op_ns: u64) {
        if op_ns == 0 {
            return;
        }
        for (span, self_ns) in tracer.self_ns() {
            if let Some(metric) = share_metric(span) {
                self.set(metric, self_ns as f64 / op_ns as f64);
            }
        }
    }

    /// Stage work and cache ratios over a counting window.
    fn counts(&mut self, work: &StageWork, cache: &CacheDelta) {
        for (stage, metric) in [
            ("canonicalize", "stage.canonicalize.work"),
            ("split", "stage.split.work"),
            ("link-graphs", "stage.link-graphs.work"),
            ("presentations", "stage.presentations.work"),
            ("homology", "stage.homology.work"),
            ("explore", "stage.explore.work"),
        ] {
            self.set(metric, work.0.get(stage).copied().unwrap_or(0) as f64);
        }
        for (kind, metric) in [
            (ArtifactKind::Split, "cache.split.hit_ratio"),
            (ArtifactKind::LinkGraphs, "cache.link-graphs.hit_ratio"),
            (ArtifactKind::Presentations, "cache.presentations.hit_ratio"),
            (ArtifactKind::Homology, "cache.homology.hit_ratio"),
            (ArtifactKind::Exploration, "cache.explore.hit_ratio"),
            (ArtifactKind::Verdict, "cache.verdict.hit_ratio"),
        ] {
            self.set(metric, cache.hit_ratio(kind));
        }
        self.set("cache.reuse_ratio", cache.reuse_ratio());
        self.set("cache.evictions", cache.total(|s| s.evictions) as f64);
    }

    /// The share of the loop's wall time spent recording spans.
    fn overhead(&mut self, tracer: &Tracer, loop_wall: Duration) {
        if !loop_wall.is_zero() {
            self.set(
                "trace.overhead_share",
                tracer.overhead().as_secs_f64() / loop_wall.as_secs_f64(),
            );
        }
    }
}

/// The per-layer share metric a span name feeds.
fn share_metric(span: &str) -> Option<&'static str> {
    Some(match span {
        "op" => "trace.unattributed.share",
        "engine" => "engine.share",
        "stage.canonicalize" => "stage.canonicalize.share",
        "stage.split" => "stage.split.share",
        "stage.link-graphs" => "stage.link-graphs.share",
        "stage.presentations" => "stage.presentations.share",
        "stage.homology" => "stage.homology.share",
        "stage.explore" => "stage.explore.share",
        "registry.build" => "registry.build.share",
        "runtime.verify" => "runtime.verify.share",
        "wire.parse" => "wire.parse.share",
        "wire.encode" => "wire.encode.share",
        "serve.fingerprint" => "serve.fingerprint.share",
        "serve.residual" => "serve.residual.share",
        _ => return None,
    })
}

/// Work done by stages that computed (missed or bypassed their cache),
/// by stage name. Hits and verdict replays did no work.
#[derive(Default)]
struct StageWork(BTreeMap<&'static str, u64>);

impl StageWork {
    fn add(&mut self, evidence: &EvidenceChain) {
        for s in &evidence.stages {
            if matches!(s.cache, CacheEvent::Miss | CacheEvent::Uncached) {
                *self.0.entry(s.stage).or_insert(0) += s.work;
            }
        }
    }
}

/// The change in every stage cache's counters over a window.
struct CacheDelta(Vec<(ArtifactKind, DecisionCacheStats)>);

impl CacheDelta {
    /// Counters now minus counters at `before`.
    fn since(before: &[(ArtifactKind, DecisionCacheStats)]) -> CacheDelta {
        let after = stage_cache_stats();
        CacheDelta(
            after
                .into_iter()
                .map(|(kind, a)| {
                    let b = before
                        .iter()
                        .find(|(k, _)| *k == kind)
                        .map(|(_, s)| *s)
                        .unwrap_or_default();
                    let d = DecisionCacheStats {
                        lookups: a.lookups.saturating_sub(b.lookups),
                        hits: a.hits.saturating_sub(b.hits),
                        evictions: a.evictions.saturating_sub(b.evictions),
                        reuse_hits: a.reuse_hits.saturating_sub(b.reuse_hits),
                        ..DecisionCacheStats::default()
                    };
                    (kind, d)
                })
                .collect(),
        )
    }

    fn of(&self, kind: ArtifactKind) -> DecisionCacheStats {
        self.0
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    fn hit_ratio(&self, kind: ArtifactKind) -> f64 {
        let s = self.of(kind);
        ratio(s.hits, s.lookups)
    }

    /// Reuse hits over lookups of the per-branch (granular) caches.
    fn reuse_ratio(&self) -> f64 {
        let granular = [ArtifactKind::LinkGraphs, ArtifactKind::Presentations];
        let reuse: u64 = granular.iter().map(|&k| self.of(k).reuse_hits).sum();
        let lookups: u64 = granular.iter().map(|&k| self.of(k).lookups).sum();
        ratio(reuse, lookups)
    }

    fn total(&self, field: impl Fn(&DecisionCacheStats) -> u64) -> u64 {
        self.0.iter().map(|(_, s)| field(s)).sum()
    }
}

/// One step of splitmix64, the benchmark's own generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed passed to `mutate_task` for benchmark seed `seed`. The
/// mutation generator ignores the lowest bit of its state, so seeds 2k
/// and 2k+1 would give identical mutants unless mixed first.
fn mutation_seed(seed: u64) -> u64 {
    let mut state = seed;
    splitmix64(&mut state)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut state = seed;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
