//! The metric catalogue and the run report.
//!
//! The catalogue names every metric the runner emits, with its unit and
//! direction; `BENCHMARK.json` at the repository root must list exactly
//! the same metrics (the smoke test checks this). Regression bounds live
//! only in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{self, Summary};

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics, emitted by every workload's untraced run.
pub const END_TO_END: [Spec; 6] = [
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
    higher("ops_per_s", "1/s"),
    lower("op_ms_p50", "ms"),
    lower("op_ms_p90", "ms"),
    lower("kind_ms_geomean", "ms"),
];

/// Per-layer metrics, emitted by every workload's traced run. A layer a
/// workload does not use reports 0.
pub const PER_LAYER: [Spec; 42] = [
    lower("stage.canonicalize.share", "ratio"),
    lower("stage.split.share", "ratio"),
    lower("stage.link-graphs.share", "ratio"),
    lower("stage.presentations.share", "ratio"),
    lower("stage.homology.share", "ratio"),
    lower("stage.explore.share", "ratio"),
    lower("stage.canonicalize.work", "count"),
    lower("stage.split.work", "count"),
    lower("stage.link-graphs.work", "count"),
    lower("stage.presentations.work", "count"),
    lower("stage.homology.work", "count"),
    lower("stage.explore.work", "count"),
    higher("cache.split.hit_ratio", "ratio"),
    higher("cache.link-graphs.hit_ratio", "ratio"),
    higher("cache.presentations.hit_ratio", "ratio"),
    higher("cache.homology.hit_ratio", "ratio"),
    higher("cache.explore.hit_ratio", "ratio"),
    higher("cache.verdict.hit_ratio", "ratio"),
    higher("cache.reuse_ratio", "ratio"),
    lower("cache.evictions", "count"),
    higher("persist.restored_entries", "count"),
    lower("persist.recovery_events", "count"),
    lower("persist.snapshot_bytes", "bytes"),
    higher("persist.restore_per_s", "1/s"),
    higher("persist.snapshot_per_s", "1/s"),
    lower("wire.parse.share", "ratio"),
    lower("wire.encode.share", "ratio"),
    lower("wire.request_bytes_mean", "bytes"),
    lower("wire.response_bytes_mean", "bytes"),
    lower("registry.build.share", "ratio"),
    lower("registry.build_ms_p50", "ms"),
    lower("serve.fingerprint.share", "ratio"),
    lower("serve.residual.share", "ratio"),
    lower("serve.overloaded", "count"),
    higher("serve.analyzed_ratio", "ratio"),
    lower("engine.share", "ratio"),
    lower("engine.call_ms_p50", "ms"),
    lower("runtime.states", "count"),
    higher("runtime.states_per_s", "1/s"),
    lower("runtime.verify.share", "ratio"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.unattributed.share", "ratio"),
];

/// The catalogue entry for `name`, in either list.
#[must_use]
pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|s| s.name == name)
}

/// One measured value with the samples behind it.
#[derive(Clone, Debug)]
pub struct Measured {
    /// The reported value.
    pub value: f64,
    /// Median and quartiles of the samples, when there are several.
    pub summary: Option<Summary>,
    /// How the value was obtained, when not obvious.
    pub note: String,
}

impl Measured {
    /// A single value.
    #[must_use]
    pub fn value(value: f64) -> Measured {
        Measured {
            value,
            summary: None,
            note: String::new(),
        }
    }

    /// The median of `samples`, with their quartiles.
    #[must_use]
    pub fn median(samples: &[f64]) -> Measured {
        let summary = Summary::of(samples);
        Measured {
            value: summary.map_or(f64::NAN, |s| s.median),
            summary,
            note: String::new(),
        }
    }

    /// The `p`-quantile of `samples`, noting the highest percentile that
    /// has at least [`stats::TAIL_SUPPORT`] samples beyond it.
    #[must_use]
    pub fn percentile(samples: &[f64], p: f64) -> Measured {
        let sorted = stats::sorted(samples);
        let note = match stats::highest_supported(sorted.len()) {
            Some(h) => format!(
                "highest supported percentile: p{:.0} = {:.6}",
                h * 100.0,
                stats::percentile_sorted(&sorted, h).unwrap_or(f64::NAN)
            ),
            None => format!(
                "no percentile has {} samples beyond it",
                stats::TAIL_SUPPORT
            ),
        };
        Measured {
            value: stats::percentile_sorted(&sorted, p).unwrap_or(f64::NAN),
            summary: Summary::of(samples),
            note,
        }
    }

    /// Attaches a note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Measured {
        self.note = note.into();
        self
    }

    /// Replaces the reported value, keeping the samples' summary.
    #[must_use]
    pub fn with_value(mut self, value: f64) -> Measured {
        self.value = value;
        self
    }
}

/// The outcome of one run: checks, and every metric by name.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted, each checked once.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failures: Vec<String>,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<&'static str, Measured>,
    /// Per-layer metrics by name (traced runs only).
    pub per_layer: BTreeMap<&'static str, Measured>,
}

impl Report {
    /// Counts one checked operation, recording `failure` when it failed.
    pub fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failures.push(f);
        }
    }

    /// Counts one checked operation that must satisfy `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check((!ok).then(what));
    }

    /// Whether every check passed and every emitted metric is finite.
    #[must_use]
    pub fn correct(&self, traced: bool) -> bool {
        self.failures.is_empty()
            && self.attempted > 0
            && self.emitted(traced).values().all(|m| m.value.is_finite())
    }

    /// The metrics the result line carries.
    #[must_use]
    pub fn emitted(&self, traced: bool) -> &BTreeMap<&'static str, Measured> {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The human-readable table of every metric measured.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (title, metrics) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "{title:<30} {:>6} {:>7} {:>14} {:>14} {:>14} {:>14}",
                "unit", "n", "value", "median", "q1", "q3"
            );
            for (name, m) in metrics {
                let unit = spec(name).map_or("?", |s| s.unit);
                let (n, median, q1, q3) = m.summary.map_or(
                    ("1".to_owned(), String::new(), String::new(), String::new()),
                    |s| {
                        (
                            s.n.to_string(),
                            format!("{:.6}", s.median),
                            format!("{:.6}", s.q1),
                            format!("{:.6}", s.q3),
                        )
                    },
                );
                let _ = writeln!(
                    out,
                    "  {name:<28} {unit:>6} {n:>7} {:>14.6} {median:>14} {q1:>14} {q3:>14}",
                    m.value
                );
                if !m.note.is_empty() {
                    let _ = writeln!(out, "    {}", m.note);
                }
            }
        }
        let _ = writeln!(
            out,
            "checks: {} attempted, {} failed",
            self.attempted,
            self.failures.len()
        );
        for f in self.failures.iter().take(20) {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// end-to-end (untraced) or per-layer (traced) metrics.
    #[must_use]
    pub fn result_line(&self, traced: bool) -> String {
        let mut metrics = String::new();
        for (i, (name, m)) in self.emitted(traced).iter().enumerate() {
            let unit = spec(name).map_or("?", |s| s.unit);
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
            );
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.correct(traced),
            self.attempted,
            self.failures.len()
        )
    }
}
