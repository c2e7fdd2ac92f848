//! In-memory spans for the traced run.
//!
//! Every operation gets a root span whose id is also its op id; each call
//! the benchmark makes into a layer gets a child span. Spans stay in
//! memory and can be written out as JSON lines when the run ends. A
//! layer's self time is its spans' duration minus the part of that
//! interval its child spans cover.
//!
//! Stage spans are not timed here: they are laid end to end inside the
//! engine span from the per-stage wall times the engine already records
//! in each analysis's evidence chain, so their durations are the
//! engine's own and their positions are approximate.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use chromata::EvidenceChain;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// The id of the operation's root span.
    pub op: u64,
    /// Layer-qualified name, such as `engine` or `stage.split`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// What the span worked on (a task name), or empty.
    pub label: String,
}

impl Span {
    /// The span's length.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when enabled; every call is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    overhead: Duration,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
            overhead: Duration::ZERO,
        }
    }

    /// Nanoseconds since the tracer started.
    #[must_use]
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserves a span id, so a parent can be named before it ends.
    pub fn id(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next_id += 1;
        self.next_id
    }

    /// Records a finished span under a reserved `id`.
    pub fn span(
        &mut self,
        id: u64,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let clock = Instant::now();
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            label: String::new(),
        };
        self.spans.push(span);
        self.overhead += clock.elapsed();
    }

    /// Records a child span with a fresh id and returns that id.
    pub fn child(
        &mut self,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.span(id, parent, op, name, start, end);
        id
    }

    /// Records one `engine` span, labelled with the task's name, for an
    /// `analyze_governed` call that ran from `start` to `end`, with one
    /// `stage.<name>` child per stage of its evidence chain.
    pub fn analysis(
        &mut self,
        parent: u64,
        op: u64,
        task: &str,
        (start, end): (Instant, Instant),
        evidence: &EvidenceChain,
    ) {
        if !self.enabled {
            return;
        }
        let engine = self.child(parent, op, "engine", start, end);
        if let Some(span) = self.spans.last_mut() {
            span.label = task.to_owned();
        }
        let mut at = start;
        for stage in &evidence.stages {
            let until = at + stage.wall;
            self.child(engine, op, stage_span_name(stage.stage), at, until);
            at = until;
        }
    }

    /// Time spent recording spans.
    #[must_use]
    pub fn overhead(&self) -> Duration {
        self.overhead
    }

    /// Every recorded span, in the order recorded.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, summed over every span.
    #[must_use]
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for span in self.spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            let covered = children
                .get_mut(&span.id)
                .map_or(0, |kids| covered_ns(kids, span.start_ns, span.end_ns));
            *totals.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(covered);
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be created or written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"op":{},"name":"{}","label":{},"start_ns":{},"end_ns":{}}}"#,
                s.id,
                s.parent,
                s.op,
                s.name,
                serde_json::to_string(&s.label).unwrap_or_else(|_| "\"\"".to_owned()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The span name of an engine stage.
#[must_use]
pub fn stage_span_name(stage: &str) -> &'static str {
    match stage {
        "canonicalize" => "stage.canonicalize",
        "split" => "stage.split",
        "link-graphs" => "stage.link-graphs",
        "presentations" => "stage.presentations",
        "homology" => "stage.homology",
        "explore" => "stage.explore",
        _ => "stage.other",
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tracer = Tracer::new(true);
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let root = tracer.id();
        // Two overlapping children cover 2..7 of the root's 0..10.
        tracer.child(root, root, "a", at(2), at(5));
        tracer.child(root, root, "a", at(4), at(7));
        tracer.span(root, 0, root, "op", at(0), at(10));
        let totals = tracer.self_ns();
        assert_eq!(totals["op"], 5_000_000);
        assert_eq!(totals["a"], 6_000_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let now = Instant::now();
        let id = tracer.id();
        tracer.span(id, 0, id, "op", now, now);
        assert_eq!(id, 0);
        assert!(tracer.spans().is_empty());
    }
}
