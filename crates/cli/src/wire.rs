//! The `chromata serve` wire protocol: newline-delimited JSON requests
//! and responses over a byte stream, built on the vendored `serde_json`.
//!
//! This module is deliberately socket-free: it parses and renders
//! protocol lines only, so every malformed-input path is unit-testable
//! without a live server. The framing rules:
//!
//! * one request per line, terminated by `\n`, at most
//!   [`DEFAULT_MAX_PAYLOAD`] bytes (the server may configure another
//!   bound) — an oversized line is answered with a structured error and
//!   the stream is re-synchronized at the next newline;
//! * every response is exactly one JSON object on one line;
//! * malformed input (bad JSON, a non-object, an unknown or duplicated
//!   field, a wrong field type) is answered with
//!   `{"status":"error","error":"…"}` — the connection and its worker
//!   stay alive;
//! * overload and budget exhaustion degrade to a `verdict: "UNKNOWN"`
//!   response carrying a `retry_after_ms` hint, never to a dropped
//!   connection or an unbounded queue.

use chromata::Verdict;
use chromata_task::Task;
use serde_json::Value;

/// Default per-request payload bound (bytes). Large enough for any
/// library task and generous inline tasks, small enough that a hostile
/// client cannot balloon a worker's memory.
pub const DEFAULT_MAX_PAYLOAD: usize = 1 << 20;

/// The retry hint (milliseconds) attached to admission-control rejects
/// on an otherwise idle server; [`overload_retry_hint`] scales it with
/// the observed load.
pub const OVERLOAD_RETRY_MS: u64 = 25;

/// The wire-protocol version this build speaks. Requests may carry a
/// `proto` field: absent means "whatever the server speaks" (old
/// clients keep working), a matching value is accepted, anything else
/// is answered with a named error rather than a misparse.
///
/// v2: the stage engine re-keyed link-graph/presentation/homology
/// artifacts per split branch, so v1 peers would disagree about which
/// artifacts a shard owns; the version gate keeps mixed fleets honest.
pub const PROTO_VERSION: u64 = 2;

/// Upper bound on the load-derived retry hint (milliseconds).
const MAX_RETRY_HINT_MS: u64 = 5_000;

/// Derives the overload `retry_after_ms` hint from the observed load:
/// the idle-server base plus a term per queued connection and per
/// in-flight analysis, capped at five seconds. Monotone in both inputs,
/// so a deepening queue tells clients to back off harder.
#[must_use]
pub fn overload_retry_hint(pending: usize, in_flight: usize) -> u64 {
    let pending = u64::try_from(pending).unwrap_or(u64::MAX);
    let in_flight = u64::try_from(in_flight).unwrap_or(u64::MAX);
    OVERLOAD_RETRY_MS
        .saturating_add(pending.saturating_mul(10))
        .saturating_add(in_flight.saturating_mul(5))
        .min(MAX_RETRY_HINT_MS)
}

/// The delay before retry `attempt` (0-based), honoring the server's
/// `retry_after_ms` hint when one was given. The server's hint is
/// load-derived and used as-is; without one (e.g. a transport error)
/// the client backs off exponentially from [`OVERLOAD_RETRY_MS`].
/// Either way the delay is capped at `MAX_RETRY_HINT_MS`.
#[must_use]
pub fn retry_backoff_ms(attempt: u32, hint: Option<u64>) -> u64 {
    let base = hint.unwrap_or_else(|| OVERLOAD_RETRY_MS.saturating_mul(1u64 << attempt.min(8)));
    base.min(MAX_RETRY_HINT_MS)
}

/// Extracts the retry hint from a *non-final* response: an
/// admission-control reject carries `retry_after_ms` but no
/// `evidence_digest`. A completed analysis — even a budget-induced
/// `UNKNOWN`, which also hints — is final and returns `None`, so a
/// retry loop never discards a real verdict.
#[must_use]
pub fn overload_retry_hint_of(response: &str) -> Option<u64> {
    let doc: Value = serde_json::from_str(response).ok()?;
    if matches!(doc["evidence_digest"], Value::String(_)) {
        return None;
    }
    match doc["retry_after_ms"] {
        Value::UInt(ms) => Some(ms),
        Value::Int(ms) => u64::try_from(ms).ok(),
        _ => None,
    }
}

/// A structured protocol error: the message becomes the `error` field
/// of the response line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

/// How an analyze request names its task.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskSpec {
    /// A library registry name (resolved server-side).
    Named(String),
    /// A full inline task object (already validated by `Task::new`
    /// during deserialization).
    Inline(Box<Task>),
}

/// A parsed `op: "analyze"` request.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyzeRequest {
    /// The task to decide.
    pub task: TaskSpec,
    /// ACT fallback rounds (0 disables the fallback).
    pub act_fallback: usize,
    /// Requested wall-clock budget in milliseconds; the server clamps
    /// it to its own per-request cap.
    pub budget_ms: Option<u64>,
    /// Requested state budget; the server clamps it to its own cap.
    pub max_states: Option<usize>,
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Decide a task (the default op).
    Analyze(AnalyzeRequest),
    /// Execute one verdict-engine stage (worker mode; the dispatch side
    /// lives in `chromata::stages::remote`).
    Stage(Box<chromata::StageJob>),
    /// Liveness probe.
    Ping,
    /// Server + stage-cache counters.
    Stats,
    /// Snapshot the stage caches to the server's cache directory now.
    Persist,
    /// Graceful shutdown: final persist, then exit.
    Shutdown,
}

/// Reads a non-negative integer field as `u64`.
fn uint_field(key: &str, value: &Value) -> Result<u64, WireError> {
    match value {
        Value::UInt(n) => Ok(*n),
        Value::Int(n) if *n >= 0 => Ok(*n as u64),
        _ => Err(WireError(format!(
            "field `{key}` must be a non-negative integer"
        ))),
    }
}

/// Parses one request line. Every rejection names the offending field
/// so clients can self-correct.
///
/// # Errors
///
/// Returns a [`WireError`] on any framing or validation failure; the
/// caller answers it with [`error_response`] and keeps the connection.
pub fn parse_request(line: &str, max_payload: usize) -> Result<Request, WireError> {
    if line.len() > max_payload {
        return Err(WireError(format!(
            "payload of {} bytes exceeds the {max_payload}-byte limit",
            line.len()
        )));
    }
    let value: Value = serde_json::from_str(line)
        .map_err(|e| WireError(format!("malformed JSON request: {e}")))?;
    let Value::Object(entries) = value else {
        return Err(WireError("request must be a JSON object".to_owned()));
    };
    // Duplicate keys survive the vendored parser (insertion-ordered
    // object repr); a request that says a field twice is ambiguous.
    for (i, (key, _)) in entries.iter().enumerate() {
        if entries.iter().skip(i + 1).any(|(other, _)| other == key) {
            return Err(WireError(format!("duplicate field `{key}`")));
        }
    }
    if let Some((_, value)) = entries.iter().find(|(k, _)| k == "proto") {
        let version = uint_field("proto", value)?;
        if version != PROTO_VERSION {
            return Err(WireError(format!(
                "unsupported proto version {version}; this server speaks {PROTO_VERSION}"
            )));
        }
    }
    let op = match entries.iter().find(|(k, _)| k == "op") {
        None => "analyze".to_owned(),
        Some((_, Value::String(op))) => op.clone(),
        Some(_) => return Err(WireError("field `op` must be a string".to_owned())),
    };
    match op.as_str() {
        "analyze" => parse_analyze(&entries),
        "stage" => chromata::parse_stage_fields(&entries)
            .map(|job| Request::Stage(Box::new(job)))
            .map_err(WireError),
        "ping" | "stats" | "persist" | "shutdown" => {
            if let Some((key, _)) = entries.iter().find(|(k, _)| k != "op" && k != "proto") {
                return Err(WireError(format!("unknown field `{key}` for op `{op}`")));
            }
            Ok(match op.as_str() {
                "ping" => Request::Ping,
                "stats" => Request::Stats,
                "persist" => Request::Persist,
                _ => Request::Shutdown,
            })
        }
        other => Err(WireError(format!(
            "unknown op `{other}`; expected analyze, stage, ping, stats, persist or shutdown"
        ))),
    }
}

fn parse_analyze(entries: &[(String, Value)]) -> Result<Request, WireError> {
    let mut task = None;
    let mut act_fallback = 0usize;
    let mut budget_ms = None;
    let mut max_states = None;
    for (key, value) in entries {
        match key.as_str() {
            "op" | "proto" => {}
            "task" => match value {
                Value::String(name) => task = Some(TaskSpec::Named(name.clone())),
                Value::Object(_) => {
                    let parsed: Task = serde_json::from_value(value)
                        .map_err(|e| WireError(format!("invalid inline task: {e}")))?;
                    task = Some(TaskSpec::Inline(Box::new(parsed)));
                }
                _ => {
                    return Err(WireError(
                        "field `task` must be a library name or a task object".to_owned(),
                    ))
                }
            },
            "act_fallback" => {
                let n = uint_field(key, value)?;
                act_fallback = usize::try_from(n).map_err(|_| {
                    WireError(format!("field `act_fallback` value {n} is out of range"))
                })?;
            }
            "budget_ms" => budget_ms = Some(uint_field(key, value)?),
            "max_states" => {
                let n = uint_field(key, value)?;
                max_states = Some(usize::try_from(n).map_err(|_| {
                    WireError(format!("field `max_states` value {n} is out of range"))
                })?);
            }
            other => return Err(WireError(format!("unknown field `{other}`"))),
        }
    }
    let Some(task) = task else {
        return Err(WireError(
            "analyze request needs a `task` (library name or task object)".to_owned(),
        ));
    };
    Ok(Request::Analyze(AnalyzeRequest {
        task,
        act_fallback,
        budget_ms,
        max_states,
    }))
}

/// Renders a `Value` as a single response line (no trailing newline;
/// the transport appends it). Writing a tree cannot fail.
fn line(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

/// The structured-error response: the request was rejected but the
/// connection stays usable.
#[must_use]
pub fn error_response(error: &str) -> String {
    line(&Value::object([
        ("status", Value::String("error".to_owned())),
        ("error", Value::String(error.to_owned())),
    ]))
}

/// The admission-control reject: a well-formed answer (`UNKNOWN`) with
/// a machine-readable retry hint, sent within a bounded deadline.
#[must_use]
pub fn overload_response(reason: &str, retry_after_ms: u64) -> String {
    line(&Value::object([
        ("status", Value::String("ok".to_owned())),
        ("op", Value::String("analyze".to_owned())),
        ("verdict", Value::String("UNKNOWN".to_owned())),
        ("reason", Value::String(reason.to_owned())),
        ("retry_after_ms", Value::UInt(retry_after_ms)),
    ]))
}

/// A completed analysis. `retry_after_ms` is attached when the verdict
/// is a budget-induced `UNKNOWN` — the client may retry with a larger
/// budget after the hinted delay.
#[must_use]
pub fn analyze_response(
    task_name: &str,
    verdict: &Verdict,
    decided_by: &str,
    evidence_digest: u64,
    wall_ms: f64,
    retry_after_ms: Option<u64>,
) -> String {
    let label = match verdict {
        Verdict::Solvable { .. } => "SOLVABLE",
        Verdict::Unsolvable { .. } => "UNSOLVABLE",
        Verdict::Unknown { .. } => "UNKNOWN",
    };
    let mut fields = vec![
        ("status", Value::String("ok".to_owned())),
        ("op", Value::String("analyze".to_owned())),
        ("task", Value::String(task_name.to_owned())),
        ("verdict", Value::String(label.to_owned())),
        ("detail", Value::String(verdict.to_string())),
        ("decided_by", Value::String(decided_by.to_owned())),
        (
            "evidence_digest",
            Value::String(format!("{evidence_digest:016x}")),
        ),
        ("wall_ms", Value::Float(wall_ms)),
    ];
    if let Some(ms) = retry_after_ms {
        fields.push(("retry_after_ms", Value::UInt(ms)));
    }
    line(&Value::object(fields))
}

/// The liveness answer.
#[must_use]
pub fn pong_response() -> String {
    line(&Value::object([
        ("status", Value::String("ok".to_owned())),
        ("op", Value::String("ping".to_owned())),
    ]))
}

/// One stage-cache counter row for the stats response.
#[must_use]
pub fn cache_stats_value(kind: &str, stats: &chromata::DecisionCacheStats) -> Value {
    Value::object([
        ("cache", Value::String(kind.to_owned())),
        ("lookups", Value::UInt(stats.lookups)),
        ("hits", Value::UInt(stats.hits)),
        ("misses", Value::UInt(stats.misses)),
        ("evictions", Value::UInt(stats.evictions)),
        ("restored", Value::UInt(stats.restored)),
        ("coherent", Value::Bool(stats.is_coherent())),
    ])
}

/// Health counters surfaced by the stats response beyond the request
/// tallies: persistence degradation and the poison-quarantine table.
#[derive(Clone, Debug, Default)]
pub struct HealthStats {
    /// Snapshot attempts that failed (ENOSPC, short write, …). The
    /// store stays serving read-through; the persister retries.
    pub persist_failures: u64,
    /// Whether the store is currently in read-through degradation
    /// (the last snapshot attempt failed and has not yet been retried
    /// successfully).
    pub read_through: bool,
    /// Structural fingerprints of quarantined poison tasks, rendered
    /// as 16-hex-digit strings.
    pub quarantined: Vec<u64>,
}

/// The stats answer: server counters plus per-kind cache counters.
#[must_use]
pub fn stats_response(
    served: u64,
    analyzed: u64,
    overloaded: u64,
    malformed: u64,
    in_flight: usize,
    health: &HealthStats,
    caches: Vec<Value>,
) -> String {
    line(&Value::object([
        ("status", Value::String("ok".to_owned())),
        ("op", Value::String("stats".to_owned())),
        ("served", Value::UInt(served)),
        ("analyzed", Value::UInt(analyzed)),
        ("overloaded", Value::UInt(overloaded)),
        ("malformed", Value::UInt(malformed)),
        ("in_flight", Value::UInt(in_flight as u64)),
        ("persist_failures", Value::UInt(health.persist_failures)),
        ("read_through", Value::Bool(health.read_through)),
        (
            "quarantined",
            Value::Array(
                health
                    .quarantined
                    .iter()
                    .map(|fp| Value::String(format!("{fp:016x}")))
                    .collect(),
            ),
        ),
        ("caches", Value::Array(caches)),
    ]))
}

/// The poison-quarantine answer: a task whose analysis panicked a
/// worker repeatedly is refused immediately with a structured
/// `UNKNOWN` naming its fingerprint, instead of burning another
/// worker on it.
#[must_use]
pub fn poisoned_response(task_name: &str, fingerprint: u64) -> String {
    line(&Value::object([
        ("status", Value::String("ok".to_owned())),
        ("op", Value::String("analyze".to_owned())),
        ("task", Value::String(task_name.to_owned())),
        ("verdict", Value::String("UNKNOWN".to_owned())),
        (
            "reason",
            Value::String(format!(
                "poisoned: analysis of this task panicked repeatedly; \
                 quarantined under fingerprint {fingerprint:016x}"
            )),
        ),
        ("fingerprint", Value::String(format!("{fingerprint:016x}"))),
    ]))
}

/// The persist answer.
#[must_use]
pub fn persist_response(entries_written: u64, files_written: u64) -> String {
    line(&Value::object([
        ("status", Value::String("ok".to_owned())),
        ("op", Value::String("persist".to_owned())),
        ("entries_written", Value::UInt(entries_written)),
        ("files_written", Value::UInt(files_written)),
    ]))
}

/// The shutdown acknowledgement (sent before the final persist runs).
#[must_use]
pub fn shutdown_response() -> String {
    line(&Value::object([
        ("status", Value::String("ok".to_owned())),
        ("op", Value::String("shutdown".to_owned())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_default_analyze_op() {
        let r = parse_request(r#"{"task":"consensus"}"#, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(
            r,
            Request::Analyze(AnalyzeRequest {
                task: TaskSpec::Named("consensus".into()),
                act_fallback: 0,
                budget_ms: None,
                max_states: None,
            })
        );
        let r = parse_request(
            r#"{"op":"analyze","task":"hourglass","act_fallback":2,"budget_ms":500,"max_states":1000}"#,
            DEFAULT_MAX_PAYLOAD,
        )
        .unwrap();
        let Request::Analyze(a) = r else {
            panic!("expected analyze")
        };
        assert_eq!(a.act_fallback, 2);
        assert_eq!(a.budget_ms, Some(500));
        assert_eq!(a.max_states, Some(1000));
    }

    #[test]
    fn parses_control_ops() {
        assert_eq!(
            parse_request(r#"{"op":"ping"}"#, DEFAULT_MAX_PAYLOAD).unwrap(),
            Request::Ping
        );
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#, DEFAULT_MAX_PAYLOAD).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"op":"persist"}"#, DEFAULT_MAX_PAYLOAD).unwrap(),
            Request::Persist
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#, DEFAULT_MAX_PAYLOAD).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn rejects_malformed_requests_with_named_causes() {
        let cases: &[(&str, &str)] = &[
            (
                r#"{"task":"x","frobnicate":1}"#,
                "unknown field `frobnicate`",
            ),
            (
                r#"{"op":"ping","task":"x"}"#,
                "unknown field `task` for op `ping`",
            ),
            (r#"{"op":"defrag"}"#, "unknown op `defrag`"),
            (r#"{"op":"analyze"}"#, "needs a `task`"),
            (r#"{"task":7}"#, "must be a library name or a task object"),
            (r#"{"task":"x","budget_ms":-5}"#, "non-negative integer"),
            (r#"{"task":"x","task":"y"}"#, "duplicate field `task`"),
            (r#"[1,2,3]"#, "must be a JSON object"),
            (r#"{"task":"x""#, "malformed JSON"),
            ("not json at all", "malformed JSON"),
            (r#"{"op":7}"#, "field `op` must be a string"),
        ];
        for (input, needle) in cases {
            let err = parse_request(input, DEFAULT_MAX_PAYLOAD).unwrap_err();
            assert!(
                err.0.contains(needle),
                "input {input:?}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn rejects_oversized_payloads() {
        let big = format!(r#"{{"task":"{}"}}"#, "x".repeat(100));
        let err = parse_request(&big, 32).unwrap_err();
        assert!(err.0.contains("exceeds the 32-byte limit"), "{err}");
    }

    #[test]
    fn parses_an_inline_task_object() {
        let task = chromata_task::library::hourglass();
        let json = serde_json::to_string(&task).unwrap();
        let req = format!(r#"{{"task":{json}}}"#);
        let Request::Analyze(a) = parse_request(&req, DEFAULT_MAX_PAYLOAD).unwrap() else {
            panic!("expected analyze");
        };
        let TaskSpec::Inline(parsed) = a.task else {
            panic!("expected inline task");
        };
        assert_eq!(parsed.name(), task.name());
    }

    #[test]
    fn invalid_inline_task_is_a_structured_error() {
        let err = parse_request(r#"{"task":{"bogus":true}}"#, DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert!(err.0.contains("invalid inline task"), "{err}");
    }

    #[test]
    fn responses_are_single_json_lines() {
        for text in [
            error_response("boom"),
            overload_response("server overloaded", OVERLOAD_RETRY_MS),
            pong_response(),
            shutdown_response(),
            persist_response(3, 6),
            stats_response(1, 2, 3, 4, 5, &HealthStats::default(), vec![]),
            poisoned_response("t", 0xdead_beef),
            analyze_response(
                "t",
                &Verdict::Unknown { reason: "r".into() },
                "budget",
                0xdead_beef,
                1.5,
                Some(50),
            ),
        ] {
            assert!(!text.contains('\n'), "{text}");
            let doc: Value = serde_json::from_str(&text).unwrap();
            assert!(matches!(doc, Value::Object(_)));
        }
    }

    #[test]
    fn proto_version_round_trips_and_rejects_the_unsupported() {
        // Absent: old clients keep working.
        assert_eq!(
            parse_request(r#"{"op":"ping"}"#, DEFAULT_MAX_PAYLOAD).unwrap(),
            Request::Ping
        );
        // Present and matching: accepted on every op, including the
        // implicit analyze default.
        assert_eq!(
            parse_request(r#"{"op":"ping","proto":2}"#, DEFAULT_MAX_PAYLOAD).unwrap(),
            Request::Ping
        );
        assert!(matches!(
            parse_request(r#"{"task":"consensus","proto":2}"#, DEFAULT_MAX_PAYLOAD).unwrap(),
            Request::Analyze(_)
        ));
        // Unsupported: a named error, not a misparse. v1 peers keyed
        // stage artifacts per whole task, so they are refused by name.
        let err = parse_request(r#"{"op":"ping","proto":1}"#, DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert!(
            err.0.contains("unsupported proto version 1")
                && err.0.contains(&format!("speaks {PROTO_VERSION}")),
            "{err}"
        );
        // Ill-typed: named field error.
        let err = parse_request(r#"{"op":"ping","proto":"new"}"#, DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert!(err.0.contains("field `proto`"), "{err}");
    }

    #[test]
    fn parses_a_stage_request_line() {
        let task = chromata_task::canonicalize(&chromata_task::library::hourglass());
        let job = chromata::StageJob::new(chromata::ArtifactKind::LinkGraphs, task);
        let line = chromata::stage_request_line(&job).unwrap();
        let parsed = parse_request(&line, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(parsed, Request::Stage(Box::new(job)));
        // Bad stage payloads surface the core layer's named rejection.
        let err = parse_request(r#"{"op":"stage"}"#, DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert!(err.0.contains("needs a `stage`"), "{err}");
    }

    #[test]
    fn retry_hint_is_monotone_in_load_and_bounded() {
        assert_eq!(overload_retry_hint(0, 0), OVERLOAD_RETRY_MS);
        let mut previous = 0;
        for pending in 0..32 {
            let hint = overload_retry_hint(pending, 0);
            assert!(
                hint >= previous,
                "hint must not shrink as the queue deepens"
            );
            previous = hint;
        }
        for in_flight in 1..8 {
            assert!(overload_retry_hint(4, in_flight) > overload_retry_hint(4, in_flight - 1));
        }
        assert_eq!(overload_retry_hint(usize::MAX, usize::MAX), 5_000);
    }

    #[test]
    fn retry_backoff_honors_the_hint_and_caps() {
        // With a server hint: honored as-is, independent of attempt.
        assert_eq!(retry_backoff_ms(0, Some(40)), 40);
        assert_eq!(retry_backoff_ms(5, Some(40)), 40);
        // Hints are capped like the server caps its own.
        assert_eq!(retry_backoff_ms(0, Some(u64::MAX)), MAX_RETRY_HINT_MS);
        // Without a hint: exponential from the base, monotone, capped.
        let mut previous = 0;
        for attempt in 0..12 {
            let delay = retry_backoff_ms(attempt, None);
            assert!(delay >= previous, "backoff must not shrink");
            assert!(delay <= MAX_RETRY_HINT_MS);
            previous = delay;
        }
        assert_eq!(retry_backoff_ms(0, None), OVERLOAD_RETRY_MS);
        assert_eq!(retry_backoff_ms(1, None), OVERLOAD_RETRY_MS * 2);
        assert_eq!(
            retry_backoff_ms(63, None),
            MAX_RETRY_HINT_MS,
            "no shift overflow"
        );
    }

    #[test]
    fn overload_hint_extraction_spares_final_verdicts() {
        // An admission reject is retryable.
        let reject = overload_response("busy", 75);
        assert_eq!(overload_retry_hint_of(&reject), Some(75));
        // A budget-induced UNKNOWN also hints but carries a digest: it
        // is a final verdict, not an invitation to spin.
        let unknown = analyze_response(
            "t",
            &Verdict::Unknown {
                reason: "budget".into(),
            },
            "budget",
            0xfeed,
            1.0,
            Some(200),
        );
        assert_eq!(overload_retry_hint_of(&unknown), None);
        // Plain errors and pongs carry no hint.
        assert_eq!(overload_retry_hint_of(&error_response("nope")), None);
        assert_eq!(overload_retry_hint_of(&pong_response()), None);
        assert_eq!(overload_retry_hint_of("not json"), None);
    }

    #[test]
    fn stats_response_lists_health_and_quarantined_fingerprints() {
        let health = HealthStats {
            persist_failures: 3,
            read_through: true,
            quarantined: vec![0xabcd],
        };
        let text = stats_response(9, 8, 7, 6, 5, &health, vec![]);
        let doc: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(doc["persist_failures"], Value::Int(3));
        assert_eq!(doc["read_through"], Value::Bool(true));
        assert_eq!(
            doc["quarantined"],
            Value::Array(vec![Value::String("000000000000abcd".into())])
        );
    }

    #[test]
    fn poisoned_response_is_a_structured_unknown_with_a_fingerprint() {
        let text = poisoned_response("bad-task", 0x1234);
        let doc: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(doc["status"], Value::String("ok".into()));
        assert_eq!(doc["verdict"], Value::String("UNKNOWN".into()));
        assert_eq!(doc["fingerprint"], Value::String("0000000000001234".into()));
        let Value::String(reason) = &doc["reason"] else {
            panic!("expected a reason string");
        };
        assert!(reason.starts_with("poisoned:"), "{reason}");
    }

    #[test]
    fn overload_response_is_unknown_with_a_retry_hint() {
        let text = overload_response("server overloaded: 8 in flight", OVERLOAD_RETRY_MS);
        let doc: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(doc["verdict"], Value::String("UNKNOWN".into()));
        // The vendored parser reads non-negative integers as `Int`.
        assert_eq!(doc["retry_after_ms"], Value::Int(OVERLOAD_RETRY_MS as i64));
        assert_eq!(doc["status"], Value::String("ok".into()));
    }
}
