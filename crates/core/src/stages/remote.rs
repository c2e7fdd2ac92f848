//! Distributed stage execution: dispatching verdict-engine stages to a
//! pool of worker shards without ever trading availability — or digest
//! parity — for a wrong verdict.
//!
//! The layer is deliberately socket-free (rule D4 confines sockets to
//! the CLI crate): everything here speaks through the [`ShardIo`] seam,
//! a single blocking request/response exchange that the CLI implements
//! over TCP and tests implement in-process with injected faults. The
//! fault discipline mirrors the source paper's own setting: just as the
//! three-process characterization must hold under any crash pattern of
//! the IIS runs, the engine must produce the same verdict and evidence
//! digest under any pattern of shard crashes, stalls, corruption, and
//! partitions.
//!
//! Robustness machinery, in dispatch order:
//!
//! * **routing** — a stage's home shard is the structural fingerprint
//!   of (stage name, cache key) modulo the pool size — the key the stage
//!   itself declares, never re-derived from the job; attempt `k` rotates
//!   to the next shard, so retries naturally migrate off a sick machine;
//! * **deadlines** — every attempt is bounded by the engine's per-stage
//!   deadline clamped to the request [`Budget`]'s remaining wall clock;
//! * **retries** — bounded attempts with decorrelated-jitter backoff
//!   (deterministically seeded from the cache-key fingerprint, so runs
//!   are replayable without an OS entropy source);
//! * **health** — consecutive failures eject a shard from rotation;
//!   ejected shards are re-admitted through counted ping probes, so a
//!   partitioned-then-healed shard rejoins without a restart;
//! * **fallback** — when every remote option is exhausted the stage is
//!   recomputed locally. Remote execution can therefore only ever *add*
//!   availability: artifacts are byte-identical wherever they were
//!   computed (a checksum rejects corrupted payloads), and the
//!   [`EvidenceChain`](super::EvidenceChain) records who computed each
//!   stage via [`StageOrigin`] — which the digest deliberately excludes.
//!
//! The engine is the compute step of the one stage-run function,
//! `stages::run`: `run_engine` passes the configured engine down, the
//! worker side ([`execute_stage_line`]) passes none. What a stage ships,
//! how its answer decodes and how it is re-validated are declared on
//! [`Stage`] itself; this module only frames the [`StageJob`] wire
//! payload, and the worker's one job-to-stage match turns a job back
//! into its stage. A job whose task has more than three processes is
//! rejected when it is parsed, like the `analyze` op rejects it.
//!
//! Every fault is counted in [`RemoteStats`] (the wire-layer cousin of
//! the PR 2 exploration fault taxonomy) and recorded as a replayable
//! one-line trace retrievable with [`remote_fault_trace`].

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::Duration;

use chromata_task::Task;
use chromata_topology::{fnv1a, structural_fingerprint, xorshift, Budget, CancelToken};
use serde_json::Value;

use super::cache::{self, ArtifactKind, ArtifactStore};
use super::{
    branch_tasks, homology_stage, run, run_links, ExploreStage, LinkStage, PresentationStage,
    SplitStage, Stage, StageOrigin,
};
use crate::pipeline::check_process_count;

/// The protocol version stage requests carry (`proto` field).
///
/// v2 (PR 9): link-graph and presentation jobs ship *branch sub-tasks*
/// (name-erased single-facet restrictions) instead of whole split tasks,
/// and homology jobs are routed by the branch decomposition fingerprint.
/// The wire shapes are unchanged; the version records the re-keying.
pub const STAGE_PROTO_VERSION: u64 = 2;

/// Bound on retained fault-trace lines (oldest evicted first).
const FAULT_TRACE_CAP: usize = 256;

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// health tables and trace rings hold plain data whose invariants the
/// lock body re-establishes.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// The I/O seam
// ---------------------------------------------------------------------------

/// Where in the dispatch protocol a shard interaction failed. The first
/// three steps are the I/O seam's; `Decode` is diagnosed dispatcher-side
/// when a response arrives but cannot be turned into a valid artifact
/// (truncation, corruption, checksum mismatch, overload answer).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShardStep {
    /// Establishing the connection.
    Connect,
    /// Writing the request line.
    Send,
    /// Reading the response line.
    Recv,
    /// Validating / deserializing the response payload.
    Decode,
}

impl ShardStep {
    /// Stable lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ShardStep::Connect => "connect",
            ShardStep::Send => "send",
            ShardStep::Recv => "recv",
            ShardStep::Decode => "decode",
        }
    }
}

/// A structured shard-I/O failure: which protocol step, which
/// `io::ErrorKind`, and a human-readable message.
#[derive(Clone, Debug)]
pub struct ShardIoError {
    /// The protocol step that failed.
    pub step: ShardStep,
    /// The underlying I/O error class.
    pub kind: io::ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ShardIoError {
    /// Convenience constructor.
    #[must_use]
    pub fn new(step: ShardStep, kind: io::ErrorKind, message: impl Into<String>) -> Self {
        ShardIoError {
            step,
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ShardIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failed ({:?}): {}",
            self.step.label(),
            self.kind,
            self.message
        )
    }
}

/// The transport seam between the dispatcher and a shard pool: one
/// blocking newline-delimited JSON exchange. The CLI implements it over
/// TCP (`chromata_cli::shard::TcpShardIo`); tests implement it
/// in-process and inject crashes, stalls, corruption, and partitions at
/// any [`ShardStep`] (the wire-layer mirror of PR 5's `PersistIo`).
pub trait ShardIo: Send + Sync {
    /// Number of shards in the pool (shards are indexed `0..count`).
    fn shard_count(&self) -> usize;

    /// Sends `line` to `shard` and reads the one-line response, all
    /// within `deadline` when one is given. Implementations simulate a
    /// stalled shard by blocking and a killed shard by erroring.
    ///
    /// # Errors
    ///
    /// Returns a [`ShardIoError`] naming the failed protocol step.
    fn exchange(
        &self,
        shard: usize,
        line: &str,
        deadline: Option<Duration>,
    ) -> Result<String, ShardIoError>;
}

// ---------------------------------------------------------------------------
// The stage-op wire payload
// ---------------------------------------------------------------------------

/// One unit of remotely executable work: a stage kind plus the task it
/// runs on. The worker recomputes prerequisite artifacts from the task
/// via its own (warm) stage caches, so a job is self-contained and
/// idempotent — dispatching it twice, to two shards, or after a partial
/// failure cannot change any artifact. A job is built by [`Stage::job`]
/// and turned back into its stage by [`execute_stage_line`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageJob {
    /// The stage to run (every kind but [`ArtifactKind::Verdict`]).
    pub kind: ArtifactKind,
    /// The task it runs on: the canonical task for `split`, a branch
    /// sub-task for `link-graphs` and `presentations`, the split task
    /// for `homology` and `explore`.
    pub task: Task,
    /// `explore` only: the configured round cap (part of the cache key)
    /// and why the continuous tier was undetermined (it feeds the
    /// verdict text, hence the evidence digest, so it must travel). Only
    /// dispatched for fully unconstrained budgets (see
    /// [`Stage::job`]), so the shard's unlimited-budget run is
    /// bit-identical to the local one.
    pub explore: Option<(usize, String)>,
}

impl StageJob {
    /// A job for `kind` on `task`, with no `explore` inputs.
    #[must_use]
    pub fn new(kind: ArtifactKind, task: Task) -> Self {
        StageJob {
            kind,
            task,
            explore: None,
        }
    }
}

/// Renders a [`StageJob`] as one `op: "stage"` request line (no
/// trailing newline; the transport appends it).
///
/// # Errors
///
/// Returns a message if the request fails to serialize (does not
/// happen; surfaced rather than panicking a dispatcher).
pub fn stage_request_line(job: &StageJob) -> Result<String, String> {
    let mut fields = vec![
        ("op", Value::String("stage".to_owned())),
        ("proto", Value::UInt(STAGE_PROTO_VERSION)),
        ("stage", Value::String(job.kind.name().to_owned())),
        ("task", serde_json::to_value(&job.task)),
    ];
    if let Some((rounds, reason)) = &job.explore {
        fields.push(("rounds", Value::UInt(*rounds as u64)));
        fields.push(("reason", Value::String(reason.clone())));
    }
    serde_json::to_string(&Value::object(fields))
        .map_err(|e| format!("stage request: serialization failed: {e}"))
}

/// Parses the fields of an already-framed `op: "stage"` request object
/// (the CLI wire layer owns framing; this layer owns the payload).
/// Every rejection names the offending field; a task with more than
/// three processes is rejected as the `analyze` op rejects it.
///
/// # Errors
///
/// Returns a message naming the missing, unknown, or ill-typed field,
/// or the out-of-scope task.
pub fn parse_stage_fields(entries: &[(String, Value)]) -> Result<StageJob, String> {
    let mut stage = None;
    let mut task = None;
    let mut rounds = None;
    let mut reason = None;
    for (key, value) in entries {
        match key.as_str() {
            "op" | "proto" => {}
            "stage" => match value {
                Value::String(name) => stage = Some(name.clone()),
                _ => return Err("field `stage` must be a string".to_owned()),
            },
            "task" => match value {
                Value::Object(_) => {
                    let parsed: Task = serde_json::from_value(value)
                        .map_err(|e| format!("invalid stage task: {e}"))?;
                    task = Some(parsed);
                }
                _ => return Err("field `task` must be a task object".to_owned()),
            },
            "rounds" => match value {
                Value::UInt(n) => rounds = Some(*n as usize),
                Value::Int(n) if *n >= 0 => rounds = Some(*n as usize),
                _ => return Err("field `rounds` must be a non-negative integer".to_owned()),
            },
            "reason" => match value {
                Value::String(text) => reason = Some(text.clone()),
                _ => return Err("field `reason` must be a string".to_owned()),
            },
            other => return Err(format!("unknown field `{other}` for op `stage`")),
        }
    }
    let Some(stage) = stage else {
        return Err("stage request needs a `stage` name".to_owned());
    };
    let Some(task) = task else {
        return Err("stage request needs a `task` object".to_owned());
    };
    let Some(kind) = cache::store()
        .kinds()
        .into_iter()
        .map(|(kind, _)| kind)
        .find(|kind| *kind != ArtifactKind::Verdict && kind.name() == stage)
    else {
        return Err(format!(
            "unknown stage `{stage}`; expected split, link-graphs, presentations, homology or explore"
        ));
    };
    let explore = match (kind, rounds) {
        (ArtifactKind::Exploration, Some(rounds)) => Some((rounds, reason.unwrap_or_default())),
        (ArtifactKind::Exploration, None) => {
            return Err("stage `explore` needs a `rounds` field".to_owned())
        }
        (_, None) if reason.is_none() => None,
        _ => {
            return Err(format!(
                "fields `rounds`/`reason` are only valid for stage `{}`",
                ArtifactKind::Exploration.name()
            ))
        }
    };
    check_process_count(&task)?;
    Ok(StageJob {
        kind,
        task,
        explore,
    })
}

/// Executes a [`StageJob`] against this process's [`ArtifactStore`] and
/// renders the one-line response: the serialized artifact (as an
/// embedded JSON string) plus its FNV-1a checksum, so a dispatcher can
/// reject any truncated or corrupted payload before deserializing. This
/// is the worker's one job-to-stage match; the prerequisites of a
/// presentations or homology job are built by the functions the engine
/// uses.
///
/// Jobs run under an **unlimited** budget: every stage shipped here is
/// budget-independent (the dispatcher pins budget-sensitive work
/// local), so the artifact is bit-identical to a local compute. Every
/// stage runs with no remote engine: a worker that is itself configured
/// with a shard pool must never re-dispatch, or an in-process loopback
/// would recurse forever.
///
/// # Errors
///
/// Returns a message if the job names no shippable stage or the
/// artifact fails to serialize.
pub fn execute_stage_line(job: &StageJob) -> Result<String, String> {
    let store = cache::store();
    let budget = Budget::unlimited();
    let task = job.task.clone();
    match (job.kind, job.explore.clone()) {
        (ArtifactKind::Split, None) => respond(&SplitStage { canonical: task }, store, &budget),
        (ArtifactKind::LinkGraphs, None) => respond(&LinkStage { task }, store, &budget),
        (ArtifactKind::Presentations, None) => {
            let (links, _, _) = run_links(&task, &branch_tasks(&task), store, &budget, None);
            respond(&PresentationStage { task, links }, store, &budget)
        }
        (ArtifactKind::Homology, None) => respond(
            &homology_stage(&task, store, &budget, None).0,
            store,
            &budget,
        ),
        (ArtifactKind::Exploration, Some((rounds, reason))) => {
            let stage = ExploreStage {
                task,
                undetermined_reason: reason,
                configured_rounds: rounds,
                cancel: CancelToken::new(),
            };
            respond(&stage, store, &budget)
        }
        (kind, _) => Err(format!("no stage `{kind}` runs this job")),
    }
}

/// Runs `stage` with no remote engine and renders its response line.
fn respond<S: Stage>(stage: &S, store: &ArtifactStore, budget: &Budget) -> Result<String, String> {
    let name = S::KIND.name();
    let payload = serde_json::to_string(&run(stage, store, budget, None).artifact)
        .map_err(|e| format!("stage `{name}`: artifact serialization failed: {e}"))?;
    let check = fnv1a(payload.as_bytes());
    serde_json::to_string(&Value::object([
        ("status", Value::String("ok".to_owned())),
        ("op", Value::String("stage".to_owned())),
        ("proto", Value::UInt(STAGE_PROTO_VERSION)),
        ("stage", Value::String(name.to_owned())),
        ("check", Value::String(format!("{check:016x}"))),
        ("artifact", Value::String(payload)),
    ]))
    .map_err(|e| format!("stage response serialization failed: {e}"))
}

/// Extracts and checksum-verifies the artifact payload of a stage
/// response line. Any deviation — error status, overload answer, stage
/// mismatch, missing or corrupt checksum — is a [`ShardStep::Decode`]
/// fault for the caller to count.
fn artifact_payload(text: &str, stage: &str) -> Result<String, String> {
    let value: Value =
        serde_json::from_str(text).map_err(|e| format!("malformed stage response: {e}"))?;
    if !matches!(value, Value::Object(_)) {
        return Err("stage response is not a JSON object".to_owned());
    }
    match value.field("status") {
        Ok(Value::String(s)) if s == "ok" => {}
        Ok(Value::String(s)) if s == "error" => {
            let msg = match value.field("error") {
                Ok(Value::String(m)) => m.as_str(),
                _ => "unnamed error",
            };
            return Err(format!("shard answered an error: {msg}"));
        }
        _ => return Err("stage response carries no valid `status`".to_owned()),
    }
    match value.field("stage") {
        Ok(Value::String(s)) if s == stage => {}
        _ if value.field("retry_after_ms").is_ok() => {
            return Err("shard is overloaded (retry hinted)".to_owned());
        }
        _ => return Err(format!("stage response is not for stage `{stage}`")),
    }
    let Ok(Value::String(payload)) = value.field("artifact") else {
        return Err("stage response carries no `artifact` payload".to_owned());
    };
    let Ok(Value::String(check)) = value.field("check") else {
        return Err("stage response carries no `check` checksum".to_owned());
    };
    let expected = u64::from_str_radix(check, 16)
        .map_err(|_| "stage response checksum is not hexadecimal".to_owned())?;
    let actual = fnv1a(payload.as_bytes());
    if actual != expected {
        return Err(format!(
            "artifact checksum mismatch: expected {expected:016x}, payload hashes to {actual:016x}"
        ));
    }
    Ok(payload.clone())
}

/// Deserializes a checksum-verified artifact payload into `S`'s artifact.
fn decode<S: Stage>(payload: &str) -> Result<S::Artifact, String> {
    serde_json::from_str(payload).map_err(|e| {
        format!(
            "stage `{}`: artifact deserialization failed: {e}",
            S::KIND.name()
        )
    })
}

// ---------------------------------------------------------------------------
// Policy, stats, health
// ---------------------------------------------------------------------------

/// Tuning knobs for the remote engine. `Default` is conservative:
/// three attempts, small decorrelated-jitter backoff, a 10 s per-stage
/// deadline.
#[derive(Clone, Copy, Debug)]
pub struct RemotePolicy {
    /// Maximum dispatch attempts per stage before local fallback (≥ 1).
    pub attempts: u32,
    /// Decorrelated-jitter base (milliseconds).
    pub base_backoff_ms: u64,
    /// Decorrelated-jitter cap (milliseconds).
    pub max_backoff_ms: u64,
    /// Per-attempt deadline (milliseconds); always additionally clamped
    /// to the request budget's remaining wall clock. `None` leaves
    /// attempts bounded by the budget alone.
    pub stage_deadline_ms: Option<u64>,
    /// Consecutive failures after which a shard is ejected from the
    /// rotation.
    pub eject_after: u32,
    /// Routing passes that skip an ejected shard before it is probed
    /// for re-admission.
    pub probe_every: u32,
}

impl Default for RemotePolicy {
    fn default() -> Self {
        RemotePolicy {
            attempts: 3,
            base_backoff_ms: 5,
            max_backoff_ms: 100,
            stage_deadline_ms: Some(10_000),
            eject_after: 3,
            probe_every: 4,
        }
    }
}

/// Fault-taxonomy counters of the remote engine (process-wide snapshot;
/// see [`remote_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Stage dispatches attempted (one per attempt).
    pub dispatched: u64,
    /// Stages successfully fetched from a shard.
    pub fetched: u64,
    /// Re-dispatches after a failed attempt.
    pub retries: u64,
    /// Faults at [`ShardStep::Connect`].
    pub connect_faults: u64,
    /// Faults at [`ShardStep::Send`].
    pub send_faults: u64,
    /// Faults at [`ShardStep::Recv`].
    pub recv_faults: u64,
    /// Faults at [`ShardStep::Decode`] (truncation, corruption,
    /// checksum mismatch, overload answers).
    pub decode_faults: u64,
    /// Checksum-valid artifacts rejected by semantic re-validation
    /// (wrong branch count, non-canonical split task, assignment over
    /// the wrong vertex set, rank out of range). Also counted under
    /// [`decode_faults`](Self::decode_faults) — re-validation is the
    /// last step of decoding.
    pub invalid_artifacts: u64,
    /// Faults whose error kind was a timeout (`TimedOut`/`WouldBlock`),
    /// across all steps.
    pub timeouts: u64,
    /// Stages recomputed locally after exhausting every remote option.
    pub local_fallbacks: u64,
    /// Shards ejected from the rotation.
    pub ejections: u64,
    /// Ejected shards re-admitted after a successful probe.
    pub readmissions: u64,
    /// Re-admission probes sent.
    pub probes: u64,
}

#[derive(Default)]
struct Counters {
    dispatched: AtomicU64,
    fetched: AtomicU64,
    retries: AtomicU64,
    connect_faults: AtomicU64,
    send_faults: AtomicU64,
    recv_faults: AtomicU64,
    decode_faults: AtomicU64,
    invalid_artifacts: AtomicU64,
    timeouts: AtomicU64,
    local_fallbacks: AtomicU64,
    ejections: AtomicU64,
    readmissions: AtomicU64,
    probes: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> RemoteStats {
        RemoteStats {
            dispatched: self.dispatched.load(Ordering::Relaxed),
            fetched: self.fetched.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            connect_faults: self.connect_faults.load(Ordering::Relaxed),
            send_faults: self.send_faults.load(Ordering::Relaxed),
            recv_faults: self.recv_faults.load(Ordering::Relaxed),
            decode_faults: self.decode_faults.load(Ordering::Relaxed),
            invalid_artifacts: self.invalid_artifacts.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            local_fallbacks: self.local_fallbacks.load(Ordering::Relaxed),
            ejections: self.ejections.load(Ordering::Relaxed),
            readmissions: self.readmissions.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
        }
    }
}

#[derive(Clone, Copy, Default)]
struct ShardHealth {
    consecutive_failures: u32,
    ejected: bool,
    skips_since_eject: u32,
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The retry/fallback state machine in front of a [`ShardIo`].
pub struct RemoteEngine {
    io: Arc<dyn ShardIo>,
    policy: RemotePolicy,
    health: Mutex<Vec<ShardHealth>>,
    counters: Counters,
    faults: Mutex<VecDeque<String>>,
}

impl RemoteEngine {
    fn new(io: Arc<dyn ShardIo>, policy: RemotePolicy) -> Self {
        let shards = io.shard_count();
        RemoteEngine {
            io,
            policy,
            health: Mutex::new(vec![ShardHealth::default(); shards]),
            counters: Counters::default(),
            faults: Mutex::new(VecDeque::new()),
        }
    }

    /// Decorrelated jitter: `sleep = min(cap, base + rand(0, 3·prev))`,
    /// seeded from the job fingerprint so a replay backs off identically.
    fn next_backoff(&self, rng: &mut u64, prev: &mut u64) -> Duration {
        let base = self.policy.base_backoff_ms;
        let span = prev.saturating_mul(3).max(1);
        let ms = base
            .saturating_add(xorshift(rng) % span)
            .min(self.policy.max_backoff_ms.max(base));
        *prev = ms.max(1);
        Duration::from_millis(ms)
    }

    /// Per-attempt deadline: the policy's stage deadline clamped by the
    /// budget's remaining wall clock.
    fn attempt_deadline(&self, budget: &Budget) -> Option<Duration> {
        let policy = self.policy.stage_deadline_ms.map(Duration::from_millis);
        match (policy, budget.remaining()) {
            (Some(p), Some(r)) => Some(p.min(r)),
            (Some(p), None) => Some(p),
            (None, r) => r,
        }
    }

    /// Picks the shard for `attempt` (1-based): home = fingerprint mod
    /// pool, rotated by the attempt, skipping ejected shards. Skipping
    /// an ejected shard often enough triggers a ping probe; a probe
    /// that answers re-admits the shard on the spot.
    fn pick_shard(&self, fingerprint: u64, attempt: u32, pool: usize) -> Option<usize> {
        let home = (fingerprint % pool as u64) as usize;
        let start = (home + attempt as usize - 1) % pool;
        let mut due_probe = Vec::new();
        {
            let mut health = lock(&self.health);
            for offset in 0..pool {
                let candidate = (start + offset) % pool;
                let Some(h) = health.get_mut(candidate) else {
                    continue;
                };
                if !h.ejected {
                    return Some(candidate);
                }
                h.skips_since_eject = h.skips_since_eject.saturating_add(1);
                if h.skips_since_eject >= self.policy.probe_every {
                    h.skips_since_eject = 0;
                    due_probe.push(candidate);
                }
            }
        }
        for candidate in due_probe {
            self.counters.probes.fetch_add(1, Ordering::Relaxed);
            if self.probe(candidate) {
                self.note_success(candidate);
                self.counters.readmissions.fetch_add(1, Ordering::Relaxed);
                return Some(candidate);
            }
        }
        None
    }

    /// Liveness probe: a `ping` exchange under a short deadline.
    fn probe(&self, shard: usize) -> bool {
        let deadline = Some(Duration::from_millis(
            self.policy.stage_deadline_ms.unwrap_or(1_000).min(1_000),
        ));
        let ping = format!(r#"{{"op":"ping","proto":{STAGE_PROTO_VERSION}}}"#);
        match self.io.exchange(shard, &ping, deadline) {
            Ok(text) => match serde_json::from_str::<Value>(&text) {
                Ok(Value::Object(entries)) => entries
                    .iter()
                    .any(|(k, v)| k == "status" && *v == Value::String("ok".to_owned())),
                _ => false,
            },
            Err(_) => false,
        }
    }

    fn note_success(&self, shard: usize) {
        let mut health = lock(&self.health);
        if let Some(h) = health.get_mut(shard) {
            h.consecutive_failures = 0;
            h.ejected = false;
        }
    }

    /// Counts a fault in the taxonomy, appends its replayable one-line
    /// trace, and updates the shard's health (possibly ejecting it).
    fn note_fault(
        &self,
        stage: &'static str,
        fingerprint: u64,
        shard: usize,
        attempt: u32,
        err: &ShardIoError,
    ) {
        let counter = match err.step {
            ShardStep::Connect => &self.counters.connect_faults,
            ShardStep::Send => &self.counters.send_faults,
            ShardStep::Recv => &self.counters.recv_faults,
            ShardStep::Decode => &self.counters.decode_faults,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if matches!(
            err.kind,
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ) {
            self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        let trace = format!(
            "shard-fault stage={stage} key={fingerprint:016x} shard={shard} attempt={attempt} step={} kind={:?} msg={}",
            err.step.label(),
            err.kind,
            err.message
        );
        {
            let mut faults = lock(&self.faults);
            if faults.len() >= FAULT_TRACE_CAP {
                faults.pop_front();
            }
            faults.push_back(trace);
        }
        let mut ejected_now = false;
        {
            let mut health = lock(&self.health);
            if let Some(h) = health.get_mut(shard) {
                h.consecutive_failures = h.consecutive_failures.saturating_add(1);
                if !h.ejected && h.consecutive_failures >= self.policy.eject_after {
                    h.ejected = true;
                    h.skips_since_eject = 0;
                    ejected_now = true;
                }
            }
        }
        if ejected_now {
            self.counters.ejections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The full dispatch loop for one stage: route, exchange, decode,
    /// verify — retrying with backoff across the pool, ejecting sick
    /// shards along the way. `None` means every remote option is
    /// exhausted and the caller must recompute locally.
    pub(crate) fn fetch<S: Stage>(
        &self,
        stage: &S,
        key: &S::Key,
        job: &StageJob,
        budget: &Budget,
    ) -> Option<(S::Artifact, StageOrigin)> {
        let line = stage_request_line(job).ok()?;
        let pool = self.io.shard_count();
        if pool == 0 {
            return None;
        }
        let name = S::KIND.name();
        // Salted with the stage name so co-keyed stages of one task
        // spread across the pool.
        let fingerprint = structural_fingerprint(&(name, key));
        let attempts = self.policy.attempts.max(1);
        let mut rng = fingerprint ^ 0x9e37_79b9_7f4a_7c15;
        let mut prev_backoff = self.policy.base_backoff_ms.max(1);
        for attempt in 1..=attempts {
            if budget.deadline_exceeded() {
                break;
            }
            let Some(shard) = self.pick_shard(fingerprint, attempt, pool) else {
                break;
            };
            self.counters.dispatched.fetch_add(1, Ordering::Relaxed);
            if attempt > 1 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
            }
            let deadline = self.attempt_deadline(budget);
            match self.io.exchange(shard, &line, deadline) {
                Ok(text) => {
                    let decoded = artifact_payload(&text, name)
                        .and_then(|payload| decode::<S>(&payload))
                        .and_then(|artifact| match stage.admissible(&artifact) {
                            Ok(()) => Ok(artifact),
                            Err(why) => {
                                // Checksum-valid but semantically wrong:
                                // a distinct taxonomy entry on top of the
                                // decode-fault count.
                                self.counters
                                    .invalid_artifacts
                                    .fetch_add(1, Ordering::Relaxed);
                                Err(format!("invalid_artifact: {why}"))
                            }
                        });
                    match decoded {
                        Ok(artifact) => {
                            self.note_success(shard);
                            self.counters.fetched.fetch_add(1, Ordering::Relaxed);
                            return Some((artifact, StageOrigin::Shard { shard, attempt }));
                        }
                        Err(message) => {
                            let err = ShardIoError::new(
                                ShardStep::Decode,
                                io::ErrorKind::InvalidData,
                                message,
                            );
                            self.note_fault(name, fingerprint, shard, attempt, &err);
                        }
                    }
                }
                Err(err) => {
                    self.note_fault(name, fingerprint, shard, attempt, &err);
                }
            }
            if attempt < attempts {
                let mut pause = self.next_backoff(&mut rng, &mut prev_backoff);
                if let Some(remaining) = budget.remaining() {
                    pause = pause.min(remaining);
                }
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
        }
        self.counters
            .local_fallbacks
            .fetch_add(1, Ordering::Relaxed);
        None
    }
}

// ---------------------------------------------------------------------------
// Process-wide configuration
// ---------------------------------------------------------------------------

fn engine_slot() -> &'static RwLock<Option<Arc<RemoteEngine>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<RemoteEngine>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// The configured engine, if any — read once per analysis by
/// `run_engine`.
pub(crate) fn current_engine() -> Option<Arc<RemoteEngine>> {
    engine_slot()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Installs a shard pool for this process: every subsequent analysis
/// dispatches its stages through `io` under `policy`. Replaces any
/// previously configured pool (health and counters start fresh).
pub fn configure_remote(io: Arc<dyn ShardIo>, policy: RemotePolicy) {
    let engine = Arc::new(RemoteEngine::new(io, policy));
    *engine_slot()
        .write()
        .unwrap_or_else(PoisonError::into_inner) = Some(engine);
}

/// Removes the configured shard pool; analyses run purely locally
/// again. Verdicts and digests are unaffected either way.
pub fn clear_remote() {
    *engine_slot()
        .write()
        .unwrap_or_else(PoisonError::into_inner) = None;
}

/// Snapshot of the configured engine's fault-taxonomy counters; `None`
/// when no pool is configured.
#[must_use]
pub fn remote_stats() -> Option<RemoteStats> {
    current_engine().map(|engine| engine.counters.snapshot())
}

/// The engine's replayable one-line fault traces, oldest first (bounded
/// ring; see `RemoteEngine::note_fault` for the format).
#[must_use]
pub fn remote_fault_trace() -> Vec<String> {
    current_engine()
        .map(|engine| lock(&engine.faults).iter().cloned().collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::chaos::InProcessShards;
    use crate::stages::HomologyStage;
    use chromata_task::library::{hourglass, identity_task, two_set_agreement};

    #[test]
    fn job_lines_round_trip_through_the_parser() {
        let canonical = chromata_task::canonicalize(&two_set_agreement());
        let jobs = [
            StageJob::new(ArtifactKind::Split, canonical.clone()),
            StageJob::new(ArtifactKind::LinkGraphs, canonical.clone()),
            StageJob {
                explore: Some((3, "continuous tier undetermined".to_owned())),
                ..StageJob::new(ArtifactKind::Exploration, canonical)
            },
        ];
        for job in jobs {
            let line = stage_request_line(&job).unwrap();
            let Value::Object(entries) = serde_json::from_str(&line).unwrap() else {
                panic!("request must be an object");
            };
            let parsed = parse_stage_fields(&entries).unwrap();
            assert_eq!(parsed, job);
        }
    }

    #[test]
    fn stage_field_parser_names_every_rejection() {
        let canonical = chromata_task::canonicalize(&two_set_agreement());
        let task_json = serde_json::to_string(&canonical).unwrap();
        let cases: &[(String, &str)] = &[
            (r#"{"op":"stage"}"#.to_owned(), "needs a `stage`"),
            (r#"{"op":"stage","stage":7}"#.to_owned(), "must be a string"),
            (
                r#"{"op":"stage","stage":"split"}"#.to_owned(),
                "needs a `task`",
            ),
            (
                format!(r#"{{"op":"stage","stage":"warp","task":{task_json}}}"#),
                "unknown stage `warp`",
            ),
            (
                format!(r#"{{"op":"stage","stage":"explore","task":{task_json}}}"#),
                "needs a `rounds`",
            ),
            (
                format!(r#"{{"op":"stage","stage":"split","task":{task_json},"rounds":2}}"#),
                "only valid for stage `explore`",
            ),
            (
                format!(r#"{{"op":"stage","stage":"split","task":{task_json},"zap":1}}"#),
                "unknown field `zap`",
            ),
        ];
        for (line, needle) in cases {
            let Value::Object(entries) = serde_json::from_str::<Value>(line).unwrap() else {
                panic!("case must be an object: {line}");
            };
            let err = parse_stage_fields(&entries).unwrap_err();
            assert!(err.contains(needle), "{line}: expected {needle:?} in {err}");
        }
    }

    #[test]
    fn executed_artifacts_survive_the_checksum_and_decode() {
        let canonical = chromata_task::canonicalize(&hourglass());
        let job = StageJob::new(ArtifactKind::Split, canonical.clone());
        let response = execute_stage_line(&job).unwrap();
        let payload = artifact_payload(&response, "split").unwrap();
        let decoded = decode::<SplitStage>(&payload).unwrap();
        let local = SplitStage { canonical }.compute(&Budget::unlimited());
        assert_eq!(decoded.split.task, local.split.task);
        assert_eq!(decoded.split.steps.len(), local.split.steps.len());
    }

    #[test]
    fn corrupted_payloads_are_rejected_by_the_checksum() {
        let canonical = chromata_task::canonicalize(&hourglass());
        let job = StageJob::new(ArtifactKind::Split, canonical);
        let response = execute_stage_line(&job).unwrap();
        // Flip a byte inside the embedded artifact payload.
        let corrupted = response.replacen("split", "spl1t", 2);
        let err = artifact_payload(&corrupted, "split").unwrap_err();
        assert!(
            err.contains("checksum mismatch") || err.contains("not for stage"),
            "{err}"
        );
        // Truncation breaks the JSON framing.
        let truncated = &response[..response.len() / 2];
        assert!(artifact_payload(truncated, "split")
            .unwrap_err()
            .contains("malformed stage response"));
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let engine = RemoteEngine::new(Arc::new(InProcessShards::new(2)), RemotePolicy::default());
        let run = |seed: u64| {
            let mut rng = seed;
            let mut prev = engine.policy.base_backoff_ms.max(1);
            (0..8)
                .map(|_| engine.next_backoff(&mut rng, &mut prev).as_millis() as u64)
                .collect::<Vec<_>>()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed, same backoff schedule");
        for ms in &a {
            assert!(
                *ms >= engine.policy.base_backoff_ms && *ms <= engine.policy.max_backoff_ms,
                "backoff {ms}ms escaped [{}, {}]",
                engine.policy.base_backoff_ms,
                engine.policy.max_backoff_ms
            );
        }
    }

    #[test]
    fn routing_is_deterministic_and_rotates_on_retry() {
        let engine = RemoteEngine::new(Arc::new(InProcessShards::new(3)), RemotePolicy::default());
        let fp = 17u64;
        let first = engine.pick_shard(fp, 1, 3).unwrap();
        assert_eq!(first, engine.pick_shard(fp, 1, 3).unwrap());
        let second = engine.pick_shard(fp, 2, 3).unwrap();
        assert_eq!(
            second,
            (first + 1) % 3,
            "attempt 2 rotates to the next shard"
        );
    }

    #[test]
    fn ejection_and_probe_readmission_cycle() {
        struct FlakyIo {
            dead: std::sync::atomic::AtomicBool,
            pool: InProcessShards,
        }
        impl ShardIo for FlakyIo {
            fn shard_count(&self) -> usize {
                self.pool.shard_count()
            }
            fn exchange(
                &self,
                shard: usize,
                line: &str,
                deadline: Option<Duration>,
            ) -> Result<String, ShardIoError> {
                if self.dead.load(Ordering::Relaxed) {
                    return Err(ShardIoError::new(
                        ShardStep::Connect,
                        io::ErrorKind::ConnectionRefused,
                        "partitioned",
                    ));
                }
                self.pool.exchange(shard, line, deadline)
            }
        }
        let io = Arc::new(FlakyIo {
            dead: std::sync::atomic::AtomicBool::new(true),
            pool: InProcessShards::new(1),
        });
        let policy = RemotePolicy {
            attempts: 1,
            eject_after: 2,
            probe_every: 1,
            base_backoff_ms: 1,
            max_backoff_ms: 1,
            ..RemotePolicy::default()
        };
        let engine = RemoteEngine::new(Arc::clone(&io) as Arc<dyn ShardIo>, policy);
        let err = ShardIoError::new(
            ShardStep::Connect,
            io::ErrorKind::ConnectionRefused,
            "partitioned",
        );
        engine.note_fault("split", 0, 0, 1, &err);
        engine.note_fault("split", 0, 0, 1, &err);
        assert_eq!(engine.counters.snapshot().ejections, 1);
        // Still partitioned: the probe fails, no shard is available.
        assert_eq!(engine.pick_shard(0, 1, 1), None);
        // Healed: the next routing pass probes and re-admits.
        io.dead.store(false, Ordering::Relaxed);
        assert_eq!(engine.pick_shard(0, 1, 1), Some(0));
        let stats = engine.counters.snapshot();
        assert_eq!(stats.readmissions, 1);
        assert!(stats.probes >= 1);
        // The trace API is exercised for coverage; its contents are
        // asserted via the engine-level ring elsewhere.
        let _ = remote_fault_trace();
    }

    #[test]
    fn fault_traces_are_single_replayable_lines() {
        let engine = RemoteEngine::new(Arc::new(InProcessShards::new(2)), RemotePolicy::default());
        let err = ShardIoError::new(ShardStep::Recv, io::ErrorKind::TimedOut, "stalled");
        engine.note_fault("homology", 0xabcd, 1, 2, &err);
        let faults = lock(&engine.faults);
        assert_eq!(faults.len(), 1);
        let line = &faults[0];
        assert!(!line.contains('\n'));
        for needle in [
            "stage=homology",
            "shard=1",
            "attempt=2",
            "step=recv",
            "TimedOut",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        assert_eq!(engine.counters.snapshot().timeouts, 1);
    }

    /// A one-shard pool that records every request line and refuses it.
    struct Recorder(Mutex<Vec<String>>);

    impl ShardIo for Recorder {
        fn shard_count(&self) -> usize {
            1
        }

        fn exchange(
            &self,
            _shard: usize,
            line: &str,
            _deadline: Option<Duration>,
        ) -> Result<String, ShardIoError> {
            lock(&self.0).push(line.to_owned());
            Err(ShardIoError::new(
                ShardStep::Connect,
                io::ErrorKind::ConnectionRefused,
                "recorded",
            ))
        }
    }

    /// The request line `stage` ships and the routing fingerprint its
    /// dispatch uses, read back from the fault trace.
    fn dispatched<S: Stage>(stage: &S) -> (String, usize, String) {
        let io = Arc::new(Recorder(Mutex::new(Vec::new())));
        let policy = RemotePolicy {
            attempts: 1,
            ..RemotePolicy::default()
        };
        let engine = RemoteEngine::new(Arc::clone(&io) as Arc<dyn ShardIo>, policy);
        let budget = Budget::unlimited();
        let job = stage.job(&budget).expect("shippable under no budget");
        assert!(engine.fetch(stage, &stage.key(), &job, &budget).is_none());
        let line = lock(&io.0).pop().expect("one request line");
        let trace = lock(&engine.faults).pop_back().expect("one fault trace");
        let route = trace
            .split(' ')
            .find_map(|field| field.strip_prefix("key="))
            .expect("the trace names the routing key")
            .to_owned();
        (
            format!("{:016x}", fnv1a(line.as_bytes())),
            line.len(),
            route,
        )
    }

    #[test]
    fn stage_wire_and_routing_bytes_are_pinned() {
        // Workers of other builds parse these lines, and shard homes,
        // retry rotation and backoff seeds follow the routing
        // fingerprint: each is pinned per stage kind on canonical
        // hourglass (FNV-1a and length of the request line).
        let budget = Budget::unlimited();
        let canonical = chromata_task::canonicalize(&hourglass());
        let split = SplitStage { canonical };
        let task = split.compute(&budget).split.task.clone();
        let branch = branch_tasks(&task)[0].clone();
        let links = LinkStage {
            task: branch.clone(),
        };
        let presentations = PresentationStage {
            task: branch,
            links: links.compute(&budget),
        };
        let store = ArtifactStore::with_capacity(8);
        let homology: HomologyStage = homology_stage(&task, &store, &budget, None).0;
        let explore = ExploreStage {
            task,
            undetermined_reason: "r".to_owned(),
            configured_rounds: 3,
            cancel: CancelToken::new(),
        };
        let pins = [
            dispatched(&split),
            dispatched(&links),
            dispatched(&presentations),
            dispatched(&homology),
            dispatched(&explore),
        ];
        let expected = [
            ("96fc6106d383dc14", 3_239, "413135fbf45df5b9"),
            ("8e554e9c7030fec8", 3_403, "f470539eef5879a9"),
            ("8f9913efb01cf645", 3_405, "76ef34fa886f0246"),
            ("fab693521beebf68", 3_410, "d7ccddcb1ea3fa2e"),
            ("90be3815f6ed2963", 3_433, "0644ae2e7c30f19f"),
        ]
        .map(|(line, len, route)| (line.to_owned(), len, route.to_owned()));
        assert_eq!(pins, expected);

        // The worker's answer to the link-graphs job, checksum and bytes.
        let response = execute_stage_line(&links.job(&budget).unwrap()).unwrap();
        let value: Value = serde_json::from_str(&response).unwrap();
        assert_eq!(value["check"], Value::String("8174d412a934712f".to_owned()));
        assert_eq!(
            (
                format!("{:016x}", fnv1a(response.as_bytes())),
                response.len()
            ),
            ("5990ccf554f4091a".to_owned(), 2_975)
        );
    }

    #[test]
    fn stage_jobs_reject_tasks_beyond_three_processes() {
        // The characterization covers at most three processes: a stage
        // job on a four-process task is rejected when it is parsed —
        // before any stage runs or caches — with the `analyze` op's
        // message, and an in-process shard answers one error line.
        let task = identity_task(4);
        let pool = InProcessShards::new(1);
        let explore = StageJob {
            explore: Some((1, String::new())),
            ..StageJob::new(ArtifactKind::Exploration, task.clone())
        };
        let kinds = [
            ArtifactKind::Split,
            ArtifactKind::LinkGraphs,
            ArtifactKind::Presentations,
            ArtifactKind::Homology,
        ];
        let jobs = kinds.map(|kind| StageJob::new(kind, task.clone()));
        let message =
            "task `identity-4` has 4 processes; the characterization covers at most three";
        for job in jobs.iter().chain([&explore]) {
            let line = stage_request_line(job).unwrap();
            let Value::Object(entries) = serde_json::from_str(&line).unwrap() else {
                panic!("request must be an object");
            };
            assert_eq!(parse_stage_fields(&entries), Err(message.to_owned()));
            let answer = pool.exchange(0, &line, None).unwrap();
            assert_eq!(
                answer,
                format!(r#"{{"status":"error","error":"{message}"}}"#),
                "{}",
                job.kind
            );
        }
    }

    #[test]
    fn explore_jobs_are_pinned_local_under_constrained_budgets() {
        let stage = ExploreStage {
            task: chromata_task::canonicalize(&two_set_agreement()),
            undetermined_reason: "r".to_owned(),
            configured_rounds: 4,
            cancel: CancelToken::new(),
        };
        assert!(stage.job(&Budget::unlimited()).is_some());
        assert!(stage
            .job(&Budget::unlimited().with_deadline_in(Duration::from_secs(5)))
            .is_none());
        assert!(stage
            .job(&Budget::unlimited().with_max_states(10))
            .is_none());
        assert!(stage
            .job(&Budget::unlimited().with_max_act_rounds(2))
            .is_none());
    }
}
