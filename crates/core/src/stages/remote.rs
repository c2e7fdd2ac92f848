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
//! * **routing** — a stage's home shard is its interned cache-key
//!   fingerprint modulo the pool size; attempt `k` rotates to the next
//!   shard, so retries naturally migrate off a sick machine;
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
//! [`super::run`]: `run_engine` passes the configured engine down, the
//! worker side ([`execute_stage_line`]) passes none.
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

use super::artifacts::{
    ExplorationReport, HomologyReport, LinkGraphs, Presentations, SubdividedComplex,
};
use super::cache;
use super::{
    run, ExploreStage, HomologyStage, LinkStage, PresentationStage, SplitStage, Stage, StageOrigin,
};
use crate::continuous::ContinuousOutcome;

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

/// One unit of remotely executable work: a stage plus the task-shaped
/// key it runs on. The worker recomputes prerequisite artifacts from
/// the task via its own (warm) stage caches, so a job is self-contained
/// and idempotent — dispatching it twice, to two shards, or after a
/// partial failure cannot change any artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StageJob {
    /// §4 splitting of a canonical three-process task.
    Split {
        /// The canonical task to split.
        canonical: Task,
    },
    /// Link graphs of a split task.
    Links {
        /// The split task.
        task: Task,
    },
    /// π₁ presentations of a split task (links recomputed shard-side).
    Presentations {
        /// The split task.
        task: Task,
    },
    /// The continuous-map tiers of a split task.
    Homology {
        /// The split task.
        task: Task,
    },
    /// The bounded ACT exploration ladder. Only dispatched for fully
    /// unconstrained budgets (see [`DistStage::job`]), so the shard's
    /// unlimited-budget run is bit-identical to the local one.
    Explore {
        /// The split task.
        task: Task,
        /// Configured round cap (part of the cache key).
        rounds: usize,
        /// Why the continuous tier was undetermined (feeds the verdict
        /// text, hence the evidence digest — it must travel).
        reason: String,
    },
}

impl StageJob {
    /// The stage name the job executes (matches [`Stage::NAME`]).
    #[must_use]
    pub fn stage_name(&self) -> &'static str {
        match self {
            StageJob::Split { .. } => SplitStage::NAME,
            StageJob::Links { .. } => LinkStage::NAME,
            StageJob::Presentations { .. } => PresentationStage::NAME,
            StageJob::Homology { .. } => HomologyStage::NAME,
            StageJob::Explore { .. } => ExploreStage::NAME,
        }
    }

    /// The task the job runs on.
    #[must_use]
    pub fn task(&self) -> &Task {
        match self {
            StageJob::Split { canonical } => canonical,
            StageJob::Links { task }
            | StageJob::Presentations { task }
            | StageJob::Homology { task }
            | StageJob::Explore { task, .. } => task,
        }
    }

    /// Deterministic routing fingerprint: the interned cache key of the
    /// stage, salted with the stage name so co-keyed stages of one task
    /// spread across the pool.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        match self {
            StageJob::Explore { task, rounds, .. } => {
                structural_fingerprint(&(self.stage_name(), task, *rounds))
            }
            // Homology is keyed (and therefore homed) on the branch
            // decomposition, matching its cache key.
            StageJob::Homology { task } => {
                structural_fingerprint(&(self.stage_name(), super::branch_tasks(task)))
            }
            _ => structural_fingerprint(&(self.stage_name(), self.task())),
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
        ("stage", Value::String(job.stage_name().to_owned())),
        ("task", serde_json::to_value(job.task())),
    ];
    if let StageJob::Explore { rounds, reason, .. } = job {
        fields.push(("rounds", Value::UInt(*rounds as u64)));
        fields.push(("reason", Value::String(reason.clone())));
    }
    serde_json::to_string(&Value::object(fields))
        .map_err(|e| format!("stage request: serialization failed: {e}"))
}

/// Parses the fields of an already-framed `op: "stage"` request object
/// (the CLI wire layer owns framing; this layer owns the payload).
/// Every rejection names the offending field.
///
/// # Errors
///
/// Returns a message naming the missing, unknown, or ill-typed field.
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
    let extras_forbidden = |job: StageJob| -> Result<StageJob, String> {
        if rounds.is_some() || reason.is_some() {
            return Err(format!(
                "fields `rounds`/`reason` are only valid for stage `{}`",
                ExploreStage::NAME
            ));
        }
        Ok(job)
    };
    match stage.as_str() {
        "split" => extras_forbidden(StageJob::Split { canonical: task }),
        "link-graphs" => extras_forbidden(StageJob::Links { task }),
        "presentations" => extras_forbidden(StageJob::Presentations { task }),
        "homology" => extras_forbidden(StageJob::Homology { task }),
        "explore" => {
            let Some(rounds) = rounds else {
                return Err("stage `explore` needs a `rounds` field".to_owned());
            };
            Ok(StageJob::Explore {
                task,
                rounds,
                reason: reason.unwrap_or_default(),
            })
        }
        other => Err(format!(
            "unknown stage `{other}`; expected split, link-graphs, presentations, homology or explore"
        )),
    }
}

/// Executes a [`StageJob`] against this process's [`ArtifactStore`] and
/// renders the one-line response: the serialized artifact (as an
/// embedded JSON string) plus its FNV-1a checksum, so a dispatcher can
/// reject any truncated or corrupted payload before deserializing.
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
/// Returns a message if the artifact fails to (de)serialize.
pub fn execute_stage_line(job: &StageJob) -> Result<String, String> {
    let store = cache::store();
    let budget = Budget::unlimited();
    let payload = match job {
        StageJob::Split { canonical } => {
            let stage = SplitStage {
                canonical: canonical.clone(),
            };
            serde_json::to_string(&*run(&stage, store, &budget, None).artifact)
        }
        StageJob::Links { task } => {
            let stage = LinkStage { task: task.clone() };
            serde_json::to_string(&*run(&stage, store, &budget, None).artifact)
        }
        StageJob::Presentations { task } => {
            let links = run(&LinkStage { task: task.clone() }, store, &budget, None).artifact;
            let stage = PresentationStage {
                task: task.clone(),
                links,
            };
            serde_json::to_string(&*run(&stage, store, &budget, None).artifact)
        }
        StageJob::Homology { task } => {
            let branches = super::branch_tasks(task);
            let (links, branch_links, _) = super::run_links(task, &branches, store, &budget, None);
            let (presentations, _) =
                super::run_presentations(&branches, &branch_links, &links, store, &budget, None);
            let stage = HomologyStage {
                task: task.clone(),
                branches,
                links,
                presentations,
            };
            serde_json::to_string(&*run(&stage, store, &budget, None).artifact)
        }
        StageJob::Explore {
            task,
            rounds,
            reason,
        } => {
            let stage = ExploreStage {
                task: task.clone(),
                undetermined_reason: reason.clone(),
                configured_rounds: *rounds,
                cancel: CancelToken::new(),
            };
            serde_json::to_string(&*run(&stage, store, &budget, None).artifact)
        }
    }
    .map_err(|e| {
        format!(
            "stage `{}`: artifact serialization failed: {e}",
            job.stage_name()
        )
    })?;
    let check = fnv1a(payload.as_bytes());
    serde_json::to_string(&Value::object([
        ("status", Value::String("ok".to_owned())),
        ("op", Value::String("stage".to_owned())),
        ("proto", Value::UInt(STAGE_PROTO_VERSION)),
        ("stage", Value::String(job.stage_name().to_owned())),
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

// ---------------------------------------------------------------------------
// Stage → job mapping (dispatcher side)
// ---------------------------------------------------------------------------

/// A [`Stage`] the engine knows how to ship: how to phrase it as a
/// [`StageJob`] (or decline, pinning it local) and how to deserialize
/// its artifact from a shard's payload.
pub(crate) trait DistStage: Stage {
    /// The wire job for this stage instance, or `None` when the stage
    /// must run locally to stay bit-identical under `budget`.
    fn job(&self, budget: &Budget) -> Option<StageJob>;

    /// Deserializes the checksum-verified artifact payload.
    fn decode(payload: &str) -> Result<Self::Artifact, String>;

    /// Semantic re-validation of a decoded artifact against the stage's
    /// own inputs. A checksum only proves the payload arrived as the
    /// shard sent it; a buggy or adversarial shard can still send a
    /// *well-formed but wrong* artifact — wrong branch count, a
    /// non-canonical split task, an assignment over the wrong vertex
    /// set. A rejection here is counted as `invalid_artifact` in the
    /// fault taxonomy and the engine retries / falls back local; the
    /// artifact is never accepted.
    fn admissible(&self, _artifact: &Self::Artifact) -> Result<(), String> {
        Ok(())
    }
}

fn decode_as<T: serde::Deserialize>(payload: &str, stage: &str) -> Result<Arc<T>, String> {
    serde_json::from_str::<T>(payload)
        .map(Arc::new)
        .map_err(|e| format!("stage `{stage}`: artifact deserialization failed: {e}"))
}

impl DistStage for SplitStage {
    fn job(&self, _budget: &Budget) -> Option<StageJob> {
        Some(StageJob::Split {
            canonical: self.canonical.clone(),
        })
    }

    fn decode(payload: &str) -> Result<Arc<SubdividedComplex>, String> {
        decode_as(payload, Self::NAME)
    }

    fn admissible(&self, artifact: &Arc<SubdividedComplex>) -> Result<(), String> {
        let split = &artifact.split;
        if split.task.process_count() != self.canonical.process_count() {
            return Err(format!(
                "split task has {} processes, canonical input has {}",
                split.task.process_count(),
                self.canonical.process_count()
            ));
        }
        // Splitting deforms the output complex and the carrier only;
        // the input complex must survive untouched.
        if split.task.input() != self.canonical.input() {
            return Err("split task's input complex differs from the canonical task's".to_owned());
        }
        if let Some(witness) = &split.degenerate {
            if !self.canonical.input().vertices().any(|v| v == witness) {
                return Err(format!(
                    "degenerate witness `{witness}` is not an input vertex"
                ));
            }
        }
        Ok(())
    }
}

impl DistStage for LinkStage {
    fn job(&self, _budget: &Budget) -> Option<StageJob> {
        Some(StageJob::Links {
            task: self.task.clone(),
        })
    }

    fn decode(payload: &str) -> Result<Arc<LinkGraphs>, String> {
        decode_as(payload, Self::NAME)
    }

    fn admissible(&self, artifact: &Arc<LinkGraphs>) -> Result<(), String> {
        let input = self.task.input();
        if !artifact.vertices.iter().eq(input.vertices()) {
            return Err("link-graph vertex list differs from the task's input vertices".to_owned());
        }
        if !artifact.edges.iter().eq(input.simplices_of_dim(1)) {
            return Err("link-graph edge list differs from the task's input edges".to_owned());
        }
        if !artifact.triangles.iter().eq(input.simplices_of_dim(2)) {
            return Err(format!(
                "link-graph triangle list has {} branches, the task has {}",
                artifact.triangles.len(),
                input.simplices_of_dim(2).count()
            ));
        }
        if artifact.domains.len() != artifact.vertices.len()
            || artifact.edge_graphs.len() != artifact.edges.len()
            || artifact.edge_cycles.len() != artifact.edges.len()
        {
            return Err("link-graph parallel arrays disagree in length".to_owned());
        }
        Ok(())
    }
}

impl DistStage for PresentationStage {
    fn job(&self, _budget: &Budget) -> Option<StageJob> {
        Some(StageJob::Presentations {
            task: self.task.clone(),
        })
    }

    fn decode(payload: &str) -> Result<Arc<Presentations>, String> {
        decode_as(payload, Self::NAME)
    }

    fn admissible(&self, artifact: &Arc<Presentations>) -> Result<(), String> {
        let triangles = self.task.input().simplices_of_dim(2).count();
        if artifact.per_triangle.len() != triangles {
            return Err(format!(
                "presentations cover {} triangles, the task has {}",
                artifact.per_triangle.len(),
                triangles
            ));
        }
        Ok(())
    }
}

impl DistStage for HomologyStage {
    fn job(&self, _budget: &Budget) -> Option<StageJob> {
        Some(StageJob::Homology {
            task: self.task.clone(),
        })
    }

    fn decode(payload: &str) -> Result<Arc<HomologyReport>, String> {
        decode_as(payload, Self::NAME)
    }

    fn admissible(&self, artifact: &Arc<HomologyReport>) -> Result<(), String> {
        if let ContinuousOutcome::Exists { assignment, .. } = &artifact.outcome {
            let input = self.task.input();
            let vertex_count = input.vertices().count();
            if assignment.len() != vertex_count {
                return Err(format!(
                    "witness assigns {} vertices, the task's input has {}",
                    assignment.len(),
                    vertex_count
                ));
            }
            for (x, g_x) in assignment {
                if !input.vertices().any(|v| v == x) {
                    return Err(format!("witness assigns non-input vertex `{x}`"));
                }
                if !self.task.output().vertices().any(|v| v == g_x) {
                    return Err(format!(
                        "witness maps `{x}` to `{g_x}`, which is not an output vertex"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl DistStage for ExploreStage {
    /// The exploration ladder reads the budget (deadline escalation,
    /// state/step/round caps), so shipping it under a constrained
    /// budget would diverge from the local run. It is remote-eligible
    /// only when the budget cannot influence the result — exactly the
    /// condition under which its artifact is cacheable at the
    /// configured cap.
    fn job(&self, budget: &Budget) -> Option<StageJob> {
        let unconstrained = budget.deadline.is_none()
            && budget.max_states == usize::MAX
            && budget.max_steps == usize::MAX
            && budget.max_act_rounds >= self.configured_rounds;
        if !unconstrained {
            return None;
        }
        Some(StageJob::Explore {
            task: self.task.clone(),
            rounds: self.configured_rounds,
            reason: self.undetermined_reason.clone(),
        })
    }

    fn decode(payload: &str) -> Result<Arc<ExplorationReport>, String> {
        decode_as(payload, Self::NAME)
    }

    fn admissible(&self, artifact: &Arc<ExplorationReport>) -> Result<(), String> {
        if artifact.rounds_cap > self.configured_rounds {
            return Err(format!(
                "exploration reports a round cap of {}, beyond the configured {}",
                artifact.rounds_cap, self.configured_rounds
            ));
        }
        Ok(())
    }
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
    pub(crate) fn fetch<S: DistStage>(
        &self,
        stage: &S,
        job: &StageJob,
        budget: &Budget,
    ) -> Option<(S::Artifact, StageOrigin)> {
        let line = stage_request_line(job).ok()?;
        let pool = self.io.shard_count();
        if pool == 0 {
            return None;
        }
        let fingerprint = job.fingerprint();
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
                    let decoded = artifact_payload(&text, S::NAME)
                        .and_then(|payload| S::decode(&payload))
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
                            self.note_fault(S::NAME, fingerprint, shard, attempt, &err);
                        }
                    }
                }
                Err(err) => {
                    self.note_fault(S::NAME, fingerprint, shard, attempt, &err);
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
/// ring; see [`note_fault`](RemoteEngine::note_fault) for the format).
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
    use chromata_task::library::{hourglass, two_set_agreement};

    #[test]
    fn job_lines_round_trip_through_the_parser() {
        let canonical = chromata_task::canonicalize(&two_set_agreement());
        let jobs = [
            StageJob::Split {
                canonical: canonical.clone(),
            },
            StageJob::Links {
                task: canonical.clone(),
            },
            StageJob::Explore {
                task: canonical,
                rounds: 3,
                reason: "continuous tier undetermined".to_owned(),
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
        let job = StageJob::Split {
            canonical: canonical.clone(),
        };
        let response = execute_stage_line(&job).unwrap();
        let payload = artifact_payload(&response, "split").unwrap();
        let decoded = SplitStage::decode(&payload).unwrap();
        let local = SplitStage { canonical }.compute(&Budget::unlimited());
        assert_eq!(decoded.split.task, local.split.task);
        assert_eq!(decoded.split.steps.len(), local.split.steps.len());
    }

    #[test]
    fn corrupted_payloads_are_rejected_by_the_checksum() {
        let canonical = chromata_task::canonicalize(&hourglass());
        let job = StageJob::Split { canonical };
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
