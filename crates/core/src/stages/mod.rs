//! The staged verdict engine (architecture layer under [`crate::analyze`]).
//!
//! The decision procedure is inherently staged — canonicalize, split
//! (§4), build link graphs, derive π₁ presentations, run the
//! homology/word-problem tiers (§5), fall back to the bounded ACT
//! exploration — and this module makes the stages explicit:
//!
//! ```text
//! canonicalize ─▶ split ─▶ link-graphs ─▶ presentations ─▶ homology ─▶ explore
//!     (live)    [cached]     [cached]        [cached]       [cached]   [cached]
//! ```
//!
//! Every stage implements [`Stage`], the one declaration of a stage
//! kind: its [`ArtifactKind`] (which also names it), its cache and
//! cache key, how it computes its artifact, how it ships as a
//! [`remote::StageJob`] and how a shard's answer is re-validated. The
//! artifact type carries the one cacheability predicate
//! ([`cache::Cacheable`]). One `run` function runs any stage against
//! the [`ArtifactStore`], locally or through
//! [`remote`], returning its typed artifact plus a [`StageEvidence`]
//! record (detail, work counter, cache event, wall clock). The engine
//! threads the evidence into the
//! [`EvidenceChain`] every [`crate::Analysis`] now carries, which is
//! what `chromata explain` prints.
//!
//! Since PR 9 the link-graph and presentation stages are keyed **per
//! split branch**: the split task is decomposed into one name-erased
//! single-facet sub-task per input facet (see `branch_tasks`), each
//! branch artifact is cached under that sub-task alone, and the global
//! artifact is assembled from the branch parts. Two tasks whose splits
//! overlap — a batch of near-duplicates, or one task across edits —
//! share every common branch artifact; the sharing is observable as the
//! `reuse_hits` cache counter and the per-stage
//! [`StageEvidence::reused`] flag, while verdicts and
//! [`EvidenceChain::deterministic_digest`] stay byte-identical to a
//! cold whole-task run.

pub mod artifacts;
pub mod cache;
pub mod chaos;
pub mod persist;
pub mod remote;

use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;
use std::time::Duration;

use chromata_task::{canonicalize, facet_restriction, Task};
use chromata_topology::{structural_fingerprint, Budget, CancelToken, Stopwatch};

use crate::act::solve_act_governed_with_stats;
use crate::act::ActOutcome;
use crate::continuous::{continuous_map_exists_with, ContinuousOutcome, ImpossibilityReason};
use crate::pipeline::{Analysis, Obstruction, PipelineOptions, Verdict};
use crate::splitting::{split_all, SplitOutcome};

use artifacts::{
    exists_summary, ExplorationReport, HomologyReport, LinkGraphs, Presentations,
    SubdividedComplex, TrianglePresentations,
};
use cache::{ArtifactKind, ArtifactStore, Cacheable, SharedCache};
use remote::StageJob;

/// How a stage's artifact interacted with its cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheEvent {
    /// Served from the stage cache without recomputation.
    Hit,
    /// Computed by the stage and inserted into the cache.
    Miss,
    /// Computed but not cached (budget-dependent or per-call work).
    Uncached,
    /// Replayed from a cached verdict record (the stage did not run).
    Replayed,
}

impl CacheEvent {
    /// Stable lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CacheEvent::Hit => "hit",
            CacheEvent::Miss => "miss",
            CacheEvent::Uncached => "uncached",
            CacheEvent::Replayed => "replay",
        }
    }
}

impl fmt::Display for CacheEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a stage's artifact was computed. Circumstantial provenance —
/// like [`StageEvidence::wall`] and [`StageEvidence::cache`] it is
/// excluded from [`EvidenceChain::deterministic_digest`], so a
/// shard-computed analysis and a single-machine run agree byte-for-byte
/// on their digests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageOrigin {
    /// Computed in-process (no remote engine configured, a cache hit,
    /// or a budget-sensitive stage pinned local for determinism).
    Local,
    /// Fetched from a worker shard on the given dispatch attempt
    /// (1-based).
    Shard {
        /// Shard index within the configured pool.
        shard: usize,
        /// Dispatch attempt that succeeded (1 = first try).
        attempt: u32,
    },
    /// Every remote option was exhausted; the stage was recomputed
    /// locally (graceful degradation, never a missing artifact).
    LocalFallback,
}

impl StageOrigin {
    /// Stable label, e.g. `local`, `shard-1#2`, `local-fallback`.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            StageOrigin::Local => "local".to_owned(),
            StageOrigin::Shard { shard, attempt } => format!("shard-{shard}#{attempt}"),
            StageOrigin::LocalFallback => "local-fallback".to_owned(),
        }
    }
}

impl fmt::Display for StageOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One stage's contribution to an analysis: what it concluded, how much
/// work it did, and how it interacted with its cache.
#[derive(Clone, Debug)]
pub struct StageEvidence {
    /// Stage name (one of the engine's fixed stage names).
    pub stage: &'static str,
    /// Deterministic human-readable summary of the artifact.
    pub detail: String,
    /// Deterministic work counter (facets, assignments, search nodes …).
    pub work: u64,
    /// Cache interaction for this run.
    pub cache: CacheEvent,
    /// Wall-clock time the stage took in this run (zero when replayed).
    /// Excluded from [`EvidenceChain::deterministic_digest`].
    pub wall: Duration,
    /// Which machine computed the artifact (shard, local, or fallback).
    /// Excluded from [`EvidenceChain::deterministic_digest`].
    pub origin: StageOrigin,
    /// Whether any part of the artifact was served from a cache — for
    /// branch-keyed stages, whether at least one branch hit. Excluded
    /// from [`EvidenceChain::deterministic_digest`] (it legitimately
    /// differs between cold and warm runs).
    pub reused: bool,
    /// How many sub-task (branch) keys the stage consulted: the branch
    /// count for branch-keyed stages, 0 for whole-task stages and
    /// replays. Excluded from [`EvidenceChain::deterministic_digest`].
    pub subkeys: usize,
}

/// The full evidence chain of one analysis: every stage that ran (or
/// was replayed from the verdict cache) plus the stage that decided.
#[derive(Clone, Debug)]
pub struct EvidenceChain {
    /// Per-stage evidence, in execution order.
    pub stages: Vec<StageEvidence>,
    /// Name of the stage whose answer became the verdict.
    pub decided_by: &'static str,
}

impl EvidenceChain {
    pub(crate) fn new() -> Self {
        EvidenceChain {
            stages: Vec::new(),
            decided_by: "unknown",
        }
    }

    /// A fingerprint over the *deterministic* parts of the chain — stage
    /// names, details, work counters and the deciding stage — excluding
    /// wall-clock and cache events, which legitimately differ between a
    /// cold and a warm run of the same analysis. Two analyses of the
    /// same task under the same options always agree on this digest,
    /// whether run alone, repeated, or inside [`crate::analyze_batch`].
    #[must_use]
    pub fn deterministic_digest(&self) -> u64 {
        let parts: Vec<(&str, &str, u64)> = self
            .stages
            .iter()
            .map(|s| (s.stage, s.detail.as_str(), s.work))
            .collect();
        structural_fingerprint(&(parts, self.decided_by))
    }
}

impl fmt::Display for EvidenceChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "decided by: {}", self.decided_by)?;
        for s in &self.stages {
            write!(
                f,
                "  {:<13} {:<8} work {:>8}  {:>9.3}ms  {}",
                s.stage,
                s.cache,
                s.work,
                s.wall.as_secs_f64() * 1e3,
                s.detail,
            )?;
            if s.origin != StageOrigin::Local {
                write!(f, "  [{}]", s.origin)?;
            }
            if s.reused && s.subkeys > 0 {
                write!(f, "  [reused across {} sub-key(s)]", s.subkeys)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The compact, replayable form of a stage's evidence stored in the
/// verdict cache: everything deterministic, nothing circumstantial.
#[derive(Clone, Debug)]
pub(crate) struct StageTrace {
    pub stage: &'static str,
    pub detail: String,
    pub work: u64,
}

impl StageTrace {
    pub(crate) fn of(ev: &StageEvidence) -> Self {
        StageTrace {
            stage: ev.stage,
            detail: ev.detail.clone(),
            work: ev.work,
        }
    }

    pub(crate) fn replay(&self) -> StageEvidence {
        StageEvidence {
            stage: self.stage,
            detail: self.detail.clone(),
            work: self.work,
            cache: CacheEvent::Replayed,
            wall: Duration::ZERO,
            origin: StageOrigin::Local,
            reused: true,
            subkeys: 0,
        }
    }
}

/// What the verdict cache stores: the verdict, the deciding stage, and
/// the deterministic traces of the post-split stages that produced it,
/// so a cache hit replays the identical evidence chain.
#[derive(Clone, Debug)]
pub(crate) struct DecisionRecord {
    pub verdict: Verdict,
    pub decided_by: &'static str,
    pub stages: Vec<StageTrace>,
}

/// A stage's result: the typed artifact plus its evidence record.
pub struct StageOutcome<A> {
    /// The artifact the stage produced (or fetched from its cache).
    pub artifact: A,
    /// The evidence record for this run.
    pub evidence: StageEvidence,
}

/// One stage of the verdict engine, declared once: its kind (which names
/// it in evidence, on the wire and in snapshot files), its cache and
/// structural-fingerprint cache key, a `compute` that `run` calls on a
/// cache miss, and how it ships to a shard. `run` serves the typed
/// artifact from the stage's bounded cache or computes (or fetches) and
/// caches it, always emitting a [`StageEvidence`] record.
pub trait Stage {
    /// Which [`ArtifactKind`] cache the stage uses; its name is the
    /// stage's evidence label and wire name.
    const KIND: ArtifactKind;
    /// Cache key; its structural fingerprint orders poison recovery and,
    /// salted with the stage name, homes the stage's shard job.
    type Key: Clone + Eq + Hash;
    /// The typed artifact the stage produces.
    type Artifact: Cacheable;

    /// The cache key for this stage instance.
    fn key(&self) -> Self::Key;
    /// The stage's cache within the store.
    fn cache(store: &ArtifactStore) -> &SharedCache<Self::Key, Self::Artifact>;
    /// Computes the artifact (cache miss path).
    fn compute(&self, budget: &Budget) -> Self::Artifact;
    /// Deterministic one-line summary of an artifact.
    fn detail(artifact: &Self::Artifact) -> String;
    /// Deterministic work counter of an artifact.
    fn work(artifact: &Self::Artifact) -> u64;
    /// The wire job for this stage instance, or `None` when the stage
    /// must run locally to stay bit-identical under `budget`.
    fn job(&self, budget: &Budget) -> Option<StageJob>;
    /// Semantic re-validation of a shard-computed artifact against the
    /// stage's own inputs. A checksum only proves the payload arrived as
    /// the shard sent it; a buggy or adversarial shard can still send a
    /// *well-formed but wrong* artifact — wrong branch count, a
    /// non-canonical split task, an assignment over the wrong vertex
    /// set. A rejection here is counted as `invalid_artifact` in the
    /// fault taxonomy and the engine retries / falls back local; the
    /// artifact is never accepted.
    fn admissible(&self, _artifact: &Self::Artifact) -> Result<(), String> {
        Ok(())
    }
}

/// Runs one stage — the only place a stage runs: cache lookup; on a
/// miss, the artifact fetched through `remote` or computed here, outside
/// the lock (a racing miss recomputes the same artifact); insert if
/// cacheable; evidence emission. Fetched and computed artifacts are
/// cached alike, so warm-path behavior is identical machine-wide.
pub(crate) fn run<S: Stage>(
    stage: &S,
    store: &ArtifactStore,
    budget: &Budget,
    remote: Option<&remote::RemoteEngine>,
) -> StageOutcome<S::Artifact> {
    let clock = Stopwatch::start();
    let key = stage.key();
    if let Some(hit) = S::cache(store).lock().get(&key) {
        let evidence = StageEvidence {
            stage: S::KIND.name(),
            detail: S::detail(&hit),
            work: S::work(&hit),
            cache: CacheEvent::Hit,
            wall: clock.elapsed(),
            origin: StageOrigin::Local,
            reused: true,
            subkeys: 0,
        };
        return StageOutcome {
            artifact: hit,
            evidence,
        };
    }
    // Without a pool, or for a stage pinned local (budget-sensitive),
    // compute here; when every remote option fails, recompute here.
    let shipped = remote.and_then(|engine| Some((engine, stage.job(budget)?)));
    let (artifact, origin) = match shipped {
        Some((engine, job)) => engine
            .fetch(stage, &key, &job, budget)
            .unwrap_or_else(|| (stage.compute(budget), StageOrigin::LocalFallback)),
        None => (stage.compute(budget), StageOrigin::Local),
    };
    let cache = if artifact.cacheable() {
        S::cache(store).lock().insert(key, artifact.clone());
        CacheEvent::Miss
    } else {
        CacheEvent::Uncached
    };
    let evidence = StageEvidence {
        stage: S::KIND.name(),
        detail: S::detail(&artifact),
        work: S::work(&artifact),
        cache,
        wall: clock.elapsed(),
        origin,
        reused: false,
        subkeys: 0,
    };
    StageOutcome { artifact, evidence }
}

/// §4 splitting of a canonical three-process task.
pub(crate) struct SplitStage {
    pub canonical: Task,
}

impl Stage for SplitStage {
    const KIND: ArtifactKind = ArtifactKind::Split;
    type Key = Task;
    type Artifact = Arc<SubdividedComplex>;

    fn key(&self) -> Task {
        self.canonical.clone()
    }

    fn cache(store: &ArtifactStore) -> &SharedCache<Task, Arc<SubdividedComplex>> {
        &store.split
    }

    fn compute(&self, _budget: &Budget) -> Arc<SubdividedComplex> {
        Arc::new(SubdividedComplex {
            split: split_all(&self.canonical),
        })
    }

    fn job(&self, _budget: &Budget) -> Option<StageJob> {
        Some(StageJob::new(Self::KIND, self.canonical.clone()))
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

    fn detail(artifact: &Arc<SubdividedComplex>) -> String {
        let split = &artifact.split;
        match &split.degenerate {
            Some(x) => format!(
                "{} split step(s); degenerate at input vertex {x}",
                split.steps.len()
            ),
            None => format!(
                "{} split step(s); O' = {} facet(s)",
                split.steps.len(),
                split.task.output().facet_count()
            ),
        }
    }

    fn work(artifact: &Arc<SubdividedComplex>) -> u64 {
        artifact.split.steps.len() as u64
    }
}

/// Vertex domains, edge image graphs and triangle lists of the split task.
pub(crate) struct LinkStage {
    pub task: Task,
}

impl Stage for LinkStage {
    const KIND: ArtifactKind = ArtifactKind::LinkGraphs;
    type Key = Task;
    type Artifact = Arc<LinkGraphs>;

    fn key(&self) -> Task {
        self.task.clone()
    }

    fn cache(store: &ArtifactStore) -> &SharedCache<Task, Arc<LinkGraphs>> {
        &store.links
    }

    fn compute(&self, _budget: &Budget) -> Arc<LinkGraphs> {
        Arc::new(LinkGraphs::build(&self.task))
    }

    fn job(&self, _budget: &Budget) -> Option<StageJob> {
        Some(StageJob::new(Self::KIND, self.task.clone()))
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

    fn detail(artifact: &Arc<LinkGraphs>) -> String {
        format!(
            "{} vertex domain(s), {} edge graph(s), {} triangle(s)",
            artifact.vertices.len(),
            artifact.edges.len(),
            artifact.triangles.len()
        )
    }

    fn work(artifact: &Arc<LinkGraphs>) -> u64 {
        (artifact.vertices.len() + artifact.edges.len() + artifact.triangles.len()) as u64
    }
}

/// π₁ presentations and chain complexes per triangle image component.
pub(crate) struct PresentationStage {
    pub task: Task,
    pub links: Arc<LinkGraphs>,
}

impl Stage for PresentationStage {
    const KIND: ArtifactKind = ArtifactKind::Presentations;
    type Key = Task;
    type Artifact = Arc<Presentations>;

    fn key(&self) -> Task {
        self.task.clone()
    }

    fn cache(store: &ArtifactStore) -> &SharedCache<Task, Arc<Presentations>> {
        &store.presentations
    }

    fn compute(&self, _budget: &Budget) -> Arc<Presentations> {
        Arc::new(Presentations::build(&self.task, &self.links))
    }

    fn job(&self, _budget: &Budget) -> Option<StageJob> {
        Some(StageJob::new(Self::KIND, self.task.clone()))
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

    fn detail(artifact: &Arc<Presentations>) -> String {
        format!(
            "{} component presentation(s) across {} triangle(s); {} fully simply connected",
            artifact.component_count(),
            artifact.per_triangle.len(),
            artifact.simply_connected_triangles()
        )
    }

    fn work(artifact: &Arc<Presentations>) -> u64 {
        artifact.component_count() as u64
    }
}

/// The continuous-map tiers of §5 (vertex/edge/triangle conditions).
///
/// Keyed on the split task's *branch decomposition* (the ordered list of
/// name-erased single-facet sub-tasks): the outcome is a pure function
/// of the assembled link/presentation artifacts, which are themselves
/// determined by the branches — so renamed or re-batched tasks with the
/// same decomposition share the report.
pub(crate) struct HomologyStage {
    /// The whole split task (what a remote homology job ships).
    pub task: Task,
    /// Its branch decomposition (see [`branch_tasks`]) — the cache key.
    pub branches: Vec<Task>,
    pub links: Arc<LinkGraphs>,
    pub presentations: Arc<Presentations>,
}

impl Stage for HomologyStage {
    const KIND: ArtifactKind = ArtifactKind::Homology;
    type Key = Vec<Task>;
    type Artifact = Arc<HomologyReport>;

    fn key(&self) -> Vec<Task> {
        self.branches.clone()
    }

    fn cache(store: &ArtifactStore) -> &SharedCache<Vec<Task>, Arc<HomologyReport>> {
        &store.homology
    }

    fn compute(&self, _budget: &Budget) -> Arc<HomologyReport> {
        let (outcome, assignments) = continuous_map_exists_with(&self.links, &self.presentations);
        Arc::new(HomologyReport {
            outcome,
            assignments,
        })
    }

    fn job(&self, _budget: &Budget) -> Option<StageJob> {
        Some(StageJob::new(Self::KIND, self.task.clone()))
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

    fn detail(artifact: &Arc<HomologyReport>) -> String {
        match &artifact.outcome {
            ContinuousOutcome::Exists { .. } => {
                let (assigned, certs) = exists_summary(&artifact.outcome).unwrap_or((0, 0));
                format!(
                    "carried map exists: {assigned} vertex assignment(s), {certs} certificate(s)"
                )
            }
            ContinuousOutcome::Impossible { reason } => match reason {
                ImpossibilityReason::EmptyVertexImage(x) => {
                    format!("impossible: empty image at input vertex {x}")
                }
                ImpossibilityReason::SkeletonDisconnected { edge } => {
                    format!("impossible: skeleton disconnected across input edge {edge}")
                }
                ImpossibilityReason::HomologyObstruction { triangle } => {
                    format!("impossible: H1 obstruction at input triangle {triangle}")
                }
            },
            ContinuousOutcome::Undetermined { reason } => format!("undetermined: {reason}"),
        }
    }

    fn work(artifact: &Arc<HomologyReport>) -> u64 {
        artifact.assignments
    }
}

/// The bounded ACT exploration ladder (the paper's superseded baseline,
/// used as the fallback for the undecidable residue).
pub(crate) struct ExploreStage {
    pub task: Task,
    pub undetermined_reason: String,
    pub configured_rounds: usize,
    pub cancel: CancelToken,
}

impl Stage for ExploreStage {
    const KIND: ArtifactKind = ArtifactKind::Exploration;
    type Key = (Task, usize);
    type Artifact = Arc<ExplorationReport>;

    fn key(&self) -> (Task, usize) {
        (self.task.clone(), self.configured_rounds)
    }

    fn cache(store: &ArtifactStore) -> &SharedCache<(Task, usize), Arc<ExplorationReport>> {
        &store.exploration
    }

    /// The retry-escalation ladder around the governed ACT fallback:
    /// start at the configured round cap (clamped by the budget) and,
    /// when a deadline is set, keep doubling the cap while wall-clock
    /// remains — cheap first attempt, deeper retries only with leftover
    /// time.
    fn compute(&self, budget: &Budget) -> Arc<ExplorationReport> {
        let t = &self.task;
        let reason = &self.undetermined_reason;
        let mut cap = self.configured_rounds.min(budget.max_act_rounds);
        let mut nodes = 0u64;
        loop {
            let (outcome, searched) =
                solve_act_governed_with_stats(t, &budget.with_max_act_rounds(cap), &self.cancel);
            nodes += searched;
            match outcome {
                ActOutcome::Solvable { rounds, .. } => {
                    // A witness is budget-independent: always cacheable.
                    return Arc::new(ExplorationReport {
                        verdict: Verdict::Solvable {
                            certificate: format!(
                                "ACT fallback found a decision map at {rounds} round(s)"
                            ),
                        },
                        nodes,
                        rounds_cap: cap,
                        budget_independent: true,
                    });
                }
                ActOutcome::Interrupted {
                    rounds_completed,
                    interrupt,
                } => {
                    return Arc::new(ExplorationReport {
                        verdict: Verdict::Unknown {
                            reason: format!(
                                "{reason}; ACT fallback {interrupt} after ruling out \
                                 {rounds_completed} of {cap} round(s)"
                            ),
                        },
                        nodes,
                        rounds_cap: cap,
                        budget_independent: false,
                    });
                }
                ActOutcome::Exhausted { .. } => {
                    let next = cap.saturating_mul(2).min(budget.max_act_rounds);
                    if budget.deadline.is_none() || budget.deadline_exceeded() || next == cap {
                        // The verdict depends on the budget unless the
                        // ladder stopped exactly at the configured bound.
                        return Arc::new(ExplorationReport {
                            verdict: Verdict::Unknown {
                                reason: format!("{reason}; ACT fallback exhausted {cap} round(s)"),
                            },
                            nodes,
                            rounds_cap: cap,
                            budget_independent: cap == self.configured_rounds,
                        });
                    }
                    cap = next;
                }
            }
        }
    }

    fn detail(artifact: &Arc<ExplorationReport>) -> String {
        let kind = match &artifact.verdict {
            Verdict::Solvable { .. } => "found a decision map",
            Verdict::Unsolvable { .. } => "refuted",
            Verdict::Unknown { .. } => "exhausted",
        };
        format!(
            "ACT ladder {kind} at round cap {}; {} node(s) expanded",
            artifact.rounds_cap, artifact.nodes
        )
    }

    fn work(artifact: &Arc<ExplorationReport>) -> u64 {
        artifact.nodes
    }

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
        unconstrained.then(|| StageJob {
            explore: Some((self.configured_rounds, self.undetermined_reason.clone())),
            ..StageJob::new(Self::KIND, self.task.clone())
        })
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

/// The name-erased branch decomposition of a (typically split) task: one
/// single-facet restriction per input facet, in complex (facet) order.
/// These sub-tasks are the cache keys of the link-graph and presentation
/// stages — identical branches of different tasks share artifacts.
pub(crate) fn branch_tasks(task: &Task) -> Vec<Task> {
    task.input()
        .facets()
        .map(|f| facet_restriction(task, f))
        .collect()
}

/// Folds per-branch evidence into the single aggregated record the
/// evidence chain carries: detail and work come from the *global*
/// artifact (so the deterministic digest is identical to a whole-task
/// run), cache is `Hit` only when every branch hit, `reused` when any
/// branch did, and the origin reports the first non-local branch.
fn aggregate_branch_evidence(
    stage: &'static str,
    detail: String,
    work: u64,
    branches: &[StageEvidence],
    wall: Duration,
) -> StageEvidence {
    let all_hit = !branches.is_empty() && branches.iter().all(|e| e.cache == CacheEvent::Hit);
    let any_hit = branches.iter().any(|e| e.cache == CacheEvent::Hit);
    let origin = branches
        .iter()
        .map(|e| e.origin)
        .find(|o| *o != StageOrigin::Local)
        .unwrap_or(StageOrigin::Local);
    StageEvidence {
        stage,
        detail,
        work,
        cache: if all_hit {
            CacheEvent::Hit
        } else {
            CacheEvent::Miss
        },
        wall,
        origin,
        reused: any_hit,
        subkeys: branches.len(),
    }
}

/// Assembles the global [`LinkGraphs`] of `task` from its per-branch
/// artifacts. A simplex shared by several facets has the *same* carrier
/// entry in every branch containing it (restriction preserves entries),
/// so any branch's part can stand in for the global computation; the
/// global element order is re-derived from the task's own complex, which
/// makes the result byte-identical to `LinkGraphs::build(task)`.
fn assemble_links(task: &Task, branch_links: &[Arc<LinkGraphs>]) -> LinkGraphs {
    let mut domain_of = BTreeMap::new();
    let mut edge_data = BTreeMap::new();
    for part in branch_links {
        for (x, dom) in part.vertices.iter().zip(&part.domains) {
            domain_of.entry(x.clone()).or_insert_with(|| dom.clone());
        }
        for ((e, graph), cycles) in part
            .edges
            .iter()
            .zip(&part.edge_graphs)
            .zip(&part.edge_cycles)
        {
            edge_data
                .entry(e.clone())
                .or_insert_with(|| (graph.clone(), cycles.clone()));
        }
    }
    let input = task.input();
    let vertices: Vec<_> = input.vertices().cloned().collect();
    let domains: Vec<_> = vertices
        .iter()
        .map(|x| {
            domain_of
                .get(x)
                .expect("every input vertex lies in some facet branch") // chromata-lint: allow(P1): each input simplex is a face of some facet, so its branch computed it
                .clone()
        })
        .collect();
    let edges: Vec<_> = input.simplices_of_dim(1).cloned().collect();
    let (edge_graphs, edge_cycles): (Vec<_>, Vec<_>) = edges
        .iter()
        .map(|e| {
            edge_data
                .get(e)
                .expect("every input edge lies in some facet branch") // chromata-lint: allow(P1): each input simplex is a face of some facet, so its branch computed it
                .clone()
        })
        .unzip();
    let triangles: Vec<_> = input.simplices_of_dim(2).cloned().collect();
    LinkGraphs {
        vertices,
        domains,
        edges,
        edge_graphs,
        edge_cycles,
        triangles,
    }
}

/// Assembles the global [`Presentations`] (parallel to the global
/// triangle list) from per-branch presentation artifacts — the same
/// shared-entry argument as [`assemble_links`].
fn assemble_presentations(
    global_links: &LinkGraphs,
    branch_links: &[Arc<LinkGraphs>],
    branch_presentations: &[Arc<Presentations>],
) -> Presentations {
    let mut by_triangle: BTreeMap<_, &TrianglePresentations> = BTreeMap::new();
    for (links, pres) in branch_links.iter().zip(branch_presentations) {
        for (sigma, tp) in links.triangles.iter().zip(&pres.per_triangle) {
            by_triangle.entry(sigma.clone()).or_insert(tp);
        }
    }
    let per_triangle = global_links
        .triangles
        .iter()
        .map(|sigma| {
            (*by_triangle
                .get(sigma)
                .expect("every input triangle lies in some facet branch")) // chromata-lint: allow(P1): each input simplex is a face of some facet, so its branch computed it
            .clone()
        })
        .collect();
    Presentations { per_triangle }
}

/// Runs the link-graph stage per branch — through `remote` when a shard
/// pool is given — and assembles the global artifact, emitting one
/// aggregated evidence record. Returns the branch artifacts too (the
/// presentation stage consumes them branch-wise).
pub(crate) fn run_links(
    task: &Task,
    branches: &[Task],
    store: &ArtifactStore,
    budget: &Budget,
    remote: Option<&remote::RemoteEngine>,
) -> (Arc<LinkGraphs>, Vec<Arc<LinkGraphs>>, StageEvidence) {
    let clock = Stopwatch::start();
    let mut branch_links = Vec::with_capacity(branches.len());
    let mut branch_evidence = Vec::with_capacity(branches.len());
    for branch in branches {
        let stage = LinkStage {
            task: branch.clone(),
        };
        let outcome = run(&stage, store, budget, remote);
        branch_links.push(outcome.artifact);
        branch_evidence.push(outcome.evidence);
    }
    let global = Arc::new(assemble_links(task, &branch_links));
    let evidence = aggregate_branch_evidence(
        LinkStage::KIND.name(),
        LinkStage::detail(&global),
        LinkStage::work(&global),
        &branch_evidence,
        clock.elapsed(),
    );
    (global, branch_links, evidence)
}

/// Runs the presentation stage per branch (each against that branch's
/// own link artifact) and assembles the global artifact — the
/// presentation-side counterpart of [`run_links`].
pub(crate) fn run_presentations(
    branches: &[Task],
    branch_links: &[Arc<LinkGraphs>],
    global_links: &Arc<LinkGraphs>,
    store: &ArtifactStore,
    budget: &Budget,
    remote: Option<&remote::RemoteEngine>,
) -> (Arc<Presentations>, StageEvidence) {
    let clock = Stopwatch::start();
    let mut branch_presentations = Vec::with_capacity(branches.len());
    let mut branch_evidence = Vec::with_capacity(branches.len());
    for (branch, links) in branches.iter().zip(branch_links) {
        let stage = PresentationStage {
            task: branch.clone(),
            links: Arc::clone(links),
        };
        let outcome = run(&stage, store, budget, remote);
        branch_presentations.push(outcome.artifact);
        branch_evidence.push(outcome.evidence);
    }
    let global = Arc::new(assemble_presentations(
        global_links,
        branch_links,
        &branch_presentations,
    ));
    let evidence = aggregate_branch_evidence(
        PresentationStage::KIND.name(),
        PresentationStage::detail(&global),
        PresentationStage::work(&global),
        &branch_evidence,
        clock.elapsed(),
    );
    (global, evidence)
}

/// The homology stage of a split task with its prerequisites built: the
/// link-graph and presentation stages run per branch (through `remote`
/// when a shard pool is given) and assembled. Returns the stage plus the
/// two prerequisites' aggregated evidence, in execution order. The
/// engine and a worker's homology job both build the stage here.
pub(crate) fn homology_stage(
    task: &Task,
    store: &ArtifactStore,
    budget: &Budget,
    remote: Option<&remote::RemoteEngine>,
) -> (HomologyStage, [StageEvidence; 2]) {
    let branches = branch_tasks(task);
    let (links, branch_links, link_evidence) = run_links(task, &branches, store, budget, remote);
    let (presentations, pres_evidence) =
        run_presentations(&branches, &branch_links, &links, store, budget, remote);
    let stage = HomologyStage {
        task: task.clone(),
        branches,
        links,
        presentations,
    };
    (stage, [link_evidence, pres_evidence])
}

/// Runs one whole-task stage — through `remote` when a shard pool is
/// given, locally otherwise — appending its evidence to the live chain
/// and its deterministic trace to the record destined for the verdict
/// cache.
fn run_stage<S: Stage>(
    stage: &S,
    store: &ArtifactStore,
    budget: &Budget,
    remote: Option<&remote::RemoteEngine>,
    evidence: &mut EvidenceChain,
    traces: &mut Vec<StageTrace>,
) -> S::Artifact {
    let outcome = run(stage, store, budget, remote);
    traces.push(StageTrace::of(&outcome.evidence));
    evidence.stages.push(outcome.evidence);
    outcome.artifact
}

/// Runs the post-split decision stages. Returns the verdict, the name of
/// the deciding stage, the deterministic stage traces (for verdict-cache
/// replay), and whether the verdict is budget-independent and therefore
/// safe to memoize.
fn decide_staged(
    split: &SubdividedComplex,
    options: PipelineOptions,
    budget: &Budget,
    cancel: &CancelToken,
    store: &ArtifactStore,
    remote: Option<&remote::RemoteEngine>,
    evidence: &mut EvidenceChain,
) -> (Verdict, &'static str, Vec<StageTrace>, bool) {
    let mut traces = Vec::new();
    if let Err(interrupt) = budget.check(cancel) {
        return (
            Verdict::Unknown {
                reason: format!("analysis {interrupt} before the decision tiers ran"),
            },
            "budget",
            traces,
            false,
        );
    }
    if let Some(x) = &split.split.degenerate {
        return (
            Verdict::Unsolvable {
                obstruction: Obstruction::ArticulationPoints {
                    witness: format!(
                        "splitting emptied the solo image of input vertex {x}: \
                         the incident edges force incompatible link components"
                    ),
                },
            },
            "split",
            traces,
            true,
        );
    }
    let t = &split.split.task;
    let (homology, prerequisites) = homology_stage(t, store, budget, remote);
    for stage_evidence in prerequisites {
        traces.push(StageTrace::of(&stage_evidence));
        evidence.stages.push(stage_evidence);
    }
    let homology = run_stage(&homology, store, budget, remote, evidence, &mut traces);
    match &homology.outcome {
        ContinuousOutcome::Exists { certificates, .. } => (
            Verdict::Solvable {
                certificate: if certificates.is_empty() {
                    "continuous carried map exists (vertex/edge tiers)".to_owned()
                } else {
                    certificates.join("; ")
                },
            },
            "homology",
            traces,
            true,
        ),
        ContinuousOutcome::Impossible { reason } => {
            let obstruction = match reason {
                ImpossibilityReason::SkeletonDisconnected { edge } => {
                    Obstruction::ArticulationPoints {
                        witness: format!(
                            "after {} split step(s), no choice of solo outputs is connected across input edge {edge}",
                            split.split.steps.len()
                        ),
                    }
                }
                ImpossibilityReason::HomologyObstruction { triangle } => {
                    Obstruction::Contractibility {
                        witness: format!(
                            "the boundary loop of input triangle {triangle} is non-contractible (H1 certificate)"
                        ),
                    }
                }
                ImpossibilityReason::EmptyVertexImage(x) => Obstruction::ArticulationPoints {
                    witness: format!("input vertex {x} has an empty image"),
                },
            };
            (
                Verdict::Unsolvable { obstruction },
                "homology",
                traces,
                true,
            )
        }
        ContinuousOutcome::Undetermined { reason } => {
            if options.act_fallback_rounds == 0 {
                return (
                    Verdict::Unknown {
                        reason: reason.clone(),
                    },
                    "homology",
                    traces,
                    true,
                );
            }
            let report = run_stage(
                &ExploreStage {
                    task: t.clone(),
                    undetermined_reason: reason.clone(),
                    configured_rounds: options.act_fallback_rounds,
                    cancel: cancel.clone(),
                },
                store,
                budget,
                remote,
                evidence,
                &mut traces,
            );
            (
                report.verdict.clone(),
                "explore",
                traces,
                report.cacheable(),
            )
        }
    }
}

/// The full staged engine behind [`crate::analyze_governed`]: live
/// canonicalization, the (possibly skipped) split stage, verdict-cache
/// replay, and the per-branch decision tiers. This is the whole former
/// monolith pipeline folded into the stage layer; the pipeline module
/// keeps only the public entry points and types. The shard pool is read
/// once here and passed down, so one analysis never straddles a pool
/// reconfiguration.
pub(crate) fn run_engine(
    task: &Task,
    options: PipelineOptions,
    budget: &Budget,
    cancel: &CancelToken,
) -> Analysis {
    let store = cache::store();
    let engine = remote::current_engine();
    let remote = engine.as_deref();
    let mut evidence = EvidenceChain::new();

    // Canonicalization is a cheap pure quotient — always run live so the
    // evidence chain starts identically on cold and warm paths.
    let clock = Stopwatch::start();
    let reachable = task.restricted_to_reachable();
    let canonical = canonicalize(&reachable);
    evidence.stages.push(StageEvidence {
        stage: "canonicalize",
        detail: format!(
            "|I| = {} facet(s); canonical |O*| = {} facet(s)",
            canonical.input().facet_count(),
            canonical.output().facet_count()
        ),
        work: canonical.output().facet_count() as u64,
        cache: CacheEvent::Uncached,
        wall: clock.elapsed(),
        origin: StageOrigin::Local,
        reused: false,
        subkeys: 0,
    });

    let split_art = if task.process_count() == 3 {
        let outcome = run(
            &SplitStage {
                canonical: canonical.clone(),
            },
            store,
            budget,
            remote,
        );
        evidence.stages.push(outcome.evidence);
        outcome.artifact
    } else {
        // Proposition 5.4: two-process tasks are decided on the raw task;
        // one-process tasks trivially.
        let clock = Stopwatch::start();
        let art = Arc::new(SubdividedComplex {
            split: SplitOutcome {
                task: canonical.clone(),
                steps: Vec::new(),
                degenerate: None,
            },
        });
        evidence.stages.push(StageEvidence {
            stage: "split",
            detail: format!(
                "splitting skipped for a {}-process task (Proposition 5.4)",
                task.process_count()
            ),
            work: 0,
            cache: CacheEvent::Uncached,
            wall: clock.elapsed(),
            origin: StageOrigin::Local,
            reused: false,
            subkeys: 0,
        });
        art
    };

    let key = (canonical.clone(), options.act_fallback_rounds);
    let cached = store.verdict.lock().get(&key);
    // Decide outside the lock; a racing miss recomputes the same verdict.
    let verdict = match cached {
        Some(record) => {
            // Replay the deterministic post-split traces: the evidence
            // chain of a cache hit matches the chain that built it.
            for trace in &record.stages {
                evidence.stages.push(trace.replay());
            }
            evidence.decided_by = record.decided_by;
            record.verdict
        }
        None => {
            let (v, decided_by, traces, cacheable) = decide_staged(
                &split_art,
                options,
                budget,
                cancel,
                store,
                remote,
                &mut evidence,
            );
            evidence.decided_by = decided_by;
            // Budget-induced answers are circumstantial — never poison the
            // cache with them; a later unstarved run must re-decide.
            if cacheable {
                store.verdict.lock().insert(
                    key,
                    DecisionRecord {
                        verdict: v.clone(),
                        decided_by,
                        stages: traces,
                    },
                );
            }
            v
        }
    };
    Analysis {
        canonical,
        split: split_art.split.clone(),
        verdict,
        evidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_task::library::{identity_task, two_set_agreement};

    #[test]
    fn stage_runs_hit_their_cache_on_repeat() {
        // A local assertion against the process-wide store: the second
        // identical run must be a hit (the first may be hit or miss
        // depending on concurrently running tests).
        let _store = cache::store_test_guard();
        let canonical = chromata_task::canonicalize(&two_set_agreement());
        let stage = SplitStage {
            canonical: canonical.clone(),
        };
        let budget = Budget::unlimited();
        let first = run(&stage, cache::store(), &budget, None);
        let second = run(&stage, cache::store(), &budget, None);
        assert_eq!(second.evidence.cache, CacheEvent::Hit);
        assert_eq!(first.evidence.detail, second.evidence.detail);
        assert_eq!(first.evidence.work, second.evidence.work);
        assert_eq!(second.evidence.stage, "split");
    }

    #[test]
    fn evidence_digest_ignores_wall_and_cache_events() {
        let mut a = EvidenceChain::new();
        a.decided_by = "homology";
        a.stages.push(StageEvidence {
            stage: "split",
            detail: "0 split step(s); O' = 3 facet(s)".into(),
            work: 0,
            cache: CacheEvent::Miss,
            wall: Duration::from_millis(7),
            origin: StageOrigin::Local,
            reused: false,
            subkeys: 0,
        });
        let mut b = a.clone();
        b.stages[0].cache = CacheEvent::Hit;
        b.stages[0].wall = Duration::ZERO;
        b.stages[0].origin = StageOrigin::Shard {
            shard: 1,
            attempt: 2,
        };
        b.stages[0].reused = true;
        b.stages[0].subkeys = 5;
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());
        // But the deterministic parts do matter.
        b.stages[0].work = 1;
        assert_ne!(a.deterministic_digest(), b.deterministic_digest());
        let mut c = a.clone();
        c.decided_by = "explore";
        assert_ne!(a.deterministic_digest(), c.deterministic_digest());
    }

    #[test]
    fn editing_one_branch_reuses_the_others() {
        use chromata_topology::{Complex, Simplex, Vertex};
        // Two triangles sharing an edge; Δ maps each simplex to itself.
        let v = |c: u8, x: i64| Vertex::of(c, x);
        let t1 = Simplex::new(vec![v(0, 0), v(1, 0), v(2, 0)]);
        let t2 = Simplex::new(vec![v(0, 1), v(1, 0), v(2, 0)]);
        let input = Complex::from_facets([t1.clone(), t2.clone()]);
        let base =
            Task::from_facet_delta("branch-base", input.clone(), |sigma| vec![sigma.clone()])
                .expect("identity-style task is valid");
        // The "edit": only τ2's entry changes (its solo vertex moves),
        // while every simplex of τ1's closure keeps its carrier — so
        // exactly one branch differs.
        let edited = Task::from_facet_delta("branch-edited", input, |sigma| {
            if *sigma == t2 {
                vec![t2.substituted(&v(0, 1), v(0, 7))]
            } else {
                vec![sigma.clone()]
            }
        })
        .expect("edited task is valid");

        // A private store isolates the counters from concurrent tests.
        let store = ArtifactStore::with_capacity(64);
        let budget = Budget::unlimited();
        let branches = branch_tasks(&base);
        assert_eq!(branches.len(), 2);
        let (cold_links, cold_branch_links, cold_ev) =
            run_links(&base, &branches, &store, &budget, None);
        assert_eq!(cold_ev.cache, CacheEvent::Miss);
        assert!(!cold_ev.reused);
        assert_eq!(cold_ev.subkeys, 2);
        let (_, cold_pres_ev) = run_presentations(
            &branches,
            &cold_branch_links,
            &cold_links,
            &store,
            &budget,
            None,
        );
        assert_eq!(cold_pres_ev.subkeys, 2);
        let after_cold = store.links.lock().stats();
        assert_eq!(after_cold.reuse_hits, 0, "cold run reuses nothing");
        assert_eq!(after_cold.misses, 2);

        // Re-analyzing the edited task re-runs only the edited branch:
        // τ1's branch artifact is served from the cache (a reuse hit).
        let edited_branches = branch_tasks(&edited);
        let (edited_links, edited_branch_links, warm_ev) =
            run_links(&edited, &edited_branches, &store, &budget, None);
        assert!(warm_ev.reused, "the unedited branch must be reused");
        assert_eq!(warm_ev.cache, CacheEvent::Miss, "one branch recomputed");
        let after_edit = store.links.lock().stats();
        assert_eq!(after_edit.lookups, after_cold.lookups + 2);
        assert_eq!(after_edit.reuse_hits, 1, "exactly one branch reused");
        assert_eq!(after_edit.misses, after_cold.misses + 1);
        let (_, warm_pres_ev) = run_presentations(
            &edited_branches,
            &edited_branch_links,
            &edited_links,
            &store,
            &budget,
            None,
        );
        assert!(warm_pres_ev.reused);
        assert_eq!(store.presentations.lock().stats().reuse_hits, 1);

        // The assembled global artifact matches a direct whole-task
        // build (detail and work feed the deterministic digest).
        let direct = Arc::new(LinkGraphs::build(&edited));
        assert_eq!(LinkStage::detail(&edited_links), LinkStage::detail(&direct));
        assert_eq!(LinkStage::work(&edited_links), LinkStage::work(&direct));
    }

    #[test]
    fn branch_tasks_are_name_erased_and_ordered() {
        let task = chromata_task::canonicalize(&two_set_agreement());
        let branches = branch_tasks(&task);
        assert_eq!(branches.len(), task.input().facet_count());
        for (facet, branch) in task.input().facets().zip(&branches) {
            assert_eq!(branch.name(), "");
            assert_eq!(branch.input().facets().next(), Some(facet));
        }
    }

    #[test]
    fn explore_stage_is_uncacheable_when_budget_dependent() {
        let report = ExplorationReport {
            verdict: Verdict::Unknown { reason: "x".into() },
            nodes: 12,
            rounds_cap: 4,
            budget_independent: false,
        };
        assert!(!Arc::new(report).cacheable());
        let witness = ExplorationReport {
            verdict: Verdict::Solvable {
                certificate: "c".into(),
            },
            nodes: 12,
            rounds_cap: 4,
            budget_independent: true,
        };
        assert!(Arc::new(witness).cacheable());
        let _ = identity_task(2);
    }
}
