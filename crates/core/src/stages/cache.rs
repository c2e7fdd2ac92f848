//! Per-stage artifact caches: bounded, fingerprint-ordered, poison-safe.
//!
//! The staged verdict engine replaces the former single opaque decision
//! cache with one [`StageCache`] per artifact kind, all living in the
//! process-wide [`ArtifactStore`]. Every cache keeps the semantics the
//! old cache was tested for:
//!
//! * **FIFO bound** — insertion order is tracked in a queue and the
//!   oldest entries are evicted first once `capacity` is reached;
//! * **poison recovery** — a worker that panics while holding a cache
//!   lock may leave the map and the queue out of sync; the next locker
//!   re-validates the invariants, dropping orphaned queue keys and
//!   re-queuing unqueued map keys in *structural-fingerprint* order
//!   (hash-map iteration order must never decide future evictions —
//!   rule D1);
//! * **stats** — hits, misses and evictions are counted per cache and
//!   survive poison recovery.
//!
//! The store names its caches once, in `ArtifactStore::kinds`: every
//! store-wide operation — [`stage_cache_stats`], [`clear_stage_caches`]
//! and the snapshot save, load and audit of [`super::persist`] — is one
//! loop over that list. A cached value's one cacheability predicate is
//! [`Cacheable::cacheable`], checked at insert, snapshot save, load and
//! audit alike.

// chromata-lint: allow(D1): imported for the key-addressed stage caches; every use is justified at its site
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use chromata_task::Task;
use chromata_topology::structural_fingerprint;
use serde::{Deserialize, Serialize};

use super::artifacts::{
    ExplorationReport, HomologyReport, LinkGraphs, Presentations, SubdividedComplex,
};
use super::persist::SnapshotCache;
use super::DecisionRecord;

/// Hit/miss/eviction counters for one stage cache, as reported per
/// [`ArtifactKind`] by [`stage_cache_stats`] (the verdict cache's entry
/// is [`ArtifactKind::Verdict`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DecisionCacheStats {
    /// Total cache lookups. Under the coherence invariant every lookup
    /// is classified exactly once, so `lookups == hits + misses` must
    /// hold at any observation point — including under contention, since
    /// all three counters move together under the cache lock.
    pub lookups: u64,
    /// Artifacts served from the cache without recomputation.
    pub hits: u64,
    /// Artifacts computed by the stage and then cached.
    pub misses: u64,
    /// Entries evicted to keep the cache within its capacity.
    pub evictions: u64,
    /// Entries restored intact from a disk snapshot (see
    /// [`super::persist`]). Process-local, never persisted.
    pub restored: u64,
    /// Whole snapshot files discarded on load: bad magic, unsupported
    /// version, unreadable header, or an I/O error mid-read.
    pub rejected_snapshots: u64,
    /// Truncated trailing records skipped on load — the signature of a
    /// torn write (crash mid-append before the final newline).
    pub torn_entries: u64,
    /// Complete-looking records skipped on load: checksum mismatch,
    /// undecodable payload, or an inadmissible artifact (e.g. a
    /// budget-dependent exploration that must never be memoized).
    pub corrupt_entries: u64,
    /// Hits on *sub-task-granular* entries (per-branch link graphs and
    /// presentations): a nonzero value is the proof that an edited or
    /// near-duplicate task reused artifacts computed for another task.
    /// Always `<= hits`; stays 0 on whole-task caches. Process-local,
    /// never persisted.
    pub reuse_hits: u64,
}

impl DecisionCacheStats {
    /// Sum of the per-cause recovery counters (everything the loader
    /// skipped or discarded).
    #[must_use]
    pub fn recovery_events(&self) -> u64 {
        self.rejected_snapshots + self.torn_entries + self.corrupt_entries
    }

    /// The coherence invariant every observation must satisfy: each
    /// lookup was classified as exactly one hit or miss. Snapshot
    /// restores merge `hits + misses` into `lookups` so the invariant
    /// survives warm starts too.
    #[must_use]
    pub fn is_coherent(&self) -> bool {
        self.lookups == self.hits + self.misses
    }
}

/// The artifact kinds the engine caches, one [`StageCache`] each.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArtifactKind {
    /// [`SubdividedComplex`] — the §4 splitting deformation.
    Split,
    /// [`LinkGraphs`] — vertex domains, edge graphs, triangle lists.
    LinkGraphs,
    /// [`Presentations`] — per-triangle π₁ presentations + chain data.
    Presentations,
    /// [`HomologyReport`] — the continuous-map tier outcome.
    Homology,
    /// [`ExplorationReport`] — the bounded ACT exploration outcome.
    Exploration,
    /// The final verdict record with its replayable evidence traces.
    Verdict,
}

impl ArtifactKind {
    /// Stable lower-case name, used in reports and `chromata explain`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Split => "split",
            ArtifactKind::LinkGraphs => "link-graphs",
            ArtifactKind::Presentations => "presentations",
            ArtifactKind::Homology => "homology",
            ArtifactKind::Exploration => "explore",
            ArtifactKind::Verdict => "verdict",
        }
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A value a stage cache holds: cloned out on a hit, serialized into
/// snapshots, and gated by one cacheability predicate.
pub trait Cacheable: Clone + Serialize + Deserialize {
    /// Whether the value is budget-independent and so safe to memoize —
    /// in memory at insert, and on disk at snapshot save, load and
    /// audit.
    fn cacheable(&self) -> bool {
        true
    }
}

impl Cacheable for Arc<SubdividedComplex> {}
impl Cacheable for Arc<LinkGraphs> {}
impl Cacheable for Arc<Presentations> {}
impl Cacheable for Arc<HomologyReport> {}
impl Cacheable for DecisionRecord {}

impl Cacheable for Arc<ExplorationReport> {
    /// A budget-truncated exploration depends on the budget that cut it
    /// short, so it must never be memoized or cross a process boundary.
    fn cacheable(&self) -> bool {
        self.budget_independent
    }
}

/// Capacity of each process-wide stage cache (entries); a restored
/// snapshot brings its own.
const DEFAULT_CACHE_CAPACITY: usize = 256;

/// A bounded FIFO cache for one artifact kind.
///
/// Invariant: `queue` holds each key of `map` exactly once. The cache is
/// key-addressed; the only iteration (poison recovery) sorts by
/// structural fingerprint so no hash-map order leaks into evictions.
pub struct StageCache<K, V> {
    // chromata-lint: allow(D1): key-addressed only; the one iteration (poison recovery) sorts by structural fingerprint
    map: HashMap<K, V>,
    queue: VecDeque<K>,
    capacity: usize,
    stats: DecisionCacheStats,
    /// Whether entries are keyed at sub-task granularity (per split
    /// branch). Granular caches additionally count every hit in
    /// `stats.reuse_hits` — the observable signal that an edit or a
    /// near-duplicate task shared a branch artifact.
    granular: bool,
}

impl<K: Clone + Eq + Hash, V: Clone> StageCache<K, V> {
    /// An empty cache bounded at `capacity` entries.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        StageCache {
            map: HashMap::new(), // chromata-lint: allow(D1): see the struct field's justification
            queue: VecDeque::new(),
            capacity,
            stats: DecisionCacheStats::default(),
            granular: false,
        }
    }

    /// An empty *sub-task-granular* cache: hits also bump `reuse_hits`.
    #[must_use]
    pub fn with_capacity_granular(capacity: usize) -> Self {
        let mut cache = Self::with_capacity(capacity);
        cache.granular = true;
        cache
    }

    /// Looks up an artifact, bumping the lookup and hit/miss counters
    /// (all under the caller's lock, so `lookups == hits + misses` is
    /// never observably violated). On granular caches a hit also bumps
    /// `reuse_hits`.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let found = self.map.get(key).cloned();
        self.stats.lookups += 1;
        if found.is_some() {
            self.stats.hits += 1;
            if self.granular {
                self.stats.reuse_hits += 1;
            }
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// Inserts an artifact, evicting the oldest entries past capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key.clone(), value).is_none() {
            self.queue.push_back(key);
        }
        self.evict_to_capacity();
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> DecisionCacheStats {
        self.stats
    }

    /// Mutable counters, for the persist layer's recovery accounting.
    pub(crate) fn stats_mut(&mut self) -> &mut DecisionCacheStats {
        &mut self.stats
    }

    /// The current capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Every `(key, value)` in insertion (eviction) order — the order a
    /// snapshot must preserve so a reloaded cache evicts identically.
    pub(crate) fn entries_in_order(&self) -> Vec<(K, V)> {
        self.queue
            .iter()
            .filter_map(|k| self.map.get(k).map(|v| (k.clone(), v.clone())))
            .collect()
    }

    /// Re-inserts an entry restored from a snapshot: counted in
    /// `restored` (not as a miss), appended in call order so the
    /// snapshot's insertion order becomes this cache's eviction order.
    pub(crate) fn restore_entry(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key.clone(), value).is_none() {
            self.queue.push_back(key);
        }
        self.stats.restored += 1;
        self.evict_to_capacity();
    }

    /// Number of cached artifacts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Replaces the capacity bound, evicting the oldest entries if the
    /// cache currently exceeds it. A capacity of 0 disables caching.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.restore_invariants();
    }

    /// Validate-or-drop after recovering a poisoned lock: a worker that
    /// panicked mid-update may have inserted into `map` without
    /// recording the key in `queue` (or vice versa). Individual entries
    /// are never torn (both structures are updated with complete
    /// values), so recovery re-derives the queue from the surviving map:
    /// orphaned queue keys are dropped, unqueued map keys are re-queued
    /// in structural-fingerprint order, and the capacity bound is
    /// re-imposed. The stats — including evictions performed here —
    /// survive recovery.
    pub fn restore_invariants(&mut self) {
        // chromata-lint: allow(D1): re-queue order is made deterministic by the fingerprint sort below
        let mut seen = std::collections::HashSet::new();
        let map = &self.map;
        self.queue
            .retain(|k| map.contains_key(k) && seen.insert(k.clone()));
        let mut unqueued: Vec<K> = self
            .map
            .keys()
            .filter(|k| !seen.contains(*k))
            .cloned()
            .collect();
        unqueued.sort_by_key(|k| structural_fingerprint(k));
        for k in unqueued {
            self.queue.push_back(k);
        }
        self.evict_to_capacity();
    }

    /// Drops all artifacts and resets the counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.queue.clear();
        self.stats = DecisionCacheStats::default();
    }

    fn evict_to_capacity(&mut self) {
        while self.map.len() > self.capacity {
            let Some(oldest) = self.queue.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
            self.stats.evictions += 1;
        }
    }

    #[cfg(test)]
    fn raw_parts(&mut self) -> (&mut HashMap<K, V>, &mut VecDeque<K>) {
        (&mut self.map, &mut self.queue)
    }
}

/// A [`StageCache`] behind a mutex whose lock transparently recovers
/// from poisoning by re-validating the cache invariants.
pub struct SharedCache<K, V> {
    inner: Mutex<StageCache<K, V>>,
}

impl<K: Clone + Eq + Hash, V: Clone> SharedCache<K, V> {
    /// An empty shared cache bounded at `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SharedCache {
            inner: Mutex::new(StageCache::with_capacity(capacity)),
        }
    }

    /// An empty shared cache whose entries are keyed at sub-task
    /// granularity (hits also count as `reuse_hits`).
    #[must_use]
    pub fn new_granular(capacity: usize) -> Self {
        SharedCache {
            inner: Mutex::new(StageCache::with_capacity_granular(capacity)),
        }
    }

    /// Locks the cache. If a thread panicked while holding the lock, the
    /// cross-structure invariants are re-validated (and violating
    /// entries dropped) before the guard is handed out.
    pub fn lock(&self) -> MutexGuard<'_, StageCache<K, V>> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.restore_invariants();
                guard
            }
        }
    }
}

/// The process-wide store of per-stage caches the verdict engine runs
/// against. One instance exists per process (see `store`); every
/// analysis — sequential or batched — shares it, which is what lets
/// [`crate::analyze_batch`] reuse subdivision and presentation artifacts
/// across tasks.
pub struct ArtifactStore {
    pub(crate) split: SharedCache<Task, Arc<SubdividedComplex>>,
    /// Keyed per split-branch sub-task (a name-erased single-facet
    /// restriction), not per whole task — see `stages::branch_tasks`.
    pub(crate) links: SharedCache<Task, Arc<LinkGraphs>>,
    /// Keyed per split-branch sub-task, like `links`.
    pub(crate) presentations: SharedCache<Task, Arc<Presentations>>,
    /// Keyed on the ordered branch list of the split task: the homology
    /// tier consumes the assembled global artifacts, so its key is the
    /// full (name-free) branch decomposition.
    pub(crate) homology: SharedCache<Vec<Task>, Arc<HomologyReport>>,
    pub(crate) exploration: SharedCache<(Task, usize), Arc<ExplorationReport>>,
    pub(crate) verdict: SharedCache<(Task, usize), DecisionRecord>,
}

impl ArtifactStore {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ArtifactStore {
            split: SharedCache::new(capacity),
            links: SharedCache::new_granular(capacity),
            presentations: SharedCache::new_granular(capacity),
            homology: SharedCache::new(capacity),
            exploration: SharedCache::new(capacity),
            verdict: SharedCache::new(capacity),
        }
    }

    /// The kind list: every cache with its artifact kind, in the fixed
    /// reporting and snapshot-file order.
    pub(crate) fn kinds(&self) -> [(ArtifactKind, &dyn SnapshotCache); 6] {
        [
            (ArtifactKind::Split, &self.split),
            (ArtifactKind::LinkGraphs, &self.links),
            (ArtifactKind::Presentations, &self.presentations),
            (ArtifactKind::Homology, &self.homology),
            (ArtifactKind::Exploration, &self.exploration),
            (ArtifactKind::Verdict, &self.verdict),
        ]
    }
}

/// The process-wide [`ArtifactStore`].
pub(crate) fn store() -> &'static ArtifactStore {
    static STORE: OnceLock<ArtifactStore> = OnceLock::new();
    STORE.get_or_init(|| ArtifactStore::with_capacity(DEFAULT_CACHE_CAPACITY))
}

/// Serializes the lib tests that clear or poison the process-wide store
/// against the lib tests that expect a hit or a replay from it. Lib tests
/// run concurrently in one process, so without it a clear can land
/// between a probe's two analyses.
#[cfg(test)]
pub(crate) fn store_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Per-stage cache counters (process-wide), one entry per
/// [`ArtifactKind`] in declaration order.
#[must_use]
pub fn stage_cache_stats() -> Vec<(ArtifactKind, DecisionCacheStats)> {
    store()
        .kinds()
        .into_iter()
        .map(|(kind, cache)| (kind, cache.stats()))
        .collect()
}

/// Drops every cached artifact of every stage and resets all counters.
pub fn clear_stage_caches() {
    for (_, cache) in store().kinds() {
        cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Verdict;
    use chromata_task::library::{constant_task, identity_task, two_process_consensus};

    fn fp(key: &(Task, usize)) -> u64 {
        structural_fingerprint(key)
    }

    #[test]
    fn cache_is_bounded_with_fifo_eviction() {
        // Unit-level, on a private instance: the global store is shared
        // with concurrently running tests.
        let mut cache: StageCache<(Task, usize), Verdict> = StageCache::with_capacity(2);
        let key = |n: usize| (identity_task(2), n);
        let v = Verdict::Unknown { reason: "x".into() };
        cache.insert(key(0), v.clone());
        cache.insert(key(1), v.clone());
        cache.insert(key(2), v.clone());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // FIFO: the oldest key was evicted, the newer two survive.
        assert!(cache.get(&key(0)).is_none());
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_some());
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 1);
        // Re-inserting an existing key neither grows nor evicts.
        cache.insert(key(1), v);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // A zero-capacity cache stores nothing.
        let mut off: StageCache<(Task, usize), Verdict> = StageCache::with_capacity(0);
        off.insert(key(9), Verdict::Unknown { reason: "y".into() });
        assert!(off.is_empty());
    }

    #[test]
    fn shrinking_capacity_evicts_fifo_and_counts() {
        // Regression (satellite): shrinking the bound below the current
        // population must evict the *oldest* entries first and count each
        // one, exactly like an insert-driven eviction would.
        let mut cache: StageCache<(Task, usize), Verdict> = StageCache::with_capacity(4);
        let key = |n: usize| (identity_task(2), n);
        let v = Verdict::Unknown { reason: "x".into() };
        for n in 0..4 {
            cache.insert(key(n), v.clone());
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions, 0);
        cache.set_capacity(2);
        assert_eq!(cache.capacity(), 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 2, "shrink evictions are counted");
        // FIFO: the two oldest went, the two newest survive.
        assert!(cache.get(&key(0)).is_none());
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(3)).is_some());
        // Growing the bound never evicts.
        cache.set_capacity(10);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn restore_entry_counts_restored_not_misses() {
        let mut cache: StageCache<(Task, usize), Verdict> = StageCache::with_capacity(2);
        let key = |n: usize| (identity_task(2), n);
        let v = Verdict::Unknown { reason: "x".into() };
        cache.restore_entry(key(0), v.clone());
        cache.restore_entry(key(1), v.clone());
        cache.restore_entry(key(2), v.clone());
        let stats = cache.stats();
        assert_eq!(stats.restored, 3);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.evictions, 1, "restores respect the capacity bound");
        // Restoration order is eviction order: key(0) was the oldest.
        let order = cache.entries_in_order();
        assert_eq!(
            order.iter().map(|(k, _)| k.1).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // Zero-capacity caches restore nothing.
        let mut off: StageCache<(Task, usize), Verdict> = StageCache::with_capacity(0);
        off.restore_entry(key(9), v);
        assert!(off.is_empty());
    }

    #[test]
    fn granular_caches_count_reuse_hits() {
        let mut plain: StageCache<(Task, usize), Verdict> = StageCache::with_capacity(4);
        let mut granular: StageCache<(Task, usize), Verdict> =
            StageCache::with_capacity_granular(4);
        let key = (identity_task(2), 0);
        let v = Verdict::Unknown { reason: "x".into() };
        for cache in [&mut plain, &mut granular] {
            assert!(cache.get(&key).is_none());
            cache.insert(key.clone(), v.clone());
            assert!(cache.get(&key).is_some());
            assert!(cache.get(&key).is_some());
        }
        assert_eq!(plain.stats().reuse_hits, 0, "whole-task caches never reuse");
        assert_eq!(granular.stats().reuse_hits, 2);
        assert!(granular.stats().reuse_hits <= granular.stats().hits);
        assert!(plain.stats().is_coherent() && granular.stats().is_coherent());
    }

    #[test]
    fn poison_recovery_validates_or_drops() {
        // Unit-level check of the recovery routine itself: an orphaned
        // queue key (map insert lost to a panic) is dropped; an unqueued
        // map key (queue push lost to a panic) is re-queued, not dropped.
        let mut cache: StageCache<(Task, usize), Verdict> = StageCache::with_capacity(4);
        let v = Verdict::Unknown { reason: "x".into() };
        cache.insert((identity_task(2), 0), v.clone());
        let (map, queue) = cache.raw_parts();
        queue.push_back((identity_task(2), 7)); // orphan: not in map
        map.insert((identity_task(2), 8), v); // unqueued
        cache.restore_invariants();
        let (map, queue) = cache.raw_parts();
        assert_eq!(queue.len(), map.len());
        assert!(map.contains_key(&(identity_task(2), 8)));
        assert!(!queue.contains(&(identity_task(2), 7)));
        let queue = queue.clone();
        assert!(queue.iter().all(|k| cache.raw_parts().0.contains_key(k)));
    }

    #[test]
    fn eviction_stats_survive_poison_recovery() {
        // Regression (satellite): the eviction counter accumulated before
        // a worker panic must survive the poisoned-lock recovery, and the
        // evictions the recovery itself performs must be counted on top.
        let shared: SharedCache<(Task, usize), Verdict> = SharedCache::new(2);
        let v = Verdict::Unknown { reason: "x".into() };
        {
            let mut guard = shared.lock();
            guard.insert((identity_task(2), 0), v.clone());
            guard.insert((identity_task(2), 1), v.clone());
            guard.insert((identity_task(2), 2), v.clone());
            assert_eq!(guard.stats().evictions, 1);
            let _ = guard.get(&(identity_task(2), 2));
        }
        let before = shared.lock().stats();
        // A worker dies holding the lock after tearing the invariant the
        // way an interrupted insert would: map entries beyond capacity
        // with no queue record.
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let mut guard = shared.lock();
                    let (map, _) = guard.raw_parts();
                    map.insert((identity_task(2), 3), v.clone());
                    map.insert((identity_task(2), 4), v.clone());
                    panic!("worker dies mid-insert");
                })
                .join();
        });
        // The next lock recovers: capacity re-imposed (2 forced evictions)
        // and the pre-panic counters still present.
        let guard = shared.lock();
        let after = guard.stats();
        assert_eq!(after.hits, before.hits, "hits survive recovery");
        assert_eq!(after.misses, before.misses, "misses survive recovery");
        assert_eq!(
            after.evictions,
            before.evictions + 2,
            "pre-panic evictions survive and recovery evictions are counted"
        );
    }

    /// The cross-structure invariants every cache op must preserve:
    /// `queue` holds each key of `map` exactly once, and the capacity
    /// bound is respected.
    fn assert_cache_invariants(cache: &mut StageCache<(Task, usize), Verdict>, context: &str) {
        let capacity = cache.capacity;
        let (map, queue) = cache.raw_parts();
        assert_eq!(queue.len(), map.len(), "{context}");
        assert!(map.len() <= capacity, "{context}");
        let mut seen = std::collections::BTreeSet::new();
        for k in queue.iter() {
            assert!(map.contains_key(k), "orphan queue key: {context}");
            assert!(seen.insert(fp(k)), "duplicate queue key: {context}");
        }
    }

    /// Loom-style exhaustive op-level model check of the FIFO stage
    /// cache (see `chromata_topology::interleave`): every op runs under
    /// the cache mutex, so concurrent behaviour is fully determined by
    /// the commit order. Enumerate every interleaving of the per-thread
    /// op programs, replay each sequentially, and assert (a) the
    /// cross-structure invariants after every op, and (b) that replaying
    /// the same schedule twice produces the identical queue — no
    /// hash-map iteration order may leak into eviction order (rule D1).
    /// `--cfg chromata_loom` raises thread count and depth.
    #[test]
    fn stage_cache_exhaustive_interleavings() {
        use chromata_topology::interleave::{depth_budget, for_each_interleaving, max_threads};

        #[derive(Clone, Copy)]
        enum Op {
            /// Insert a verdict for key `k`.
            Insert(usize),
            /// Look up key `k`.
            Get(usize),
            /// Poison recovery ran (models a worker panic + re-lock).
            Restore,
        }
        let keys: Vec<(Task, usize)> = vec![
            (identity_task(2), 0),
            (identity_task(2), 1),
            (constant_task(2), 0),
            (two_process_consensus(), 0),
        ];
        let verdict = Verdict::Solvable {
            certificate: "model".into(),
        };
        let threads = max_threads();
        let depth = depth_budget();
        // Thread t's program: insert its own key, probe a shared key,
        // insert the shared key (contended), then recover — truncated to
        // the depth budget.
        let programs: Vec<Vec<Op>> = (0..threads)
            .map(|t| {
                let mut p = vec![
                    Op::Insert(t),
                    Op::Get(threads),
                    Op::Insert(threads),
                    Op::Restore,
                ];
                p.truncate(depth);
                p
            })
            .collect();
        let counts: Vec<usize> = programs.iter().map(Vec::len).collect();
        let replay = |schedule: &[usize]| -> Vec<u64> {
            let mut cache: StageCache<(Task, usize), Verdict> = StageCache::with_capacity(2);
            let mut pc = vec![0usize; threads];
            for (step, &t) in schedule.iter().enumerate() {
                let op = programs[t][pc[t]];
                pc[t] += 1;
                match op {
                    Op::Insert(k) => cache.insert(keys[k].clone(), verdict.clone()),
                    Op::Get(k) => {
                        cache.get(&keys[k]);
                    }
                    Op::Restore => cache.restore_invariants(),
                }
                assert_cache_invariants(&mut cache, &format!("after step {step} of {schedule:?}"));
            }
            cache.raw_parts().1.iter().map(fp).collect()
        };
        let mut schedules = 0usize;
        for_each_interleaving(&counts, |schedule| {
            schedules += 1;
            assert_eq!(
                replay(schedule),
                replay(schedule),
                "non-deterministic replay of {schedule:?}"
            );
        });
        assert!(
            schedules >= 20,
            "expected full enumeration, got {schedules}"
        );
    }

    /// Poison recovery repairs torn states deterministically: keys
    /// inserted into `map` without being queued (the worst a panic
    /// mid-update can leave behind) are re-queued in structural-
    /// fingerprint order, independent of hash-map iteration order.
    #[test]
    fn stage_cache_restore_repairs_torn_writes() {
        let keys: Vec<(Task, usize)> = (0..4usize).map(|r| (identity_task(2), r)).collect();
        let run = |insertion_order: &[usize]| -> Vec<u64> {
            let mut cache: StageCache<(Task, usize), Verdict> = StageCache::with_capacity(8);
            for &i in insertion_order {
                // Tear: map updated, queue not (simulates a panic between
                // the two updates under the lock).
                cache.raw_parts().0.insert(
                    keys[i].clone(),
                    Verdict::Solvable {
                        certificate: "model".into(),
                    },
                );
            }
            // Also an orphan queue entry with no artifact.
            cache.raw_parts().1.push_back((constant_task(2), 9));
            cache.restore_invariants();
            assert_cache_invariants(&mut cache, "after restore");
            cache.raw_parts().1.iter().map(fp).collect()
        };
        let a = run(&[0, 1, 2, 3]);
        let b = run(&[3, 1, 0, 2]);
        assert_eq!(a.len(), 4);
        assert_eq!(a, b, "re-queue order must not depend on insertion order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(a, sorted, "re-queue order is fingerprint-sorted");
    }

    #[test]
    fn stage_cache_stats_reports_every_kind() {
        let all: Vec<ArtifactKind> = stage_cache_stats().into_iter().map(|(k, _)| k).collect();
        let names: Vec<&str> = all.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "split",
                "link-graphs",
                "presentations",
                "homology",
                "explore",
                "verdict"
            ]
        );
        assert_eq!(ArtifactKind::Verdict.name(), "verdict");
        assert_eq!(format!("{}", ArtifactKind::LinkGraphs), "link-graphs");
    }
}
