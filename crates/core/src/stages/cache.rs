//! The verdict cache: bounded, fingerprint-ordered, poison-safe.
//!
//! The engine keeps one cache, the verdict records, in the process-wide
//! [`ArtifactStore`]. The cache ([`StageCache`]) keeps the semantics
//! the engine's caches have always been tested for:
//!
//! * **FIFO bound** — insertion order is tracked in a queue and the
//!   oldest entries are evicted first once `capacity` is reached;
//! * **poison recovery** — a worker that panics while holding the cache
//!   lock may leave the map and the queue out of sync; the next locker
//!   re-validates the invariants, dropping orphaned queue keys and
//!   re-queuing unqueued map keys in *structural-fingerprint* order
//!   (hash-map iteration order must never decide future evictions —
//!   rule D1);
//! * **stats** — hits, misses and evictions are counted and survive
//!   poison recovery;
//! * **change flag** — set by every insert and eviction, taken by a
//!   snapshot save: [`super::persist`] writes the verdict records only
//!   when they changed.
//!
//! The intermediate stage artifacts are not cached: each stage takes
//! milliseconds, less than hashing a task to look its artifact up
//! (EXPERIMENTS.md, E15).

// chromata-lint: allow(D1): imported for the key-addressed verdict cache; every use is justified at its site
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use chromata_task::Task;
use chromata_topology::structural_fingerprint;

use super::DecisionRecord;

/// Hit/miss/eviction counters of the verdict cache, as reported by
/// [`stage_cache_stats`] under [`ArtifactKind::Verdict`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DecisionCacheStats {
    /// Total cache lookups. Under the coherence invariant every lookup
    /// is classified exactly once, so `lookups == hits + misses` must
    /// hold at any observation point — including under contention, since
    /// all three counters move together under the cache lock.
    pub lookups: u64,
    /// Verdicts served from the cache without running a stage.
    pub hits: u64,
    /// Lookups that found no record (the stages then ran).
    pub misses: u64,
    /// Entries evicted to keep the cache within its capacity.
    pub evictions: u64,
    /// Verdict records restored intact from a disk snapshot (see
    /// [`super::persist`]). Process-local, never persisted.
    pub restored: u64,
    /// Whole snapshot files discarded on load: bad magic, unsupported
    /// version, unreadable header, or an I/O error mid-read.
    pub rejected_snapshots: u64,
    /// Truncated trailing records skipped on load — the signature of a
    /// torn write (crash mid-append before the final newline).
    pub torn_entries: u64,
    /// Complete-looking records skipped on load: checksum mismatch or
    /// undecodable payload.
    pub corrupt_entries: u64,
    /// Always 0: it counted hits on per-branch stage caches, which no
    /// longer exist. Kept so readers of the counters keep compiling.
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
    /// restores touch none of the three.
    #[must_use]
    pub fn is_coherent(&self) -> bool {
        self.lookups == self.hits + self.misses
    }
}

/// The engine's stage kinds plus the verdict record. Each stage kind
/// names a stage in evidence chains and persisted traces; only
/// [`ArtifactKind::Verdict`] names a cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArtifactKind {
    /// The §4 splitting deformation.
    Split,
    /// [`LinkGraphs`](super::artifacts::LinkGraphs) — vertex domains,
    /// edge graphs, triangle lists.
    LinkGraphs,
    /// [`Presentations`](super::artifacts::Presentations) —
    /// per-triangle π₁ presentations + chain data.
    Presentations,
    /// The continuous-map tier.
    Homology,
    /// [`ExplorationReport`](super::artifacts::ExplorationReport) — the
    /// bounded ACT exploration.
    Exploration,
    /// The final verdict record with its replayable evidence traces.
    Verdict,
}

impl ArtifactKind {
    /// The stage kinds, in the order the engine runs them.
    pub(crate) const STAGES: [ArtifactKind; 5] = [
        ArtifactKind::Split,
        ArtifactKind::LinkGraphs,
        ArtifactKind::Presentations,
        ArtifactKind::Homology,
        ArtifactKind::Exploration,
    ];

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

/// Capacity of the process-wide verdict cache (entries).
const DEFAULT_CACHE_CAPACITY: usize = 256;

/// A bounded FIFO cache (the verdict cache's implementation).
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
    /// Whether an entry was inserted or evicted since the last
    /// [`take_changed`](Self::take_changed): the verdict cache's says
    /// whether its snapshot is stale.
    changed: bool,
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
            changed: false,
        }
    }

    /// Looks up an entry, bumping the lookup and hit/miss counters
    /// (all under the caller's lock, so `lookups == hits + misses` is
    /// never observably violated).
    pub fn get(&mut self, key: &K) -> Option<V> {
        let found = self.map.get(key).cloned();
        self.stats.lookups += 1;
        if found.is_some() {
            self.stats.hits += 1;
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
        self.changed = true;
        self.evict_to_capacity();
    }

    /// Reads and clears the change flag: whether an entry was inserted
    /// or evicted since the last call (or since [`clear`](Self::clear)).
    /// Lookups and [`restore_entry`](Self::restore_entry) leave it be.
    pub(crate) fn take_changed(&mut self) -> bool {
        std::mem::take(&mut self.changed)
    }

    /// Sets the change flag (a failed save, a damaged snapshot).
    pub(crate) fn mark_changed(&mut self) {
        self.changed = true;
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

    /// Drops all artifacts and resets the counters and the change flag.
    pub fn clear(&mut self) {
        self.map.clear();
        self.queue.clear();
        self.stats = DecisionCacheStats::default();
        self.changed = false;
    }

    fn evict_to_capacity(&mut self) {
        while self.map.len() > self.capacity {
            let Some(oldest) = self.queue.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
            self.stats.evictions += 1;
            self.changed = true;
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

/// The process-wide store the verdict engine runs against: the verdict
/// cache. One instance exists per process (see `store`); every analysis
/// — sequential or batched — shares it, so a task decided once is
/// replayed by every later analysis of the same canonical task.
pub struct ArtifactStore {
    /// Verdict records keyed on (canonical task, ACT fallback bound).
    pub(crate) verdict: SharedCache<(Task, usize), DecisionRecord>,
    /// The cache directory the verdict cache's change flag refers to:
    /// the one it was last loaded from or saved to (see
    /// [`super::persist`]).
    pub(crate) synced_dir: Mutex<Option<PathBuf>>,
}

impl ArtifactStore {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ArtifactStore {
            verdict: SharedCache::new(capacity),
            synced_dir: Mutex::new(None),
        }
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

/// The engine's cache counters (process-wide): one entry, the verdict
/// cache's, under [`ArtifactKind::Verdict`].
#[must_use]
pub fn stage_cache_stats() -> Vec<(ArtifactKind, DecisionCacheStats)> {
    vec![(ArtifactKind::Verdict, store().verdict.lock().stats())]
}

/// Drops every verdict record and resets the counters.
pub fn clear_stage_caches() {
    store().verdict.lock().clear();
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
    fn change_flag_tracks_inserts_and_evictions_only() {
        let mut cache: StageCache<(Task, usize), Verdict> = StageCache::with_capacity(2);
        let key = |n: usize| (identity_task(2), n);
        let v = Verdict::Unknown { reason: "x".into() };
        assert!(!cache.take_changed(), "a new cache is unchanged");
        cache.insert(key(0), v.clone());
        assert!(cache.take_changed(), "an insert changes the cache");
        assert!(!cache.take_changed(), "taking the flag clears it");
        // Lookups and restores leave the flag alone...
        cache.get(&key(0));
        cache.get(&key(7));
        cache.restore_entry(key(1), v.clone());
        assert!(!cache.take_changed());
        // ...unless a restore evicts.
        cache.restore_entry(key(2), v.clone());
        assert!(cache.take_changed(), "an eviction changes the cache");
        cache.mark_changed();
        cache.clear();
        assert!(!cache.take_changed(), "clear resets the flag");
        // A zero-capacity cache never changes.
        let mut off: StageCache<(Task, usize), Verdict> = StageCache::with_capacity(0);
        off.insert(key(9), v);
        assert!(!off.take_changed());
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
        // The one cache is the verdict cache; the stage kinds name stages.
        let kinds: Vec<ArtifactKind> = stage_cache_stats().into_iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, [ArtifactKind::Verdict]);
        let names: Vec<&str> = ArtifactKind::STAGES.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "split",
                "link-graphs",
                "presentations",
                "homology",
                "explore"
            ]
        );
        assert_eq!(ArtifactKind::Verdict.name(), "verdict");
        assert_eq!(format!("{}", ArtifactKind::LinkGraphs), "link-graphs");
    }
}
