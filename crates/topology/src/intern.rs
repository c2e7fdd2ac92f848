//! Global hash-consing interners for [`Vertex`](crate::Vertex) and
//! [`Simplex`](crate::Simplex).
//!
//! Subdivision and exploration workloads create the same vertices and
//! simplices over and over (views are shared between facets, faces between
//! simplices). Interning collapses every structurally-equal vertex/simplex
//! to a single shared allocation, so that
//!
//! * equality is a pointer comparison (`O(1)` instead of a deep structural
//!   walk through nested views),
//! * hashing writes one precomputed 64-bit fingerprint,
//! * the fingerprint doubles as a cheap, deterministic first key for total
//!   ordering, keeping ordered containers fast without sacrificing the
//!   run-to-run (and thread-interleaving-independent) determinism the
//!   serde output relies on.
//!
//! The interner is sharded to stay cheap under the parallel subdivision
//! fan-out, and it never evicts: the workspace's workloads are bounded by
//! the complexes actually constructed, and eviction would invalidate the
//! pointer-equality contract.
//!
//! A shard maps each fingerprint to one `Arc`, the first value interned
//! under it; a value whose fingerprint collides with a different value
//! goes to the shard's side table. [`Interner::intern`] looks the value up
//! and, on a miss, builds it with no lock held before inserting it (or
//! returning the entry a racing thread inserted first). Building a simplex
//! interns its boundary faces, and a face may live in the same shard:
//! `std::sync::Mutex` is not reentrant, so no shard lock may be held while
//! another value is interned.
//!
//! Fingerprints are computed with a fixed FNV-1a hasher, never with
//! `RandomState`, so they are identical across runs, builds and feature
//! combinations on a given platform.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of independent shards; a power of two so the shard index is a
/// mask of the fingerprint.
const SHARDS: usize = 16;

/// Fixed-key FNV-1a, used for all structural fingerprints. Deterministic
/// by construction (no per-process random state).
#[derive(Clone, Debug)]
pub struct StructuralHasher(u64);

impl Default for StructuralHasher {
    fn default() -> Self {
        StructuralHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for StructuralHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over raw bytes: [`StructuralHasher`]'s loop from its fixed
/// offset basis. The checksum of snapshot records.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = StructuralHasher::default();
    h.write(bytes);
    h.finish()
}

/// One xorshift64* step: the workspace's deterministic generator (task
/// mutants, chaos fault schedules). It reads no entropy source, so a
/// seed fully determines the sequence.
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// The structural fingerprint of any hashable value, via the fixed hasher.
///
/// Identical across runs, builds and feature configurations on a given
/// platform, so it can key caches, order poison-recovery re-queues, and
/// label artifacts without leaking `RandomState` nondeterminism. Stage
/// artifacts in the verdict engine are addressed by this fingerprint.
#[must_use]
pub fn structural_fingerprint<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = StructuralHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// `BuildHasher` for hash containers keyed by already-fingerprinted
/// values (interned vertices and simplices replay a precomputed 64-bit
/// fingerprint, so the cheap FNV mix is collision-safe and much faster
/// than SipHash); deterministic, unlike `RandomState`.
pub type BuildStructuralHasher = std::hash::BuildHasherDefault<StructuralHasher>;

/// One shard of a hash-consing table over `T`.
struct Shard<T> {
    /// The first value interned under each fingerprint.
    // chromata-lint: allow(D1): addressed by fingerprint key; the only traversal is an order-insensitive length sum in `len`
    first: std::collections::HashMap<u64, Arc<T>, BuildStructuralHasher>,
    /// Values whose fingerprint collided with a different, earlier value.
    /// 64-bit structural fingerprints almost never collide, so a scan is
    /// enough.
    collided: Vec<(u64, Arc<T>)>,
}

impl<T> Shard<T> {
    fn find(&self, hash: u64, matches: impl Fn(&T) -> bool) -> Option<&Arc<T>> {
        let first = self.first.get(&hash)?;
        if matches(first) {
            return Some(first);
        }
        self.collided
            .iter()
            .find(|(h, value)| *h == hash && matches(value))
            .map(|(_, value)| value)
    }
}

/// A sharded hash-consing table over `T`, bucketed by precomputed
/// fingerprint. Collisions fall back to the caller-supplied structural
/// match.
pub(crate) struct Interner<T> {
    shards: Vec<Mutex<Shard<T>>>,
}

impl<T> Interner<T> {
    pub(crate) fn new() -> Self {
        Interner {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        first: std::collections::HashMap::default(), // chromata-lint: allow(D1): shard construction, see `Shard::first`
                        collided: Vec::new(),
                    })
                })
                .collect(),
        }
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard<T>> {
        // Every update is a single insert, so a poisoned shard is still
        // a valid table.
        self.shards[(hash as usize) & (SHARDS - 1)] // chromata-lint: allow(P3): the index is masked by `SHARDS - 1` and `shards` holds exactly `SHARDS` (a power of two) entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the canonical `Arc` for the value with the given
    /// fingerprint: an existing entry for which `matches` holds, or a
    /// fresh one produced by `build`. `build` runs with no lock held, so
    /// it may intern other values into this table.
    pub(crate) fn intern<M, B>(&self, hash: u64, matches: M, build: B) -> Arc<T>
    where
        M: Fn(&T) -> bool,
        B: FnOnce() -> T,
    {
        match self.get(hash, &matches) {
            Some(existing) => existing,
            None => self.insert(hash, matches, build()),
        }
    }

    /// The entry with this fingerprint for which `matches` holds.
    pub(crate) fn get(&self, hash: u64, matches: impl Fn(&T) -> bool) -> Option<Arc<T>> {
        self.shard(hash).find(hash, matches).map(Arc::clone)
    }

    /// Inserts `value`, unless a racing thread inserted a matching entry
    /// since the caller's lookup missed: then that entry is canonical and
    /// `value` is dropped.
    pub(crate) fn insert(&self, hash: u64, matches: impl Fn(&T) -> bool, value: T) -> Arc<T> {
        let mut shard = self.shard(hash);
        if let Some(winner) = shard.find(hash, &matches) {
            return Arc::clone(winner);
        }
        let fresh = Arc::new(value);
        match shard.first.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(Arc::clone(&fresh));
            }
            Entry::Occupied(_) => shard.collided.push((hash, Arc::clone(&fresh))),
        }
        fresh
    }

    /// Number of interned values (diagnostics only).
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().unwrap_or_else(PoisonError::into_inner);
                shard.first.len() + shard.collided.len()
            })
            .sum()
    }
}

/// Diagnostic counts of the global interners: `(vertices, simplices)`.
///
/// Exposed so benchmarks and tests can observe sharing; the tables only
/// ever grow.
#[must_use]
pub fn interner_stats() -> (usize, usize) {
    (
        crate::vertex::interner().len(),
        crate::simplex::interner().len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprints_are_deterministic() {
        assert_eq!(
            structural_fingerprint(&42u64),
            structural_fingerprint(&42u64)
        );
        assert_ne!(
            structural_fingerprint(&42u64),
            structural_fingerprint(&43u64)
        );
        assert_eq!(structural_fingerprint("abc"), structural_fingerprint("abc"));
    }

    #[test]
    fn interner_dedups_by_structure() {
        let table: Interner<String> = Interner::new();
        let a = table.intern(7, |s| s == "x", || "x".to_owned());
        let b = table.intern(7, |s| s == "x", || "x".to_owned());
        assert!(Arc::ptr_eq(&a, &b));
        // Same fingerprint, different structure: the second value goes to
        // the shard's side table, and both stay canonical and counted.
        let c = table.intern(7, |s| s == "y", || "y".to_owned());
        assert!(!Arc::ptr_eq(&a, &c));
        let again = table.intern(7, |s| s == "y", || "y".to_owned());
        assert!(Arc::ptr_eq(&c, &again));
        assert_eq!(table.len(), 2);
        let shard = table.shard(7);
        assert!(Arc::ptr_eq(&shard.first[&7], &a));
        assert_eq!(shard.collided.len(), 1);
        assert!(Arc::ptr_eq(&shard.collided[0].1, &c));
    }

    #[test]
    fn canonical_arc_is_first_seen_and_stable() {
        // The canonical allocation for a structure is the *first* one
        // interned; later equal interns — even after unrelated inserts in
        // the same bucket — keep returning that very allocation, never a
        // newer one. This is the pointer-equality contract the fast-path
        // `Eq` impls rely on.
        let table: Interner<String> = Interner::new();
        let first = table.intern(3, |s| s == "a", || "a".to_owned());
        for other in ["b", "c", "d"] {
            table.intern(3, |s| s == other, || other.to_owned());
        }
        let again = table.intern(3, |s| s == "a", || "a".to_owned());
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn serialized_output_is_independent_of_interning_order() {
        // The global interners record *first-seen* allocation order,
        // which varies with construction order (and, under the parallel
        // feature, with thread interleaving). None of that may leak into
        // serde output: serialization is defined purely by structure.
        use crate::{Complex, Simplex, Vertex};
        let tri = |spin: i64| {
            Simplex::from_iter([
                Vertex::of(0, spin),
                Vertex::of(1, spin + 1),
                Vertex::of(2, spin + 2),
            ])
        };
        // Forward construction order…
        let forward = Complex::from_facets([tri(10), tri(20), tri(30)]);
        // …versus reversed order (different first-seen sequence in the
        // interner for any vertex/simplex not yet globally interned)…
        let reversed = Complex::from_facets([tri(30), tri(20), tri(10)]);
        // …versus concurrent construction from shuffled orders.
        let threads: Vec<_> = [[20, 30, 10], [30, 10, 20]]
            .into_iter()
            .map(|spins| {
                std::thread::spawn(move || {
                    Complex::from_facets(spins.into_iter().map(tri).collect::<Vec<_>>())
                })
            })
            .collect();
        let baseline = serde_json::to_string(&forward).unwrap();
        assert_eq!(serde_json::to_string(&reversed).unwrap(), baseline);
        for handle in threads {
            let complex = handle.join().unwrap();
            assert_eq!(serde_json::to_string(&complex).unwrap(), baseline);
        }
        // And the round-trip re-interns to the same structure.
        let back: Complex = serde_json::from_str(&baseline).unwrap();
        assert_eq!(back, forward);
    }
}
