//! End-to-end persistence: durable verdict records must never change an
//! answer. The four acceptance properties pinned here:
//!
//! 1. **Digest parity** — verdicts and evidence-chain digests are
//!    byte-identical across a cold run, a warm-in-memory rerun, and a
//!    warm-from-disk rerun in a wiped store.
//! 2. **Corruption tolerance** — a flipped byte or torn tail in a
//!    snapshot degrades to recovery counters and a re-derived verdict,
//!    never a wrong verdict or a panic.
//! 3. **Lifecycle** — configuration resolution, the load → analyze →
//!    persist cycle (which writes only what changed), audit and clear
//!    behave as documented.
//! 4. **Verdicts only** — a warm-from-disk boot restores the verdict
//!    records and nothing else, and every task of the library replays
//!    its cold answer from them.
//!
//! Every test funnels through [`store_guard`]: the verdict cache is
//! process-wide, so tests that clear or repopulate it must not
//! interleave (the default test harness is multi-threaded).

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock, PoisonError};

use chromata::{
    analyze, audit_cache_dir, clear_cache_dir, clear_stage_caches, load_cache_dir,
    persist_if_changed, persist_now, stage_cache_stats, Analysis, ArtifactKind, CacheDirConfig,
    CacheEvent, PipelineOptions, SnapshotStatus,
};
use chromata_task::library::{hourglass, identity_task, two_set_agreement};
use chromata_task::Task;

/// Serializes every test in this binary: they all mutate the one
/// process-wide artifact store.
fn store_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// A unique, pre-cleaned scratch directory per test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chromata-e2e-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn tasks() -> Vec<Task> {
    vec![hourglass(), two_set_agreement(), identity_task(2)]
}

/// `(verdict rendering, evidence digest)` — the full observable answer.
fn fingerprint(a: &Analysis) -> (String, u64) {
    (a.verdict.to_string(), a.evidence.deterministic_digest())
}

#[test]
fn digest_parity_cold_warm_memory_warm_disk() {
    let _guard = store_guard();
    let dir = scratch_dir("parity");
    let config = CacheDirConfig::at(&dir);
    let options = PipelineOptions::default();
    let suite = tasks();

    clear_stage_caches();
    let cold: Vec<_> = suite
        .iter()
        .map(|t| fingerprint(&analyze(t, options)))
        .collect();

    // Warm-in-memory: every stage replays from the live caches.
    let warm_memory: Vec<_> = suite
        .iter()
        .map(|t| fingerprint(&analyze(t, options)))
        .collect();
    assert_eq!(cold, warm_memory, "in-memory replay changed an answer");

    // Snapshot, wipe the store, restore from disk, decide again.
    let saved = persist_now(&config)
        .expect("persistence is enabled")
        .expect("snapshot write succeeds");
    assert_eq!(saved.files_written, 1, "one snapshot: the verdict records");
    assert_eq!(saved.entries_written, suite.len() as u64);

    clear_stage_caches();
    let loaded = load_cache_dir(&config).expect("persistence is enabled");
    assert_eq!(loaded.restored, suite.len() as u64, "{loaded:?}");
    assert_eq!(loaded.recovery_events(), 0, "{loaded:?}");
    assert!(!loaded.missing, "{loaded:?}");

    let warm_disk: Vec<_> = suite
        .iter()
        .map(|t| fingerprint(&analyze(t, options)))
        .collect();
    assert_eq!(cold, warm_disk, "disk-restored replay changed an answer");

    // Replaying restored records changed no record: nothing to write.
    let unchanged = persist_if_changed(&config)
        .expect("persistence is enabled")
        .expect("no write, no failure");
    assert_eq!(unchanged.files_written, 0, "{unchanged:?}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cache_dir_cycle_loads_analyzes_and_persists() {
    let _guard = store_guard();
    let dir = scratch_dir("cycle");
    let config = CacheDirConfig::at(&dir);
    let options = PipelineOptions::default();
    clear_stage_caches();

    let loaded = load_cache_dir(&config).expect("persistence is enabled");
    assert!(loaded.missing, "a fresh directory has no snapshot");
    assert_eq!(loaded.restored, 0);
    let first = analyze(&hourglass(), options);
    let saved = persist_now(&config)
        .expect("persistence is enabled")
        .expect("snapshot after analysis");
    assert!(saved.entries_written > 0);

    // The same cycle again in the same process reads the directory
    // afresh, and the answer is identical.
    let reloaded = load_cache_dir(&config).expect("persistence is enabled");
    assert!(!reloaded.missing, "{reloaded:?}");
    let second = analyze(&hourglass(), options);
    assert_eq!(fingerprint(&first), fingerprint(&second));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_degrades_to_recovery_counters_not_a_wrong_verdict() {
    let _guard = store_guard();
    let dir = scratch_dir("flip");
    let config = CacheDirConfig::at(&dir);
    let options = PipelineOptions::default();

    clear_stage_caches();
    let cold = fingerprint(&analyze(&hourglass(), options));
    persist_now(&config)
        .expect("persistence is enabled")
        .expect("snapshot write succeeds");

    // Flip one payload byte in the verdict snapshot.
    let path = dir.join("verdict.snap");
    let mut bytes = fs::read(&path).expect("snapshot exists");
    let n = bytes.len();
    bytes[n - 3] ^= 0x01;
    fs::write(&path, &bytes).expect("rewrite snapshot");

    // The audit sees the damage...
    let audit = audit_cache_dir(&dir);
    assert!(!audit.is_clean(), "{audit:?}");
    assert_eq!(audit.corrupt_entries, 1, "{audit:?}");

    // ...the load classifies it as a recovery event, not a failure...
    clear_stage_caches();
    let loaded = load_cache_dir(&config).expect("persistence is enabled");
    assert!(loaded.recovery_events() >= 1, "{loaded:?}");

    // ...and the verdict is simply re-derived, byte-identical.
    let recovered = fingerprint(&analyze(&hourglass(), options));
    assert_eq!(cold, recovered);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_skips_only_the_final_record() {
    let _guard = store_guard();
    let dir = scratch_dir("torn");
    let config = CacheDirConfig::at(&dir);
    let options = PipelineOptions::default();

    clear_stage_caches();
    let kept = fingerprint(&analyze(&hourglass(), options));
    let cold = fingerprint(&analyze(&two_set_agreement(), options));
    persist_now(&config)
        .expect("persistence is enabled")
        .expect("snapshot write succeeds");

    // Tear the snapshot mid-way through its last record, as a crash
    // without the atomic-rename protocol would.
    let path = dir.join("verdict.snap");
    let bytes = fs::read(&path).expect("snapshot exists");
    fs::write(&path, &bytes[..bytes.len() - 2]).expect("rewrite snapshot");

    clear_stage_caches();
    let loaded = load_cache_dir(&config).expect("persistence is enabled");
    assert_eq!(loaded.torn_entries, 1, "{loaded:?}");
    assert_eq!(loaded.rejected_snapshots, 0, "{loaded:?}");
    assert_eq!(loaded.restored, 1, "the record before the tear survives");

    assert_eq!(kept, fingerprint(&analyze(&hourglass(), options)));
    let recovered = fingerprint(&analyze(&two_set_agreement(), options));
    assert_eq!(cold, recovered);

    let _ = fs::remove_dir_all(&dir);
}

/// Every registry task (`chromata list`), built from the library.
fn library() -> Vec<Task> {
    use chromata_task::library as lib;
    vec![
        lib::identity_task(3),
        lib::constant_task(3),
        lib::consensus(3),
        lib::two_process_consensus(),
        lib::majority_consensus(),
        hourglass(),
        lib::pinwheel(),
        two_set_agreement(),
        lib::adaptive_renaming(),
        lib::renaming(5),
        lib::leader_election(),
        lib::approximate_agreement(3),
        lib::loop_agreement("loop-disk", lib::disk_complex()),
        lib::loop_agreement("loop-sphere", lib::sphere_complex()),
        lib::loop_agreement("loop-torus", lib::torus_complex()),
        lib::loop_agreement("loop-rp2", lib::projective_plane_complex()),
        lib::loop_agreement("loop-klein-torsion", lib::klein_bottle_single_loop()),
        lib::loop_agreement("loop-klein-squared", lib::klein_bottle_doubled_loop()),
        lib::simple_example_task(),
    ]
}

#[test]
fn warm_from_disk_library_restores_only_verdicts_and_matches_cold() {
    let _guard = store_guard();
    let dir = scratch_dir("library");
    let config = CacheDirConfig::at(&dir);
    let options = PipelineOptions::default();
    let suite = library();

    clear_stage_caches();
    let cold: Vec<_> = suite
        .iter()
        .map(|t| fingerprint(&analyze(t, options)))
        .collect();
    persist_if_changed(&config)
        .expect("persistence is enabled")
        .expect("snapshot write succeeds");
    clear_stage_caches();
    let loaded = load_cache_dir(&config).expect("persistence is enabled");
    assert_eq!(loaded.recovery_events(), 0, "{loaded:?}");
    assert_eq!(loaded.restored, suite.len() as u64, "{loaded:?}");

    // The verdict cache is the only cache, and it holds the records.
    let stats = stage_cache_stats();
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].0, ArtifactKind::Verdict);
    assert_eq!(stats[0].1.restored, loaded.restored);

    // Every task replays its cold answer from its restored record: no
    // stage after canonicalize runs, the split included.
    let warm: Vec<_> = suite
        .iter()
        .map(|t| {
            let analysis = analyze(t, options);
            assert!(
                analysis
                    .evidence
                    .stages
                    .iter()
                    .filter(|s| s.stage != "canonicalize")
                    .all(|s| s.cache == CacheEvent::Replayed),
                "{}",
                t.name()
            );
            fingerprint(&analysis)
        })
        .collect();
    assert_eq!(cold, warm, "disk-restored replay changed an answer");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn config_resolution_explicit_or_disabled() {
    let _guard = store_guard();
    let explicit = PathBuf::from("/tmp/chromata-explicit");
    let config = CacheDirConfig::from(Some(explicit.clone()));
    assert_eq!(config.dir(), Some(explicit.as_path()));

    let config = CacheDirConfig::from(None);
    assert!(!config.is_enabled());
    assert_eq!(config.dir(), None);
    // Disabled persistence is inert end to end.
    assert!(load_cache_dir(&config).is_none());
    assert!(persist_now(&config).is_none());
}

#[test]
fn clear_cache_dir_removes_every_snapshot() {
    let _guard = store_guard();
    let dir = scratch_dir("clear");
    let config = CacheDirConfig::at(&dir);
    clear_stage_caches();

    let _ = analyze(&identity_task(2), PipelineOptions::default());
    let saved = persist_now(&config).expect("persistence is enabled");
    assert!(saved.is_ok(), "{saved:?}");
    // A file the cache did not write stays where it is.
    fs::write(dir.join("notes.txt"), "not a snapshot\n").expect("write");

    let removed = clear_cache_dir(&dir).expect("clear succeeds");
    assert_eq!(removed, 1, "the snapshot removed");
    let audit = audit_cache_dir(&dir);
    assert_eq!(audit.status, SnapshotStatus::Missing);
    assert_eq!(
        fs::read_to_string(dir.join("notes.txt")).ok().as_deref(),
        Some("not a snapshot\n")
    );

    let _ = fs::remove_dir_all(&dir);
}
