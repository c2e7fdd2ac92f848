//! End-to-end persistence: durable stage caches must never change an
//! answer. The four acceptance properties pinned here:
//!
//! 1. **Digest parity** — verdicts and evidence-chain digests are
//!    byte-identical across a cold run, a warm-in-memory rerun, and a
//!    warm-from-disk rerun in a wiped store.
//! 2. **Corruption tolerance** — a flipped byte or torn tail in a
//!    snapshot degrades to recovery counters and a re-derived artifact,
//!    never a wrong verdict or a panic.
//! 3. **Lifecycle** — configuration resolution, the load → analyze →
//!    persist cycle, audit and clear behave as documented.
//! 4. **Derived flags** — a restored presentation summary re-derives its
//!    triviality and evident-abelianness flags to the values a fresh
//!    build computes, for every task of the library.
//!
//! Every test funnels through [`store_guard`]: the stage caches are
//! process-wide, so tests that clear or repopulate them must not
//! interleave (the default test harness is multi-threaded).

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock, PoisonError};

use chromata::{
    analyze, audit_cache_dir, clear_cache_dir, clear_stage_caches, load_cache_dir, persist_now,
    Analysis, CacheDirConfig, LinkGraphs, PipelineOptions, Presentations, SnapshotAudit,
    SnapshotStatus, CACHE_DIR_ENV,
};
use chromata_task::library::{hourglass, identity_task, two_set_agreement};
use chromata_task::Task;

/// Serializes every test in this binary: they all mutate the one
/// process-wide artifact store (and one of them the process environment).
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
    assert_eq!(saved.files_written, 6, "one snapshot per artifact kind");
    assert!(saved.entries_written > 0);

    clear_stage_caches();
    let loaded = load_cache_dir(&config).expect("persistence is enabled");
    assert!(loaded.restored > 0, "{loaded:?}");
    assert_eq!(loaded.recovery_events(), 0, "{loaded:?}");
    assert_eq!(loaded.missing, 0, "{loaded:?}");

    let warm_disk: Vec<_> = suite
        .iter()
        .map(|t| fingerprint(&analyze(t, options)))
        .collect();
    assert_eq!(cold, warm_disk, "disk-restored replay changed an answer");

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
    assert_eq!(loaded.missing, 6, "a fresh directory has no snapshots");
    assert_eq!(loaded.restored, 0);
    let first = analyze(&hourglass(), options);
    let saved = persist_now(&config)
        .expect("persistence is enabled")
        .expect("snapshot after analysis");
    assert!(saved.entries_written > 0);

    // The same cycle again in the same process reads the directory
    // afresh, and the answer is identical.
    let reloaded = load_cache_dir(&config).expect("persistence is enabled");
    assert_eq!(reloaded.missing, 0, "{reloaded:?}");
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

    // The audit sees the damage, confined to the one kind...
    let audits = audit_cache_dir(&dir);
    assert_eq!(audits.len(), 6);
    let verdict_audit = audits
        .iter()
        .find(|a| a.kind.name() == "verdict")
        .expect("verdict kind audited");
    assert!(!verdict_audit.is_clean(), "{verdict_audit:?}");
    assert!(audits
        .iter()
        .filter(|a| a.kind.name() != "verdict")
        .all(SnapshotAudit::is_clean));

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
    let cold = fingerprint(&analyze(&two_set_agreement(), options));
    persist_now(&config)
        .expect("persistence is enabled")
        .expect("snapshot write succeeds");

    // Tear the split snapshot mid-way through its last record, as a
    // crash without the atomic-rename protocol would.
    let path = dir.join("split.snap");
    let bytes = fs::read(&path).expect("snapshot exists");
    fs::write(&path, &bytes[..bytes.len() - 2]).expect("rewrite snapshot");

    clear_stage_caches();
    let loaded = load_cache_dir(&config).expect("persistence is enabled");
    assert_eq!(loaded.torn_entries, 1, "{loaded:?}");
    assert_eq!(loaded.rejected_snapshots, 0, "{loaded:?}");

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
fn restored_presentation_summaries_match_fresh_ones_across_the_library() {
    let _guard = store_guard();
    let dir = scratch_dir("summaries");
    let config = CacheDirConfig::at(&dir);
    let options = PipelineOptions::default();
    let suite = library();

    clear_stage_caches();
    let cold: Vec<_> = suite
        .iter()
        .map(|t| fingerprint(&analyze(t, options)))
        .collect();
    persist_now(&config)
        .expect("persistence is enabled")
        .expect("snapshot write succeeds");
    clear_stage_caches();
    let loaded = load_cache_dir(&config).expect("persistence is enabled");
    assert_eq!(loaded.recovery_events(), 0, "{loaded:?}");

    // Restore derives a summary's flags from its persisted simplified
    // presentation instead of simplifying again. Decode every persisted
    // presentation artifact the way the load did and compare each summary
    // with one built from scratch for the same branch task.
    let body = fs::read_to_string(dir.join("presentations.snap")).expect("snapshot exists");
    let mut summaries = 0;
    for record in body.lines().filter(|l| l.starts_with("E ")) {
        let payload = record.get(19..).expect("tag, checksum and separator");
        let (branch, restored): (Task, Presentations) =
            serde_json::from_str(payload).expect("record decodes");
        let fresh = Presentations::build(&branch, &LinkGraphs::build(&branch));
        assert_eq!(restored.per_triangle.len(), fresh.per_triangle.len());
        for (r, f) in restored.per_triangle.iter().zip(&fresh.per_triangle) {
            assert_eq!(r.components.len(), f.components.len());
            let pairs = r
                .components
                .iter()
                .map(|c| &c.summary)
                .zip(f.components.iter().map(|c| &c.summary))
                .chain([(&r.empty, &f.empty)]);
            for (r, f) in pairs {
                assert_eq!(r.is_trivial(), f.is_trivial(), "{}", branch.name());
                assert_eq!(
                    r.is_evidently_abelian(),
                    f.is_evidently_abelian(),
                    "{}",
                    branch.name()
                );
                summaries += 1;
            }
        }
    }
    assert!(
        summaries > suite.len(),
        "only {summaries} summaries restored"
    );

    // And the restored store answers exactly as the cold one did.
    let warm: Vec<_> = suite
        .iter()
        .map(|t| fingerprint(&analyze(t, options)))
        .collect();
    assert_eq!(cold, warm, "disk-restored replay changed an answer");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn config_resolution_explicit_beats_env_beats_disabled() {
    let _guard = store_guard();
    let explicit = PathBuf::from("/tmp/chromata-explicit");
    let from_env = PathBuf::from("/tmp/chromata-env");

    std::env::set_var(CACHE_DIR_ENV, &from_env);
    let config = CacheDirConfig::resolve(Some(explicit.clone()));
    assert_eq!(config.dir(), Some(explicit.as_path()));
    let config = CacheDirConfig::resolve(None);
    assert_eq!(config.dir(), Some(from_env.as_path()));
    std::env::remove_var(CACHE_DIR_ENV);

    let config = CacheDirConfig::resolve(None);
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

    let removed = clear_cache_dir(&dir).expect("clear succeeds");
    assert!(
        removed >= 6,
        "all six kind snapshots removed, got {removed}"
    );
    assert!(audit_cache_dir(&dir)
        .iter()
        .all(|a| a.status == SnapshotStatus::Missing));

    let _ = fs::remove_dir_all(&dir);
}
