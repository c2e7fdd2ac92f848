//! Crash-safe persistence of the verdict records: a durable snapshot of
//! the [`ArtifactStore`]'s verdict cache with corruption-tolerant
//! recovery.
//!
//! The verdict records are the engine's only cache, and so the only
//! durable state. A verdict hit replays the whole evidence chain after
//! canonicalization, the split included, so it needs no other artifact.
//!
//! The snapshot is one file, `<dir>/verdict.snap`, written with the
//! classic durable protocol — temp file, fsync, atomic rename, directory
//! fsync — so a crash at any instant leaves it equal to either the old
//! snapshot or the new one, never a mix. One process-wide lock
//! serializes every save, so two writers never share the temp file. The
//! format is line-oriented and per-record-checksummed:
//!
//! ```text
//! chromata-snap v4 verdict\n          (magic + version + kind)
//! E <fnv1a-16hex> [key,record]\n      (one verdict record, FIFO order)
//! ```
//!
//! Version history: v1 keyed link-graph, presentation, and homology
//! entries on whole tasks; v2 keyed them per split branch, in one file
//! per kind, each with an `H` header of capacity and hit/miss/eviction
//! counters. v3 keeps the verdict file alone and drops the header: the
//! capacity is a constant and the counters are process-local telemetry.
//! v4 records carry the split stage's trace too, since a verdict hit no
//! longer runs the split. An older snapshot fails the magic check and
//! is rejected wholesale —
//! the engine degrades to a cold recompute, which is always sound,
//! rather than attempting a cross-version migration.
//!
//! Loading is paranoid and graceful — persistence must never poison a
//! verdict. The recovery taxonomy (counted per cause in
//! [`DecisionCacheStats`](crate::DecisionCacheStats)):
//!
//! * **rejected snapshot** — missing magic line, bad magic, unsupported
//!   version, or an I/O error: the whole file is discarded and the cache
//!   stays as it was;
//! * **torn entry** — a trailing record with no final newline (crash
//!   mid-append): the fragment is skipped, every complete record
//!   before it is kept;
//! * **corrupt entry** — a complete-looking record whose checksum or
//!   payload fails (an invalid task key, an unknown stage name): the
//!   record is skipped.
//!
//! Callers wrap analyses in [`load_cache_dir`] (the only loader; it
//! reads the directory on every call) and one of two writers:
//! [`persist_now`] always writes, [`persist_if_changed`] only when the
//! verdict cache's change flag says the records differ from the last
//! load or save (see `StageCache::take_changed`).
//!
//! The write protocol and the loader take their filesystem operations
//! as a `PersistIo`, so the unit tests can inject every `io::ErrorKind`
//! at every operation and kill the process model at every point of the
//! protocol. The entry points always pass `RealIo`, so outside these
//! tests every fault is a real filesystem fault (rule D3 confines
//! `std::fs` to this module).

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use chromata_task::Task;
use chromata_topology::fnv1a;

use super::cache::{store, ArtifactStore};
use super::DecisionRecord;

/// The first line of every snapshot: magic, format version, kind. Bumped
/// to v4 when the records gained the split trace; older snapshots are
/// rejected (degrading to recompute), never reinterpreted.
const MAGIC: &str = "chromata-snap v4 verdict";

/// The snapshot's file name inside the cache directory.
const SNAPSHOT_FILE: &str = "verdict.snap";

/// The temp file a save writes and then renames over the snapshot.
const TMP_FILE: &str = "verdict.snap.tmp";

/// A persisted verdict record: the cache key (canonical task, ACT
/// fallback bound) and the record.
type Entry = ((Task, usize), DecisionRecord);

// ---------------------------------------------------------------------------
// The I/O seam
// ---------------------------------------------------------------------------

/// The filesystem operations the persist layer performs, factored out so
/// tests can fail or kill any one of them (mirrors `runtime/fault.rs`).
pub(crate) trait PersistIo {
    /// Creates the cache directory (and parents).
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Writes the full snapshot body to the temp path.
    fn write_tmp(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes the temp file's contents to stable storage.
    fn sync_tmp(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames the temp file over the final snapshot.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Flushes the directory entry of the rename to stable storage
    /// (best effort — not all platforms support directory fsync).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Reads a whole file; `Ok(None)` when it does not exist.
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>>;
}

/// The real filesystem, the only `PersistIo` outside the unit tests.
pub(crate) struct RealIo;

impl PersistIo for RealIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn write_tmp(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn sync_tmp(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory handles cannot be fsynced everywhere; swallow the
        // platform's refusal but surface real failures.
        match std::fs::File::open(dir).and_then(|d| d.sync_all()) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::PermissionDenied => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Persist health
// ---------------------------------------------------------------------------

/// Failed snapshots since process start (ENOSPC, permission loss, a
/// file where the directory should be, …). A failure never wedges
/// serving: the old snapshot stays intact on disk and the store keeps
/// answering from memory (see [`store_read_through`]).
static PERSIST_FAILURES: AtomicU64 = AtomicU64::new(0);

/// Whether the store is currently *read-through*: the most recent
/// snapshot attempt failed, so the in-memory caches are ahead of disk.
/// Cleared by the next successful save.
static READ_THROUGH: AtomicBool = AtomicBool::new(false);

/// How many snapshots have failed in this process.
#[must_use]
pub fn persist_failures() -> u64 {
    PERSIST_FAILURES.load(Ordering::Relaxed)
}

/// Whether the last snapshot attempt failed and the store is serving
/// read-through (in-memory state ahead of the on-disk snapshot).
#[must_use]
pub fn store_read_through() -> bool {
    READ_THROUGH.load(Ordering::Acquire)
}

// ---------------------------------------------------------------------------
// Errors and reports
// ---------------------------------------------------------------------------

/// A persistence failure: which protocol step failed, on which path,
/// and the underlying message. The atomic protocol keeps the file on
/// disk consistent; loading never raises this — corruption degrades to
/// recovery counters instead.
#[derive(Clone, Debug)]
pub struct PersistError {
    /// Protocol step that failed (`create-dir`, `encode`, `write-tmp`,
    /// `sync-tmp`, `rename`, `sync-dir`, `remove`).
    pub step: &'static str,
    /// The path the step was operating on.
    pub path: PathBuf,
    /// The underlying error message.
    pub message: String,
}

impl PersistError {
    fn new(step: &'static str, path: &Path, message: impl fmt::Display) -> Self {
        PersistError {
            step,
            path: path.to_path_buf(),
            message: message.to_string(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache persistence failed at {} ({}): {}",
            self.step,
            self.path.display(),
            self.message
        )
    }
}

impl std::error::Error for PersistError {}

/// What a successful save wrote.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SaveReport {
    /// Snapshot files written: 1, or 0 when [`persist_if_changed`]
    /// found nothing changed and wrote nothing.
    pub files_written: usize,
    /// Verdict records persisted.
    pub entries_written: u64,
}

/// What a [`load_cache_dir`] recovered. The same per-cause counters also
/// land in the verdict cache's [`DecisionCacheStats`](crate::DecisionCacheStats).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LoadReport {
    /// Verdict records restored intact.
    pub restored: u64,
    /// Whole snapshots discarded (bad magic or version, read error).
    pub rejected_snapshots: u64,
    /// Truncated trailing records skipped (torn writes).
    pub torn_entries: u64,
    /// Complete-looking records skipped (checksum or payload).
    pub corrupt_entries: u64,
    /// Whether the directory held no snapshot at all (a fresh directory).
    pub missing: bool,
}

impl LoadReport {
    /// Sum of the per-cause recovery counters.
    #[must_use]
    pub fn recovery_events(&self) -> u64 {
        self.rejected_snapshots + self.torn_entries + self.corrupt_entries
    }
}

// ---------------------------------------------------------------------------
// Snapshot rendering and parsing
// ---------------------------------------------------------------------------

/// Appends `<tag> <16-hex fnv1a(payload)> <payload>\n`.
fn push_record(out: &mut String, tag: char, payload: &str) {
    out.push(tag);
    out.push(' ');
    out.push_str(&format!("{:016x}", fnv1a(payload.as_bytes())));
    out.push(' ');
    out.push_str(payload);
    out.push('\n');
}

/// Renders a full snapshot body: the magic line, then every record in
/// insertion (eviction) order.
fn render_snapshot(entries: &[Entry]) -> Result<String, String> {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    for (k, v) in entries {
        let payload = serde_json::to_string(&(k, v)).map_err(|e| format!("entry: {e}"))?;
        push_record(&mut out, 'E', &payload);
    }
    Ok(out)
}

/// Splits a byte string into complete (newline-terminated) lines plus
/// the torn trailing fragment, if any bytes follow the last newline.
fn split_lines(bytes: &[u8]) -> (Vec<&[u8]>, Option<&[u8]>) {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let tail = match lines.pop() {
        Some(last) if !last.is_empty() => Some(last),
        _ => None,
    };
    (lines, tail)
}

/// Parses `<tag> <16-hex> <payload>`, returning the stated checksum and
/// the raw payload bytes.
fn parse_tagged_line(line: &[u8], tag: u8) -> Result<(u64, &[u8]), String> {
    let rest = line
        .strip_prefix([tag, b' '].as_slice())
        .ok_or_else(|| format!("expected a '{}' record", char::from(tag)))?;
    let hex = rest.get(..16).ok_or("record shorter than its checksum")?;
    if rest.get(16) != Some(&b' ') {
        return Err("malformed checksum separator".to_owned());
    }
    let payload = rest.get(17..).ok_or("record missing its payload")?;
    let hex = std::str::from_utf8(hex).map_err(|_| "non-ASCII checksum".to_owned())?;
    let checksum =
        u64::from_str_radix(hex, 16).map_err(|_| "non-hexadecimal checksum".to_owned())?;
    Ok((checksum, payload))
}

/// Verifies and decodes one entry record: the checksum, then the JSON
/// payload (which validates the task key through `Task::new` and interns
/// every stage name).
fn decode_entry(line: &[u8]) -> Result<Entry, String> {
    let (stated, payload) = parse_tagged_line(line, b'E')?;
    let actual = fnv1a(payload);
    if stated != actual {
        return Err(format!(
            "checksum mismatch (stated {stated:016x}, actual {actual:016x})"
        ));
    }
    let text = std::str::from_utf8(payload).map_err(|_| "non-UTF-8 payload".to_owned())?;
    serde_json::from_str(text).map_err(|e| format!("undecodable payload: {e}"))
}

/// Parses a whole snapshot body into its audit (per-entry recovery
/// counts) and its records. `Err` rejects the snapshot outright (nothing
/// is trustworthy without the magic line); after it, every failure
/// degrades to a per-entry recovery counter.
fn parse_snapshot(bytes: &[u8]) -> Result<(SnapshotAudit, Vec<Entry>), String> {
    let (lines, tail) = split_lines(bytes);
    let mut complete = lines.iter();
    match complete.next() {
        None if tail.is_some() => return Err("truncated before the magic line".to_owned()),
        None => return Err("empty snapshot".to_owned()),
        Some(first) if *first != MAGIC.as_bytes() => {
            return Err(format!(
                "bad magic (expected '{MAGIC}', found '{}')",
                String::from_utf8_lossy(first)
            ))
        }
        Some(_) => {}
    }
    let mut audit = SnapshotAudit::empty(SnapshotStatus::Valid);
    let mut entries = Vec::new();
    for (index, line) in complete.enumerate() {
        match decode_entry(line) {
            Ok(entry) => entries.push(entry),
            Err(why) => {
                audit.corrupt_entries += 1;
                audit.issues.push(format!("entry {index}: {why}"));
            }
        }
    }
    if tail.is_some() {
        audit.torn_entries += 1;
        audit
            .issues
            .push("torn trailing record (no final newline)".to_owned());
    }
    audit.entries = entries.len() as u64;
    Ok((audit, entries))
}

// ---------------------------------------------------------------------------
// Save / load over an ArtifactStore
// ---------------------------------------------------------------------------

/// Serializes every save in the process. Each save writes the one temp
/// file, so two unserialized saves (the serve persister and a wire
/// `persist` op, say) could rename each other's temp file away or
/// truncate it just before the other renames it.
static SAVE_LOCK: Mutex<()> = Mutex::new(());

/// Snapshots the verdict records of `store` into `dir` with the durable
/// write protocol. With `only_if_changed`, a store whose change flag is
/// clear and whose last load or save was of `dir` writes nothing and
/// reports no file. A failed save re-sets the flag, so the next implicit
/// save retries.
pub(crate) fn save_store(
    store: &ArtifactStore,
    dir: &Path,
    io: &dyn PersistIo,
    only_if_changed: bool,
) -> Result<SaveReport, PersistError> {
    // chromata-lint: allow(L2): serializing the write protocol across its
    // I/O is this lock's purpose; it guards no data and nests only the
    // verdict cache's lock, which is never held while taking it.
    let _serial = SAVE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let synced = synced_dir(store).as_deref() == Some(dir);
    let entries = {
        let mut cache = store.verdict.lock();
        let changed = cache.take_changed();
        if only_if_changed && !changed && synced {
            return Ok(SaveReport::default());
        }
        cache.entries_in_order()
    };
    let written = write_snapshot(dir, io, &entries);
    match written {
        Ok(_) => *synced_dir(store) = Some(dir.to_path_buf()),
        Err(_) => store.verdict.lock().mark_changed(),
    }
    written
}

/// The directory `store`'s change flag refers to (poison-safe: the
/// slot holds one value, valid after any update).
fn synced_dir(store: &ArtifactStore) -> MutexGuard<'_, Option<PathBuf>> {
    store
        .synced_dir
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The durable write protocol: temp file, fsync, rename, directory
/// fsync. Called with no cache lock held (rule L2).
fn write_snapshot(
    dir: &Path,
    io: &dyn PersistIo,
    entries: &[Entry],
) -> Result<SaveReport, PersistError> {
    let target = dir.join(SNAPSHOT_FILE);
    io.create_dir_all(dir)
        .map_err(|e| PersistError::new("create-dir", dir, e))?;
    let body = render_snapshot(entries).map_err(|e| PersistError::new("encode", &target, e))?;
    let tmp = dir.join(TMP_FILE);
    io.write_tmp(&tmp, body.as_bytes())
        .map_err(|e| PersistError::new("write-tmp", &tmp, e))?;
    io.sync_tmp(&tmp)
        .map_err(|e| PersistError::new("sync-tmp", &tmp, e))?;
    io.rename(&tmp, &target)
        .map_err(|e| PersistError::new("rename", &target, e))?;
    io.sync_dir(dir)
        .map_err(|e| PersistError::new("sync-dir", dir, e))?;
    Ok(SaveReport {
        files_written: 1,
        entries_written: entries.len() as u64,
    })
}

/// Restores the verdict records of `store` from the snapshot in `dir`,
/// appended in snapshot order, which becomes the eviction order. Never
/// fails: every corruption mode degrades to recovery counters, on the
/// report and on the verdict cache. The cache's counters are otherwise
/// untouched. The change flag then refers to `dir`; it is set when the
/// load recovered from anything, or when the cache holds records the
/// snapshot lacked, so the next implicit save rewrites the file.
pub(crate) fn load_store(store: &ArtifactStore, dir: &Path, io: &dyn PersistIo) -> LoadReport {
    *synced_dir(store) = Some(dir.to_path_buf());
    let mut report = LoadReport::default();
    let parsed = match io.read(&dir.join(SNAPSHOT_FILE)) {
        Ok(None) => {
            report.missing = true;
            Ok((SnapshotAudit::empty(SnapshotStatus::Missing), Vec::new()))
        }
        Ok(Some(bytes)) => parse_snapshot(&bytes),
        Err(e) => Err(format!("unreadable: {e}")),
    };
    let mut cache = store.verdict.lock();
    let Ok((audit, entries)) = parsed else {
        report.rejected_snapshots = 1;
        cache.stats_mut().rejected_snapshots += 1;
        cache.mark_changed();
        return report;
    };
    report.restored = audit.entries;
    report.torn_entries = audit.torn_entries;
    report.corrupt_entries = audit.corrupt_entries;
    let stats = cache.stats_mut();
    stats.torn_entries += audit.torn_entries;
    stats.corrupt_entries += audit.corrupt_entries;
    for (k, v) in entries {
        cache.restore_entry(k, v);
    }
    if report.recovery_events() > 0 || cache.len() as u64 > report.restored {
        cache.mark_changed();
    }
    report
}

// ---------------------------------------------------------------------------
// Public configuration + entry points
// ---------------------------------------------------------------------------

/// Where (and whether) to persist the verdict records. Disabled by
/// default; enabled by an explicit directory (`--cache-dir`).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheDirConfig {
    dir: Option<PathBuf>,
}

impl CacheDirConfig {
    /// Persistence off (the default).
    #[must_use]
    pub fn disabled() -> Self {
        CacheDirConfig { dir: None }
    }

    /// Persistence on, rooted at `dir`.
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        CacheDirConfig {
            dir: Some(dir.into()),
        }
    }

    /// The configured cache directory, if persistence is enabled.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Whether persistence is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }
}

/// A command's `--cache-dir`: persistence at that directory, or off
/// when the flag is absent.
impl From<Option<PathBuf>> for CacheDirConfig {
    fn from(dir: Option<PathBuf>) -> Self {
        CacheDirConfig { dir }
    }
}

/// Loads the configured cache directory into the process-wide store —
/// the only loader. Every call reads the directory afresh: a command
/// loads once before it analyzes, and a daemon boot is an explicit
/// restore point. `None` when persistence is disabled.
pub fn load_cache_dir(config: &CacheDirConfig) -> Option<LoadReport> {
    let dir = config.dir()?;
    Some(load_store(store(), dir, &RealIo))
}

/// Snapshots the process-wide verdict records into the configured cache
/// directory, whether or not they changed: the explicit snapshot (the
/// wire `persist` op). `None` when persistence is disabled.
///
/// A failed save is counted in [`persist_failures`] and flips the store
/// into read-through mode ([`store_read_through`]); the atomic protocol
/// guarantees the previous snapshot is still intact on disk, so serving
/// continues unharmed and the next save retries.
pub fn persist_now(config: &CacheDirConfig) -> Option<Result<SaveReport, PersistError>> {
    persist(config, false)
}

/// [`persist_now`], but a no-op (`files_written == 0`, no I/O at all)
/// unless a verdict record was inserted or evicted since the last load
/// or save, that load skipped a damaged snapshot or record, or the last
/// load or save was of another directory: the implicit snapshot of
/// command epilogues, the serve cadence and serve shutdown.
pub fn persist_if_changed(config: &CacheDirConfig) -> Option<Result<SaveReport, PersistError>> {
    persist(config, true)
}

fn persist(
    config: &CacheDirConfig,
    only_if_changed: bool,
) -> Option<Result<SaveReport, PersistError>> {
    let dir = config.dir()?;
    let result = save_store(store(), dir, &RealIo, only_if_changed);
    match &result {
        Ok(_) => READ_THROUGH.store(false, Ordering::Release),
        Err(_) => {
            PERSIST_FAILURES.fetch_add(1, Ordering::Relaxed);
            READ_THROUGH.store(true, Ordering::Release);
        }
    }
    Some(result)
}

// ---------------------------------------------------------------------------
// Offline audit + maintenance
// ---------------------------------------------------------------------------

/// Integrity status of the snapshot file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotStatus {
    /// No snapshot file exists.
    Missing,
    /// The snapshot decoded (possibly with skipped entries — check the
    /// recovery counters).
    Valid,
    /// The whole snapshot was rejected (bad magic or version, read error).
    Rejected,
}

impl SnapshotStatus {
    /// Stable lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SnapshotStatus::Missing => "missing",
            SnapshotStatus::Valid => "valid",
            SnapshotStatus::Rejected => "rejected",
        }
    }
}

impl fmt::Display for SnapshotStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The offline integrity report of a cache directory, produced by
/// [`audit_cache_dir`] without touching the process-wide store.
#[derive(Clone, Debug)]
pub struct SnapshotAudit {
    /// Whole-file status of the verdict snapshot.
    pub status: SnapshotStatus,
    /// Fully decoded entries.
    pub entries: u64,
    /// Torn trailing records detected.
    pub torn_entries: u64,
    /// Corrupt (checksum or payload) records detected.
    pub corrupt_entries: u64,
    /// Human-readable descriptions of every problem found.
    pub issues: Vec<String>,
}

impl SnapshotAudit {
    fn empty(status: SnapshotStatus) -> Self {
        SnapshotAudit {
            status,
            entries: 0,
            torn_entries: 0,
            corrupt_entries: 0,
            issues: Vec::new(),
        }
    }

    /// Whether the snapshot is fully intact (missing counts as clean —
    /// a fresh directory is not corrupt).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.status != SnapshotStatus::Rejected
            && self.torn_entries == 0
            && self.corrupt_entries == 0
    }
}

/// Audits the snapshot in `dir` offline — checksum verification and a
/// full typed decode of every record — without loading anything into
/// the process-wide store.
#[must_use]
pub fn audit_cache_dir(dir: &Path) -> SnapshotAudit {
    let decoded = match RealIo.read(&dir.join(SNAPSHOT_FILE)) {
        Ok(None) => Ok(SnapshotAudit::empty(SnapshotStatus::Missing)),
        Ok(Some(bytes)) => parse_snapshot(&bytes).map(|(audit, _)| audit),
        Err(e) => Err(format!("unreadable: {e}")),
    };
    decoded.unwrap_or_else(|why| {
        let mut audit = SnapshotAudit::empty(SnapshotStatus::Rejected);
        audit.issues.push(why);
        audit
    })
}

/// Removes the snapshot and any stray temp file in `dir`, returning how
/// many files were deleted. The directory and everything else in it are
/// kept.
pub fn clear_cache_dir(dir: &Path) -> Result<usize, PersistError> {
    let mut removed = 0;
    for path in [dir.join(SNAPSHOT_FILE), dir.join(TMP_FILE)] {
        match std::fs::remove_file(&path) {
            Ok(()) => removed += 1,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(PersistError::new("remove", &path, e)),
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    use proptest::prelude::*;

    use chromata_task::library::{
        constant_task, hourglass, identity_task, klein_bottle_doubled_loop, loop_agreement,
        two_set_agreement,
    };
    use chromata_topology::{Budget, CancelToken};

    use super::super::cache::store_test_guard;
    use super::super::StageTrace;
    use super::*;
    use crate::pipeline::{PipelineOptions, Verdict};

    // -- fixtures ----------------------------------------------------------

    /// A unique, pre-cleaned scratch directory per call.
    fn test_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("chromata-persist-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record() -> DecisionRecord {
        DecisionRecord {
            verdict: Verdict::Solvable {
                certificate: "test certificate".to_owned(),
            },
            decided_by: "explore",
            stages: vec![StageTrace {
                stage: "split",
                detail: "2 split step(s)".to_owned(),
                work: 2,
            }],
        }
    }

    /// A private store holding one verdict record per task.
    fn seeded_store_with(capacity: usize, tasks: &[Task]) -> ArtifactStore {
        let store = ArtifactStore::with_capacity(capacity);
        for task in tasks {
            store.verdict.lock().insert((task.clone(), 5), record());
        }
        store
    }

    fn seeded_store(capacity: usize) -> ArtifactStore {
        seeded_store_with(capacity, &[two_set_agreement(), constant_task(2)])
    }

    fn snapshot_bytes(dir: &Path) -> Vec<u8> {
        std::fs::read(dir.join(SNAPSHOT_FILE)).expect("snapshot exists")
    }

    fn keys(store: &ArtifactStore) -> Vec<(Task, usize)> {
        store
            .verdict
            .lock()
            .entries_in_order()
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    }

    // -- round trips -------------------------------------------------------

    #[test]
    fn roundtrip_is_byte_identical_and_keeps_the_capacity() {
        let store = seeded_store(8);
        let dir = test_dir("roundtrip");
        let report = save_store(&store, &dir, &RealIo, false).expect("save");
        assert_eq!(
            report,
            SaveReport {
                files_written: 1,
                entries_written: 2,
            }
        );
        // Only the verdict records reach the disk.
        let files: Vec<String> = std::fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, [SNAPSHOT_FILE]);

        // A store of another capacity keeps its own: the snapshot has
        // no header to impose one.
        let fresh = ArtifactStore::with_capacity(99);
        let load = load_store(&fresh, &dir, &RealIo);
        assert_eq!(load.restored, 2);
        assert_eq!(load.recovery_events(), 0);
        assert!(!load.missing);
        assert_eq!(fresh.verdict.lock().capacity(), 99);

        let dir2 = test_dir("roundtrip-resave");
        save_store(&fresh, &dir2, &RealIo, false).expect("re-save");
        assert_eq!(snapshot_bytes(&dir), snapshot_bytes(&dir2));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn snapshot_format_is_pinned_byte_for_byte() {
        // Cache directories outlive builds: a snapshot written by an
        // older build must restore under a newer one, so every byte of
        // the format is pinned (FNV-1a and length).
        let store = seeded_store_with(
            8,
            &[
                two_set_agreement(),
                constant_task(2),
                chromata_task::canonicalize(&hourglass()),
            ],
        );
        let dir = test_dir("pinned");
        save_store(&store, &dir, &RealIo, false).expect("save");
        let bytes = snapshot_bytes(&dir);
        assert_eq!(
            (format!("{:016x}", fnv1a(&bytes)), bytes.len()),
            ("8d714ea259b2001f".to_owned(), 9_385)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_counts_restored_and_merges_no_counters() {
        let store = seeded_store(8);
        // 2 hits and 1 miss on the saved store: telemetry that stays in
        // its process.
        let probe = two_set_agreement();
        store.verdict.lock().get(&(probe.clone(), 5));
        store.verdict.lock().get(&(probe.clone(), 5));
        store.verdict.lock().get(&(probe, 999));
        let dir = test_dir("stats");
        save_store(&store, &dir, &RealIo, false).expect("save");

        let fresh = ArtifactStore::with_capacity(4);
        fresh.verdict.lock().get(&(identity_task(3), 1));
        load_store(&fresh, &dir, &RealIo);
        let stats = fresh.verdict.lock().stats();
        assert_eq!(
            (stats.lookups, stats.hits, stats.misses, stats.evictions),
            (1, 0, 1, 0)
        );
        assert_eq!(stats.restored, 2);
        assert_eq!(stats.recovery_events(), 0);
        assert!(stats.is_coherent());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_order_drives_future_evictions() {
        let tasks = [
            two_set_agreement(),
            constant_task(2),
            identity_task(2),
            constant_task(3),
        ];
        let store = ArtifactStore::with_capacity(4);
        for t in &tasks {
            store.verdict.lock().insert((t.clone(), 1), record());
        }
        let dir = test_dir("order");
        save_store(&store, &dir, &RealIo, false).expect("save");

        let fresh = ArtifactStore::with_capacity(4);
        load_store(&fresh, &dir, &RealIo);
        let expected: Vec<_> = tasks.iter().map(|t| (t.clone(), 1usize)).collect();
        assert_eq!(
            keys(&fresh),
            expected,
            "snapshot order must be insertion order"
        );
        // One more insert evicts the *oldest restored* entry.
        fresh.verdict.lock().insert((identity_task(3), 1), record());
        assert_eq!(fresh.verdict.lock().len(), 4);
        assert!(!keys(&fresh).contains(&(two_set_agreement(), 1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serialization_is_independent_of_construction_order() {
        // Build the same keys in opposite orders: the snapshot bytes
        // must not depend on global interning history.
        let a1 = two_set_agreement();
        let b1 = constant_task(2);
        let b2 = constant_task(2);
        let a2 = two_set_agreement();
        let render = |a: &Task, b: &Task| {
            let store = ArtifactStore::with_capacity(4);
            store.verdict.lock().insert((a.clone(), 1), record());
            store.verdict.lock().insert((b.clone(), 1), record());
            let entries = store.verdict.lock().entries_in_order();
            render_snapshot(&entries).expect("render")
        };
        assert_eq!(render(&a1, &b1), render(&a2, &b2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Snapshot → reload preserves the records and their order for
        /// any insertion sequence; a smaller reload capacity keeps the
        /// newest, as if they had been inserted in snapshot order.
        #[test]
        fn roundtrip_identity_under_any_order(
            capacity in 1usize..6,
            order in proptest::collection::vec(0usize..4, 1..10),
            reload_capacity in 1usize..9,
        ) {
            let pool = [
                (two_set_agreement(), 3usize),
                (two_set_agreement(), 7usize),
                (constant_task(2), 3usize),
                (identity_task(2), 3usize),
            ];
            let store = ArtifactStore::with_capacity(capacity);
            for &i in &order {
                let key = pool[i].clone();
                store.verdict.lock().insert(key, record());
            }
            let dir = test_dir("prop");
            save_store(&store, &dir, &RealIo, false).expect("save");
            let fresh = ArtifactStore::with_capacity(reload_capacity);
            let report = load_store(&fresh, &dir, &RealIo);
            prop_assert_eq!(report.recovery_events(), 0);

            let original = store.verdict.lock().entries_in_order();
            let restored = fresh.verdict.lock().entries_in_order();
            prop_assert_eq!(report.restored as usize, original.len());
            let kept = original.len().min(reload_capacity);
            prop_assert_eq!(restored.len(), kept);
            for ((k1, v1), (k2, v2)) in original[original.len() - kept..].iter().zip(&restored) {
                prop_assert_eq!(k1, k2);
                prop_assert_eq!(
                    serde_json::to_string(v1).expect("ser"),
                    serde_json::to_string(v2).expect("ser")
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // -- torn writes -------------------------------------------------------

    #[test]
    fn torn_write_matrix_every_truncation_point() {
        let store = ArtifactStore::with_capacity(4);
        store.verdict.lock().insert((constant_task(2), 1), record());
        store.verdict.lock().insert((identity_task(2), 1), record());
        let dir = test_dir("torn-src");
        save_store(&store, &dir, &RealIo, false).expect("save");
        let full = snapshot_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);

        let work = test_dir("torn");
        std::fs::create_dir_all(&work).expect("mkdir");
        let target = work.join(SNAPSHOT_FILE);
        for cut in 0..=full.len() {
            let prefix = &full[..cut];
            std::fs::write(&target, prefix).expect("write truncated");
            let fresh = ArtifactStore::with_capacity(4);
            let report = load_store(&fresh, &work, &RealIo);
            assert!(!report.missing, "cut {cut}");

            let newlines = prefix.iter().filter(|&&b| b == b'\n').count();
            let torn_tail = !prefix.is_empty() && *prefix.last().expect("nonempty") != b'\n';
            if newlines == 0 {
                // Magic incomplete: the whole snapshot goes.
                assert_eq!(report.rejected_snapshots, 1, "cut {cut}");
                assert_eq!(report.restored, 0, "cut {cut}");
                assert_eq!(report.torn_entries, 0, "cut {cut}");
            } else {
                let complete_entries = (newlines - 1) as u64;
                assert_eq!(report.rejected_snapshots, 0, "cut {cut}");
                assert_eq!(report.restored, complete_entries, "cut {cut}");
                assert_eq!(report.torn_entries, u64::from(torn_tail), "cut {cut}");
                assert_eq!(report.corrupt_entries, 0, "cut {cut}");
                // Restored entries must be checksum-valid originals.
                for k in keys(&fresh) {
                    assert!(k == (constant_task(2), 1) || k == (identity_task(2), 1));
                }
            }
            // A torn snapshot is rewritten by the next implicit save.
            assert_eq!(
                fresh.verdict.lock().take_changed(),
                report.recovery_events() > 0,
                "cut {cut}"
            );
        }
        let _ = std::fs::remove_dir_all(&work);
    }

    // -- injected I/O faults ----------------------------------------------

    #[derive(Clone, Copy, Debug)]
    enum IoFaultMode {
        /// The targeted operation fails with this `ErrorKind`.
        Error(io::ErrorKind),
        /// The process model dies at the targeted operation: it fails,
        /// writes tear halfway, and every later operation fails too.
        Kill,
        /// A write persists a 7-bytes-short prefix, then errors.
        ShortWrite,
    }

    /// Counting fault injector over the real filesystem, in the style
    /// of `runtime/fault.rs`: operation `trigger_op` misbehaves.
    struct FaultIo {
        inner: RealIo,
        op: Cell<u64>,
        killed: Cell<bool>,
        trigger_op: u64,
        mode: IoFaultMode,
    }

    impl FaultIo {
        fn new(trigger_op: u64, mode: IoFaultMode) -> Self {
            FaultIo {
                inner: RealIo,
                op: Cell::new(0),
                killed: Cell::new(false),
                trigger_op,
                mode,
            }
        }

        /// An injector that never fires: it only counts operations.
        fn counting() -> Self {
            FaultIo::new(u64::MAX, IoFaultMode::Kill)
        }

        /// Counts this operation; `Ok(true)` means "fault it now".
        fn gate(&self) -> io::Result<bool> {
            if self.killed.get() {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "process is dead",
                ));
            }
            let n = self.op.get();
            self.op.set(n + 1);
            Ok(n == self.trigger_op)
        }

        fn fault(&self) -> io::Error {
            match self.mode {
                IoFaultMode::Error(kind) => io::Error::new(kind, "injected fault"),
                IoFaultMode::Kill => {
                    self.killed.set(true);
                    io::Error::new(io::ErrorKind::Interrupted, "killed")
                }
                IoFaultMode::ShortWrite => io::Error::new(io::ErrorKind::WriteZero, "short write"),
            }
        }
    }

    impl PersistIo for FaultIo {
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            if self.gate()? {
                return Err(self.fault());
            }
            self.inner.create_dir_all(dir)
        }

        fn write_tmp(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            if self.gate()? {
                // Torn writes are the interesting failure here: persist
                // a prefix before erroring, like a real crash would.
                let cut = match self.mode {
                    IoFaultMode::Kill => bytes.len() / 2,
                    IoFaultMode::ShortWrite => bytes.len().saturating_sub(7),
                    IoFaultMode::Error(_) => 0,
                };
                if cut > 0 {
                    let _ = self.inner.write_tmp(path, &bytes[..cut]);
                }
                return Err(self.fault());
            }
            self.inner.write_tmp(path, bytes)
        }

        fn sync_tmp(&self, path: &Path) -> io::Result<()> {
            if self.gate()? {
                return Err(self.fault());
            }
            self.inner.sync_tmp(path)
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            if self.gate()? {
                return Err(self.fault());
            }
            self.inner.rename(from, to)
        }

        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            if self.gate()? {
                return Err(self.fault());
            }
            self.inner.sync_dir(dir)
        }

        fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
            if self.gate()? {
                return Err(self.fault());
            }
            self.inner.read(path)
        }
    }

    /// Operations a full save performs: create-dir, write-tmp, sync-tmp,
    /// rename, sync-dir.
    const SAVE_OPS: u64 = 5;

    #[test]
    fn every_errorkind_at_every_killpoint_leaves_store_consistent() {
        let error_kinds = [
            io::ErrorKind::NotFound,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::NotConnected,
            io::ErrorKind::AddrInUse,
            io::ErrorKind::AddrNotAvailable,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::AlreadyExists,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::InvalidInput,
            io::ErrorKind::InvalidData,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WriteZero,
            io::ErrorKind::Interrupted,
            io::ErrorKind::Unsupported,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::OutOfMemory,
            io::ErrorKind::Other,
        ];
        let mut modes: Vec<IoFaultMode> = error_kinds.into_iter().map(IoFaultMode::Error).collect();
        modes.push(IoFaultMode::Kill);
        modes.push(IoFaultMode::ShortWrite);

        // Old state: one task. New state: old plus another task.
        let old_store = seeded_store_with(8, &[two_set_agreement()]);
        let new_store = seeded_store_with(8, &[two_set_agreement(), identity_task(2)]);
        let old_dir = test_dir("fault-old");
        let new_dir = test_dir("fault-new");
        save_store(&old_store, &old_dir, &RealIo, false).expect("baseline old");
        save_store(&new_store, &new_dir, &RealIo, false).expect("baseline new");
        let old_bytes = snapshot_bytes(&old_dir);
        let new_bytes = snapshot_bytes(&new_dir);

        let work = test_dir("fault-work");
        for mode in modes {
            for trigger in 0..SAVE_OPS {
                // Reset to the old, fully valid on-disk state.
                let _ = std::fs::remove_dir_all(&work);
                save_store(&old_store, &work, &RealIo, false).expect("reset");

                let io = FaultIo::new(trigger, mode);
                let result = save_store(&new_store, &work, &io, false);
                assert!(result.is_err(), "op {trigger} under {mode:?} must fail");
                // The failure keeps the store marked changed.
                assert!(new_store.verdict.lock().take_changed());

                // Crash-consistency: the file is wholly the old or wholly
                // the new snapshot — never a mix, never torn.
                let on_disk = snapshot_bytes(&work);
                assert!(
                    on_disk == old_bytes || on_disk == new_bytes,
                    "hybrid snapshot after faulting op {trigger} ({mode:?})"
                );
                // And a paranoid load sees zero corruption.
                let fresh = ArtifactStore::with_capacity(8);
                let report = load_store(&fresh, &work, &RealIo);
                assert_eq!(
                    report.recovery_events(),
                    0,
                    "recovery needed after op {trigger} ({mode:?})"
                );

                // A healthy retry converges to the new state exactly.
                save_store(&new_store, &work, &RealIo, false).expect("retry");
                assert_eq!(
                    snapshot_bytes(&work),
                    new_bytes,
                    "retry after {trigger} ({mode:?})"
                );
            }
        }
        for d in [&old_dir, &new_dir, &work] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn enospc_mid_snapshot_keeps_the_old_snapshot_at_every_op() {
        // Disk-full at every possible point of the save protocol: the
        // previous snapshot must stay wholly intact (old or complete
        // new, never torn), a paranoid load must be clean, and the
        // next implicit save with space back must converge exactly.
        let old_store = seeded_store_with(8, &[two_set_agreement()]);
        let new_store = seeded_store_with(8, &[two_set_agreement(), identity_task(2)]);
        let old_dir = test_dir("enospc-old");
        let new_dir = test_dir("enospc-new");
        save_store(&old_store, &old_dir, &RealIo, false).expect("baseline old");
        save_store(&new_store, &new_dir, &RealIo, false).expect("baseline new");
        let old_bytes = snapshot_bytes(&old_dir);
        let new_bytes = snapshot_bytes(&new_dir);

        let work = test_dir("enospc-work");
        for trigger in 0..SAVE_OPS {
            let _ = std::fs::remove_dir_all(&work);
            save_store(&old_store, &work, &RealIo, false).expect("reset");

            let io = FaultIo::new(trigger, IoFaultMode::Error(io::ErrorKind::StorageFull));
            save_store(&new_store, &work, &io, false).expect_err("disk full must fail the save");

            let on_disk = snapshot_bytes(&work);
            assert!(
                on_disk == old_bytes || on_disk == new_bytes,
                "torn after ENOSPC at op {trigger}"
            );
            let fresh = ArtifactStore::with_capacity(8);
            let report = load_store(&fresh, &work, &RealIo);
            assert_eq!(report.recovery_events(), 0, "ENOSPC at op {trigger}");

            // Space is back: the failure left the store marked changed,
            // so the next implicit save retries and converges.
            let retry = save_store(&new_store, &work, &RealIo, true).expect("retry");
            assert_eq!(retry.files_written, 1, "op {trigger}");
            assert_eq!(snapshot_bytes(&work), new_bytes, "retry after op {trigger}");
        }
        for d in [&old_dir, &new_dir, &work] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn a_real_filesystem_fault_degrades_and_heals_persist_now() {
        // No injected I/O: the cache directory is moved aside and a
        // regular file takes its path, so the first step of the save
        // fails on the real filesystem.
        let dir = test_dir("file-in-place");
        let aside = test_dir("file-in-place-aside");
        let config = CacheDirConfig::at(&dir);
        persist_now(&config)
            .expect("persistence is configured")
            .expect("clean save");
        assert!(!store_read_through(), "clean save must not be read-through");
        std::fs::rename(&dir, &aside).expect("move the directory aside");
        std::fs::write(&dir, "not a directory\n").expect("a file at its path");

        // The save fails, is counted, and flips the store to
        // read-through — but never wedges.
        let failures_before = persist_failures();
        let err = persist_now(&config)
            .expect("persistence is configured")
            .expect_err("a file at the cache directory must fail the save");
        assert_eq!(err.step, "create-dir", "{err}");
        assert!(persist_failures() > failures_before, "failure is counted");
        assert!(store_read_through(), "failed save flips read-through");

        // The directory moved aside still holds a clean snapshot.
        let audit = audit_cache_dir(&aside);
        assert_eq!(audit.status, SnapshotStatus::Valid);
        assert!(audit.is_clean(), "unclean after the fault: {audit:?}");

        // Fault undone: the next save succeeds and clears the flag.
        std::fs::remove_file(&dir).expect("remove the file");
        std::fs::rename(&aside, &dir).expect("restore the directory");
        persist_now(&config)
            .expect("persistence is configured")
            .expect("save heals once the fault is undone");
        assert!(!store_read_through(), "healed save clears read-through");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Counts saves that found another save inside `write_tmp`. Each
    /// write holds itself open until a second save joins it or 100 ms
    /// pass, so unserialized saves meet there on every run.
    #[derive(Default)]
    struct OverlapIo {
        /// (saves inside `write_tmp`, overlaps seen)
        writing: Mutex<(usize, usize)>,
        joined: std::sync::Condvar,
    }

    impl PersistIo for OverlapIo {
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            RealIo.create_dir_all(dir)
        }

        fn write_tmp(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            {
                let mut writing = self.writing.lock().expect("no test thread panics");
                writing.0 += 1;
                if writing.0 > 1 {
                    writing.1 += 1;
                    self.joined.notify_all();
                }
                drop(
                    self.joined
                        .wait_timeout_while(writing, Duration::from_millis(100), |w| w.0 < 2)
                        .expect("no test thread panics"),
                );
            }
            let written = RealIo.write_tmp(path, bytes);
            self.writing.lock().expect("no test thread panics").0 -= 1;
            written
        }

        fn sync_tmp(&self, path: &Path) -> io::Result<()> {
            RealIo.sync_tmp(path)
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            RealIo.rename(from, to)
        }

        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            RealIo.sync_dir(dir)
        }

        fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
            RealIo.read(path)
        }
    }

    #[test]
    fn concurrent_saves_never_overlap_the_write_protocol() {
        // The serve persister and any number of wire `persist` ops may
        // save at once; they share one temp file, so the protocol must
        // run one save at a time, and every save must succeed.
        let store = seeded_store(8);
        let dir = test_dir("concurrent");
        let io = OverlapIo::default();
        let start = std::sync::Barrier::new(4);
        let results: Vec<_> = std::thread::scope(|s| {
            let saves: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        save_store(&store, &dir, &io, false)
                    })
                })
                .collect();
            saves
                .into_iter()
                .map(|save| save.join().expect("a save panicked"))
                .collect()
        });
        for result in results {
            result.expect("every concurrent save succeeds");
        }
        let overlaps = io.writing.lock().expect("no test thread panics").1;
        assert_eq!(overlaps, 0, "saves overlapped");
        assert!(audit_cache_dir(&dir).is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unchanged_store_writes_nothing() {
        let store = seeded_store_with(8, &[constant_task(2)]);
        let dir = test_dir("unchanged");
        // The insert marked the store changed: the implicit save writes.
        let io = FaultIo::counting();
        let saved = save_store(&store, &dir, &io, true).expect("save");
        assert_eq!(saved.files_written, 1);
        assert_eq!(io.op.get(), SAVE_OPS);

        // Since then only lookups: no I/O at all.
        store.verdict.lock().get(&(constant_task(2), 5));
        store.verdict.lock().get(&(identity_task(2), 5));
        let io = FaultIo::counting();
        let skipped = save_store(&store, &dir, &io, true).expect("skip");
        assert_eq!(skipped, SaveReport::default());
        assert_eq!(io.op.get(), 0);

        // A store restored from the directory is unchanged too, but an
        // explicit save writes regardless.
        let fresh = ArtifactStore::with_capacity(8);
        assert_eq!(load_store(&fresh, &dir, &RealIo).restored, 1);
        let io = FaultIo::counting();
        assert_eq!(
            save_store(&fresh, &dir, &io, true)
                .expect("skip")
                .files_written,
            0
        );
        assert_eq!(io.op.get(), 0);
        let io = FaultIo::counting();
        assert_eq!(
            save_store(&fresh, &dir, &io, false)
                .expect("save")
                .files_written,
            1
        );
        assert_eq!(io.op.get(), SAVE_OPS);

        // The flag refers to the directory last loaded or saved: an
        // unchanged store still writes to another one.
        let elsewhere = test_dir("unchanged-elsewhere");
        let saved = save_store(&fresh, &elsewhere, &RealIo, true).expect("save");
        assert_eq!(saved.files_written, 1);
        let io = FaultIo::counting();
        assert_eq!(
            save_store(&fresh, &elsewhere, &io, true)
                .expect("skip")
                .files_written,
            0
        );
        assert_eq!(io.op.get(), 0);
        let _ = std::fs::remove_dir_all(&elsewhere);

        // A store holding a record the snapshot lacks is changed after
        // loading it.
        let ahead = seeded_store_with(8, &[identity_task(2)]);
        let _ = ahead.verdict.lock().take_changed();
        load_store(&ahead, &dir, &RealIo);
        let saved = save_store(&ahead, &dir, &RealIo, true).expect("save");
        assert_eq!(saved.entries_written, 2);

        // A failed save leaves the flag set, so the next one retries.
        fresh.verdict.lock().insert((identity_task(3), 1), record());
        let full = FaultIo::new(1, IoFaultMode::Error(io::ErrorKind::StorageFull));
        save_store(&fresh, &dir, &full, true).expect_err("disk full");
        let retry = save_store(&fresh, &dir, &RealIo, true).expect("retry");
        assert_eq!(retry.entries_written, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_failure_rejects_that_snapshot_only() {
        let store = seeded_store_with(4, &[constant_task(2)]);
        let dir = test_dir("read-fail");
        save_store(&store, &dir, &RealIo, false).expect("save");

        // Op 0 is the read.
        let io = FaultIo::new(0, IoFaultMode::Error(io::ErrorKind::PermissionDenied));
        let fresh = seeded_store_with(4, &[identity_task(2)]);
        let _ = fresh.verdict.lock().take_changed();
        let report = load_store(&fresh, &dir, &io);
        assert_eq!(report.rejected_snapshots, 1);
        assert_eq!(report.restored, 0);
        assert_eq!(fresh.verdict.lock().stats().rejected_snapshots, 1);
        // The records already in memory stay, and the store is marked
        // changed so the next implicit save replaces the snapshot.
        assert_eq!(keys(&fresh), [(identity_task(2), 5)]);
        assert!(fresh.verdict.lock().take_changed());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- corruption classification ----------------------------------------

    #[test]
    fn flipped_payload_byte_is_corrupt_rest_restored() {
        let store = ArtifactStore::with_capacity(4);
        store.verdict.lock().insert((constant_task(2), 1), record());
        store.verdict.lock().insert((identity_task(2), 1), record());
        let dir = test_dir("flip");
        save_store(&store, &dir, &RealIo, false).expect("save");

        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip one payload byte of the last entry record: 'E', space,
        // 16 hex digits, space — the payload starts 19 bytes in.
        let last_e = bytes
            .windows(3)
            .rposition(|w| w == b"\nE ")
            .expect("an entry record");
        bytes[last_e + 20] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");

        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &RealIo);
        assert_eq!(report.corrupt_entries, 1);
        assert_eq!(report.restored, 1);
        assert_eq!(report.rejected_snapshots, 0);
        assert_eq!(report.torn_entries, 0);
        let stats = fresh.verdict.lock().stats();
        assert_eq!(stats.corrupt_entries, 1);
        assert_eq!(stats.restored, 1);
        assert_eq!(keys(&fresh), vec![(constant_task(2), 1)]);
        // The damaged record is rewritten away by the next implicit save.
        assert!(fresh.verdict.lock().take_changed());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_view_nested_bad_color_is_a_corrupt_entry_not_a_panic() {
        let store = ArtifactStore::with_capacity(4);
        store.verdict.lock().insert((constant_task(2), 1), record());
        let dir = test_dir("forged");
        save_store(&store, &dir, &RealIo, false).expect("save");

        // Rewrite the entry so its task nests a colour-99 vertex inside a
        // view, and re-checksum it: only the reader can catch this.
        let path = dir.join(SNAPSHOT_FILE);
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        let [magic, entry] = lines.as_slice() else {
            panic!("one entry expected: {text}");
        };
        let payload = &entry[19..];
        let forged = payload.replace(
            r#"{"color":0,"value":{"int":0}}"#,
            r#"{"color":0,"value":{"view":[{"color":99,"value":{"int":0}}]}}"#,
        );
        assert_ne!(forged, payload);
        let mut body = format!("{magic}\n");
        push_record(&mut body, 'E', &forged);
        std::fs::write(&path, body).expect("rewrite");

        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &RealIo);
        assert_eq!(report.corrupt_entries, 1);
        assert_eq!(report.restored, 0);
        assert_eq!(report.rejected_snapshots, 0);
        assert!(fresh.verdict.lock().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_rejects_the_whole_snapshot() {
        let store = seeded_store_with(4, &[constant_task(2)]);
        let dir = test_dir("magic");
        save_store(&store, &dir, &RealIo, false).expect("save");
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[0] ^= 0x20;
        std::fs::write(&path, &bytes).expect("rewrite");

        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &RealIo);
        assert_eq!(report.rejected_snapshots, 1);
        assert_eq!(report.restored, 0);
        assert!(fresh.verdict.lock().is_empty());
        assert_eq!(fresh.verdict.lock().stats().rejected_snapshots, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_version_snapshot_degrades_to_recompute() {
        // A v3-era directory: a v3 verdict snapshot, whose records lack
        // the split trace. It must be rejected wholesale, not
        // reinterpreted — the cost is a cold recompute, never a wrong
        // evidence chain.
        let store = seeded_store_with(4, &[constant_task(2)]);
        let dir = test_dir("old-version");
        save_store(&store, &dir, &RealIo, false).expect("save");
        let v4 = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).expect("read");
        let (magic, records) = v4.split_once('\n').expect("a magic line");
        assert_eq!(magic, MAGIC);
        let v3 = format!("chromata-snap v3 verdict\n{records}");
        std::fs::write(dir.join(SNAPSHOT_FILE), v3).expect("downgrade");

        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &RealIo);
        assert_eq!(report.rejected_snapshots, 1);
        assert_eq!(report.restored, 0);
        assert!(fresh.verdict.lock().is_empty());
        assert_eq!(audit_cache_dir(&dir).status, SnapshotStatus::Rejected);

        // The cold recompute is written back as v4 by the implicit save
        // and restores cleanly.
        fresh.verdict.lock().insert((constant_task(2), 5), record());
        let saved = save_store(&fresh, &dir, &RealIo, true).expect("re-save");
        assert_eq!(saved.files_written, 1);
        assert_eq!(
            std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).expect("read"),
            v4
        );
        let again = ArtifactStore::with_capacity(4);
        let report = load_store(&again, &dir, &RealIo);
        assert_eq!(report.recovery_events(), 0);
        assert_eq!(report.restored, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_kind_magic_is_rejected() {
        // The magic line binds the file to its kind: a snapshot naming
        // another kind must not load as verdict records.
        let store = seeded_store_with(4, &[constant_task(2)]);
        let dir = test_dir("cross-kind");
        save_store(&store, &dir, &RealIo, false).expect("save");
        let path = dir.join(SNAPSHOT_FILE);
        let text = std::fs::read_to_string(&path).expect("read");
        let other = text.replacen("chromata-snap v4 verdict", "chromata-snap v4 split", 1);
        assert_ne!(text, other);
        std::fs::write(&path, other).expect("rewrite");
        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &RealIo);
        assert_eq!(report.rejected_snapshots, 1);
        assert!(fresh.verdict.lock().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_dependent_explorations_never_cross_the_disk() {
        // Budget-induced answers are circumstantial: neither a
        // budget-truncated exploration nor an expired deadline may leave
        // a verdict record behind, in memory or on disk.
        let _store = store_test_guard();
        super::super::cache::clear_stage_caches();
        let task = loop_agreement("loop-klein-squared", klein_bottle_doubled_loop());
        let cancel = CancelToken::new();
        let analyze = |rounds: usize, budget: Budget| {
            crate::analyze_governed(
                &task,
                PipelineOptions {
                    act_fallback_rounds: rounds,
                },
                &budget,
                &cancel,
            )
        };
        // The ladder stops at 1 of the 2 configured rounds.
        let truncated = analyze(2, Budget::unlimited().with_max_act_rounds(1));
        assert_eq!(truncated.evidence.decided_by, "explore");
        assert!(matches!(truncated.verdict, Verdict::Unknown { .. }));
        let expired = analyze(3, Budget::unlimited().with_deadline_in(Duration::ZERO));
        assert_eq!(expired.evidence.decided_by, "budget");
        // Control: the exhausted exploration at its configured bound is
        // budget-independent, so its record persists.
        let exhausted = analyze(1, Budget::unlimited());
        assert_eq!(exhausted.evidence.decided_by, "explore");

        let dir = test_dir("budget");
        save_store(store(), &dir, &RealIo, false).expect("save");
        let fresh = ArtifactStore::with_capacity(64);
        load_store(&fresh, &dir, &RealIo);
        let persisted = keys(&fresh);
        let canonical = exhausted.canonical.clone();
        assert!(persisted.contains(&(canonical.clone(), 1)));
        assert!(!persisted.contains(&(canonical.clone(), 2)));
        assert!(!persisted.contains(&(canonical, 3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- audit + clear -----------------------------------------------------

    #[test]
    fn audit_classifies_valid_corrupt_and_missing() {
        let dir = test_dir("audit");
        let audit = audit_cache_dir(&dir);
        assert_eq!(audit.status, SnapshotStatus::Missing);
        assert!(audit.is_clean());

        let store = seeded_store_with(4, &[constant_task(2), identity_task(2)]);
        save_store(&store, &dir, &RealIo, false).expect("save");
        let audit = audit_cache_dir(&dir);
        assert_eq!(audit.status, SnapshotStatus::Valid);
        assert!(audit.is_clean());
        assert_eq!(audit.entries, 2);

        // Flip a payload byte: the audit must flag exactly that record.
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).expect("read");
        let last_e = bytes
            .windows(3)
            .rposition(|w| w == b"\nE ")
            .expect("an entry record");
        bytes[last_e + 20] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");
        let audit = audit_cache_dir(&dir);
        assert!(!audit.is_clean());
        assert_eq!((audit.entries, audit.corrupt_entries), (1, 1));
        assert!(!audit.issues.is_empty());

        // Clearing removes the snapshot and a stray temp file; the audit
        // then reads missing.
        std::fs::write(dir.join(TMP_FILE), "torn").expect("write");
        let removed = clear_cache_dir(&dir).expect("clear");
        assert_eq!(removed, 2);
        let audit = audit_cache_dir(&dir);
        assert_eq!(audit.status, SnapshotStatus::Missing);
        assert!(audit.is_clean());
        assert_eq!(std::fs::read_dir(&dir).expect("list").count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- configuration + loading -------------------------------------------

    #[test]
    fn cache_dir_config_resolution() {
        assert!(!CacheDirConfig::disabled().is_enabled());
        assert!(!CacheDirConfig::default().is_enabled());
        assert_eq!(CacheDirConfig::from(None), CacheDirConfig::disabled());
        let explicit = CacheDirConfig::from(Some(PathBuf::from("/tmp/explicit")));
        assert_eq!(explicit.dir(), Some(Path::new("/tmp/explicit")));
        assert_eq!(explicit, CacheDirConfig::at("/tmp/explicit"));
    }

    #[test]
    fn load_cache_dir_reads_an_empty_directory_every_time() {
        assert!(load_cache_dir(&CacheDirConfig::disabled()).is_none());
        let dir = test_dir("load-empty");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let config = CacheDirConfig::at(&dir);
        for _ in 0..2 {
            let report = load_cache_dir(&config).expect("persistence is enabled");
            assert!(report.missing, "empty directory: nothing to restore");
            assert_eq!(report.restored, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- parser hardening --------------------------------------------------

    #[test]
    fn parse_tagged_line_rejects_malformed_records() {
        assert!(parse_tagged_line(b"", b'E').is_err());
        assert!(parse_tagged_line(b"X 0000000000000000 []", b'E').is_err());
        assert!(parse_tagged_line(b"E 00", b'E').is_err());
        assert!(parse_tagged_line(b"E 000000000000000g []", b'E').is_err());
        assert!(parse_tagged_line(b"E 0000000000000000[]", b'E').is_err());
        let ok = parse_tagged_line(b"E 00000000000000ff []", b'E').expect("well-formed");
        assert_eq!(ok.0, 0xff);
        assert_eq!(ok.1, b"[]");
    }

    #[test]
    fn split_lines_classifies_torn_tails() {
        assert_eq!(split_lines(b""), (vec![], None));
        assert_eq!(split_lines(b"a\n"), (vec![b"a".as_slice()], None));
        assert_eq!(
            split_lines(b"a\nb"),
            (vec![b"a".as_slice()], Some(b"b".as_slice()))
        );
        assert_eq!(
            split_lines(b"a\nb\n"),
            (vec![b"a".as_slice(), b"b".as_slice()], None)
        );
    }
}
