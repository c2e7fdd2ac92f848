//! Crash-safe persistence for the [`ArtifactStore`]: durable stage-cache
//! snapshots with corruption-tolerant recovery.
//!
//! Each stage cache is snapshot to its own file under a cache directory
//! (`<dir>/<kind>.snap`), written with the classic durable protocol —
//! temp file, fsync, atomic rename, directory fsync — so a crash at any
//! instant leaves each kind's file equal to either the old snapshot or
//! the new one, never a mix. The format is line-oriented and
//! per-record-checksummed:
//!
//! ```text
//! chromata-snap v2 <kind>\n          (magic + version + kind)
//! H <fnv1a-16hex> [cap,h,m,e]\n      (capacity + cumulative counters)
//! E <fnv1a-16hex> [key,value]\n      (one cache entry, insertion order)
//! ```
//!
//! Version history: v1 keyed link-graph, presentation, and homology
//! entries on whole tasks; v2 keys them per split branch (`links` and
//! `presentations` on single-facet restriction tasks, `homology` on the
//! branch vector). A v1 snapshot therefore fails the magic check and is
//! rejected wholesale — the engine degrades to a cold recompute, which
//! is always sound, rather than attempting a cross-version key
//! migration that could alias artifacts. `reuse_hits` is process-local
//! telemetry and is deliberately absent from the `H` record.
//!
//! Loading is paranoid and graceful — persistence must never poison a
//! verdict. The recovery taxonomy (counted per cause in
//! [`DecisionCacheStats`]):
//!
//! * **rejected snapshot** — missing newline before the header, bad
//!   magic, unsupported version, unreadable header, or an I/O error:
//!   the whole file is discarded and the cache stays as it was;
//! * **torn entry** — a trailing record with no final newline (crash
//!   mid-append): the fragment is skipped, every complete record
//!   before it is kept;
//! * **corrupt entry** — a complete-looking record whose checksum,
//!   payload, or admissibility check fails (e.g. a forged
//!   budget-dependent exploration): the record is skipped.
//!
//! Budget-truncated explorations are excluded at save time (and
//! re-checked at load and audit time) by the one cacheability predicate
//! of the cached value, [`Cacheable::cacheable`]: a verdict that depends
//! on the configured budget must never be memoized across processes.
//!
//! Save, load and audit are each one loop over the store's kind list
//! (`ArtifactStore::kinds`), in its fixed file order; each cache is
//! reached through the type-erased `SnapshotCache` handle, the only
//! code generic over a cache's key and value types.
//!
//! Callers wrap analyses in [`load_cache_dir`] (the only loader; it
//! reads the directory on every call) and [`persist_now`].
//!
//! All filesystem traffic goes through the `PersistIo` seam so the
//! test suite can inject every `io::ErrorKind` at every operation and
//! kill the process model at every point of the write protocol (rule
//! D3 confines `std::fs` to this module).

use std::fmt;
use std::hash::Hash;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use chromata_topology::{fnv1a, govern};
use serde::{Deserialize, Serialize};

use super::cache::{
    store, ArtifactKind, ArtifactStore, Cacheable, DecisionCacheStats, SharedCache,
};

/// Magic prefix of every snapshot file (version-bearing): the first
/// line is this prefix followed by the artifact-kind name. Bumped to v2
/// with the per-branch re-keying of link-graph/presentation/homology
/// artifacts; v1 snapshots are rejected (degrading to recompute), never
/// reinterpreted under the new keys.
const MAGIC_PREFIX: &str = "chromata-snap v2 ";

/// Environment variable read (via [`govern::env_string`], rule D2) by
/// [`CacheDirConfig::from_env`].
pub const CACHE_DIR_ENV: &str = "CHROMATA_CACHE_DIR";

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
    /// Removes a file; missing files are not an error.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The real filesystem.
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

    fn remove(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Injectable I/O + persist health
// ---------------------------------------------------------------------------

/// Process-global [`PersistIo`] override consulted by the snapshot
/// entry points ([`persist_now`], [`load_cache_dir`]).
/// The chaos layer (`super::chaos`) installs a fault-injecting
/// implementation here; `None` means the real filesystem.
fn io_override() -> &'static RwLock<Option<Arc<dyn PersistIo + Send + Sync>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn PersistIo + Send + Sync>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Installs a process-wide [`PersistIo`] override for the snapshot
/// entry points (chaos injection); replaced by any later call.
pub(crate) fn set_persist_io(io: Arc<dyn PersistIo + Send + Sync>) {
    *io_override()
        .write()
        .unwrap_or_else(PoisonError::into_inner) = Some(io);
}

/// Removes the [`PersistIo`] override; snapshots hit the real
/// filesystem again.
pub(crate) fn clear_persist_io() {
    *io_override()
        .write()
        .unwrap_or_else(PoisonError::into_inner) = None;
}

/// The I/O implementation the entry points should use right now.
fn current_io() -> Arc<dyn PersistIo + Send + Sync> {
    io_override()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
        .unwrap_or_else(|| Arc::new(RealIo))
}

/// Failed [`persist_now`] snapshots since process start (ENOSPC,
/// permission loss, injected faults, …). A failure never wedges
/// serving: the old snapshot stays intact on disk and the store keeps
/// answering from memory (see [`store_read_through`]).
static PERSIST_FAILURES: AtomicU64 = AtomicU64::new(0);

/// Whether the store is currently *read-through*: the most recent
/// snapshot attempt failed, so the in-memory caches are ahead of disk.
/// Cleared by the next successful [`persist_now`].
static READ_THROUGH: AtomicBool = AtomicBool::new(false);

/// How many [`persist_now`] snapshots have failed in this process.
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
/// and the underlying message. Saving aborts on the first error (the
/// per-file atomic protocol keeps everything already on disk
/// consistent); loading never raises this — corruption degrades to
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

/// What a successful [`persist_now`] wrote.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SaveReport {
    /// Snapshot files written (one per artifact kind).
    pub files_written: usize,
    /// Cache entries persisted across all kinds.
    pub entries_written: u64,
    /// Entries excluded as budget-dependent (never memoized on disk).
    pub entries_skipped: u64,
}

/// What a [`load_cache_dir`] recovered, summed across
/// every artifact kind. The same per-cause counters also land in each
/// cache's [`DecisionCacheStats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LoadReport {
    /// Entries restored intact into the stage caches.
    pub restored: u64,
    /// Whole snapshot files discarded (bad magic/version/header/read).
    pub rejected_snapshots: u64,
    /// Truncated trailing records skipped (torn writes).
    pub torn_entries: u64,
    /// Complete-looking records skipped (checksum/payload/admissibility).
    pub corrupt_entries: u64,
    /// Kinds with no snapshot file at all (a fresh directory).
    pub missing: usize,
}

impl LoadReport {
    /// Sum of the per-cause recovery counters.
    #[must_use]
    pub fn recovery_events(&self) -> u64 {
        self.rejected_snapshots + self.torn_entries + self.corrupt_entries
    }
}

// ---------------------------------------------------------------------------
// Snapshot rendering
// ---------------------------------------------------------------------------

fn snapshot_path(dir: &Path, kind: ArtifactKind) -> PathBuf {
    dir.join(format!("{}.snap", kind.name()))
}

fn tmp_path(dir: &Path, kind: ArtifactKind) -> PathBuf {
    dir.join(format!("{}.snap.tmp", kind.name()))
}

/// Appends `<tag> <16-hex fnv1a(payload)> <payload>\n`.
fn push_record(out: &mut String, tag: char, payload: &str) {
    out.push(tag);
    out.push(' ');
    out.push_str(&format!("{:016x}", fnv1a(payload.as_bytes())));
    out.push(' ');
    out.push_str(payload);
    out.push('\n');
}

/// Renders a full snapshot body for one cache: magic, header, then every
/// cacheable entry in insertion (eviction) order; the others are counted
/// as skipped.
fn render_snapshot<K: Serialize, V: Cacheable>(
    kind: ArtifactKind,
    capacity: usize,
    stats: DecisionCacheStats,
    entries: &[(K, V)],
    report: &mut SaveReport,
) -> Result<String, String> {
    let mut out = String::new();
    out.push_str(MAGIC_PREFIX);
    out.push_str(kind.name());
    out.push('\n');
    let header = serde_json::to_string(&vec![
        capacity as u64,
        stats.hits,
        stats.misses,
        stats.evictions,
    ])
    .map_err(|e| format!("header: {e}"))?;
    push_record(&mut out, 'H', &header);
    for (k, v) in entries {
        if !v.cacheable() {
            report.entries_skipped += 1;
            continue;
        }
        let payload = serde_json::to_string(&(k, v)).map_err(|e| format!("entry: {e}"))?;
        push_record(&mut out, 'E', &payload);
        report.entries_written += 1;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Snapshot parsing
// ---------------------------------------------------------------------------

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

/// Verifies and decodes one tagged record's payload as JSON.
fn decode_record<T: Deserialize>(line: &[u8], tag: u8) -> Result<T, String> {
    let (stated, payload) = parse_tagged_line(line, tag)?;
    let actual = fnv1a(payload);
    if stated != actual {
        return Err(format!(
            "checksum mismatch (stated {stated:016x}, actual {actual:016x})"
        ));
    }
    let text = std::str::from_utf8(payload).map_err(|_| "non-UTF-8 payload".to_owned())?;
    serde_json::from_str(text).map_err(|e| format!("undecodable payload: {e}"))
}

/// Parses a whole snapshot body into its audit (header counters and
/// per-entry recovery counts) and its cacheable entries. `Err` rejects
/// the snapshot outright (nothing before a valid header is trustworthy);
/// after a valid header, every failure degrades to a per-entry recovery
/// counter.
fn parse_snapshot<K: Deserialize, V: Cacheable>(
    kind: ArtifactKind,
    bytes: &[u8],
) -> Result<(SnapshotAudit, Vec<(K, V)>), String> {
    let (lines, tail) = split_lines(bytes);
    let mut complete = lines.iter();
    let magic = format!("{MAGIC_PREFIX}{}", kind.name());
    match complete.next() {
        None if tail.is_some() => return Err("truncated before the magic line".to_owned()),
        None => return Err("empty snapshot".to_owned()),
        Some(first) if *first != magic.as_bytes() => {
            return Err(format!(
                "bad magic (expected '{magic}', found '{}')",
                String::from_utf8_lossy(first)
            ))
        }
        Some(_) => {}
    }
    let Some(header_line) = complete.next() else {
        return Err("truncated before the header".to_owned());
    };
    let header: Vec<u64> = decode_record(header_line, b'H').map_err(|e| format!("header: {e}"))?;
    let &[capacity, hits, misses, evictions] = header.as_slice() else {
        return Err("header must hold exactly [capacity, hits, misses, evictions]".to_owned());
    };
    let capacity =
        usize::try_from(capacity).map_err(|_| "capacity exceeds this platform".to_owned())?;

    let mut audit = SnapshotAudit {
        capacity,
        hits,
        misses,
        evictions,
        ..empty_audit(kind, SnapshotStatus::Valid)
    };
    let mut entries = Vec::new();
    for (index, line) in complete.enumerate() {
        match decode_record::<(K, V)>(line, b'E') {
            Ok((k, v)) if v.cacheable() => entries.push((k, v)),
            Ok(_) => {
                audit.corrupt_entries += 1;
                audit.issues.push(format!(
                    "entry {index}: inadmissible artifact (budget-dependent)"
                ));
            }
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

/// One stage cache behind the operations that do not depend on its key
/// and value types: the handle [`ArtifactStore::kinds`] lists for every
/// kind, so store-wide stats and clearing and snapshot save, load and
/// audit are each one loop.
pub(crate) trait SnapshotCache {
    /// The cache's counters.
    fn stats(&self) -> DecisionCacheStats;
    /// Drops every entry and resets the counters.
    fn clear(&self);
    /// Renders the cache's snapshot body (see [`render_snapshot`]). The
    /// lock is released before this returns, so no lock is held across
    /// the write protocol's I/O (rule L2).
    fn render(&self, kind: ArtifactKind, report: &mut SaveReport) -> Result<String, String>;
    /// Decodes a snapshot body with this cache's types, leaving the
    /// cache untouched.
    fn audit(&self, kind: ArtifactKind, bytes: &[u8]) -> Result<SnapshotAudit, String>;
    /// Merges a read snapshot into the cache: its capacity wins, its
    /// counters are added, and its entries are appended in snapshot
    /// order, which becomes the eviction order. An unreadable or rejected
    /// snapshot only counts a rejected snapshot (`None`).
    fn restore(&self, kind: ArtifactKind, read: io::Result<Vec<u8>>) -> Option<SnapshotAudit>;
}

impl<K, V> SnapshotCache for SharedCache<K, V>
where
    K: Clone + Eq + Hash + Serialize + Deserialize,
    V: Cacheable,
{
    fn stats(&self) -> DecisionCacheStats {
        self.lock().stats()
    }

    fn clear(&self) {
        self.lock().clear();
    }

    fn render(&self, kind: ArtifactKind, report: &mut SaveReport) -> Result<String, String> {
        let (capacity, stats, entries) = {
            let guard = self.lock();
            (guard.capacity(), guard.stats(), guard.entries_in_order())
        };
        render_snapshot(kind, capacity, stats, &entries, report)
    }

    fn audit(&self, kind: ArtifactKind, bytes: &[u8]) -> Result<SnapshotAudit, String> {
        parse_snapshot::<K, V>(kind, bytes).map(|(audit, _)| audit)
    }

    fn restore(&self, kind: ArtifactKind, read: io::Result<Vec<u8>>) -> Option<SnapshotAudit> {
        let parsed = read
            .ok()
            .and_then(|bytes| parse_snapshot::<K, V>(kind, &bytes).ok());
        let mut guard = self.lock();
        let Some((audit, entries)) = parsed else {
            guard.stats_mut().rejected_snapshots += 1;
            return None;
        };
        guard.set_capacity(audit.capacity);
        let stats = guard.stats_mut();
        // The snapshot header predates the `lookups` counter, so the
        // merged lookups are reconstructed from the invariant
        // `lookups == hits + misses` to keep coherence observable across
        // warm starts.
        stats.lookups += audit.hits + audit.misses;
        stats.hits += audit.hits;
        stats.misses += audit.misses;
        stats.evictions += audit.evictions;
        stats.torn_entries += audit.torn_entries;
        stats.corrupt_entries += audit.corrupt_entries;
        for (k, v) in entries {
            guard.restore_entry(k, v);
        }
        Some(audit)
    }
}

/// Snapshots every stage cache of `store` into `dir`, one file per kind
/// with the durable write protocol. Aborts on the first I/O failure —
/// files already renamed stay valid, files not yet rewritten keep their
/// previous valid contents.
pub(crate) fn save_store(
    store: &ArtifactStore,
    dir: &Path,
    io: &dyn PersistIo,
) -> Result<SaveReport, PersistError> {
    io.create_dir_all(dir)
        .map_err(|e| PersistError::new("create-dir", dir, e))?;
    let mut report = SaveReport::default();
    for (kind, cache) in store.kinds() {
        let target = snapshot_path(dir, kind);
        let body = cache
            .render(kind, &mut report)
            .map_err(|e| PersistError::new("encode", &target, e))?;
        let tmp = tmp_path(dir, kind);
        io.write_tmp(&tmp, body.as_bytes())
            .map_err(|e| PersistError::new("write-tmp", &tmp, e))?;
        io.sync_tmp(&tmp)
            .map_err(|e| PersistError::new("sync-tmp", &tmp, e))?;
        io.rename(&tmp, &target)
            .map_err(|e| PersistError::new("rename", &target, e))?;
        io.sync_dir(dir)
            .map_err(|e| PersistError::new("sync-dir", dir, e))?;
        report.files_written += 1;
    }
    Ok(report)
}

/// Restores every stage cache of `store` from the snapshots in `dir`.
/// Never fails: every corruption mode degrades to recovery counters, on
/// the report and on the cache concerned.
pub(crate) fn load_store(store: &ArtifactStore, dir: &Path, io: &dyn PersistIo) -> LoadReport {
    let mut report = LoadReport::default();
    for (kind, cache) in store.kinds() {
        let Some(read) = io.read(&snapshot_path(dir, kind)).transpose() else {
            report.missing += 1;
            continue;
        };
        match cache.restore(kind, read) {
            Some(audit) => {
                report.restored += audit.entries;
                report.torn_entries += audit.torn_entries;
                report.corrupt_entries += audit.corrupt_entries;
            }
            None => report.rejected_snapshots += 1,
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Public configuration + entry points
// ---------------------------------------------------------------------------

/// Where (and whether) to persist the stage caches. Disabled by
/// default; enabled by an explicit directory (`--cache-dir`) or the
/// `CHROMATA_CACHE_DIR` environment variable.
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

    /// Reads `CHROMATA_CACHE_DIR` (via `govern`, rule D2); unset or
    /// blank means disabled.
    #[must_use]
    pub fn from_env() -> Self {
        CacheDirConfig {
            dir: govern::env_string(CACHE_DIR_ENV).map(PathBuf::from),
        }
    }

    /// CLI-style resolution: an explicit directory wins over the
    /// environment variable; neither means disabled.
    #[must_use]
    pub fn resolve(explicit: Option<PathBuf>) -> Self {
        match explicit {
            Some(dir) => CacheDirConfig::at(dir),
            None => CacheDirConfig::from_env(),
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

/// Loads the configured cache directory into the process-wide store —
/// the only loader. Every call reads the directory afresh: a command
/// loads once before it analyzes, and a daemon boot is an explicit
/// restore point. `None` when persistence is disabled.
pub fn load_cache_dir(config: &CacheDirConfig) -> Option<LoadReport> {
    let dir = config.dir()?;
    Some(load_store(store(), dir, current_io().as_ref()))
}

/// Snapshots the process-wide store into the configured cache
/// directory. `None` when persistence is disabled.
///
/// A failed save is counted in [`persist_failures`] and flips the store
/// into read-through mode ([`store_read_through`]); the per-file atomic
/// protocol guarantees the previous snapshot is still intact on disk,
/// so serving continues unharmed and the next cadence retries.
pub fn persist_now(config: &CacheDirConfig) -> Option<Result<SaveReport, PersistError>> {
    let dir = config.dir()?;
    let result = save_store(store(), dir, current_io().as_ref());
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

/// Integrity status of one kind's snapshot file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotStatus {
    /// No snapshot file exists for this kind.
    Missing,
    /// The snapshot decoded (possibly with skipped entries — check the
    /// recovery counters).
    Valid,
    /// The whole snapshot was rejected (bad magic/version/header/read).
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

/// The offline integrity report for one kind's snapshot, produced by
/// [`audit_cache_dir`] without touching the process-wide store.
#[derive(Clone, Debug)]
pub struct SnapshotAudit {
    /// The artifact kind this snapshot caches.
    pub kind: ArtifactKind,
    /// Whole-file status.
    pub status: SnapshotStatus,
    /// Fully decoded, admissible entries.
    pub entries: u64,
    /// The capacity recorded in the header.
    pub capacity: usize,
    /// Cumulative hits recorded in the header.
    pub hits: u64,
    /// Cumulative misses recorded in the header.
    pub misses: u64,
    /// Cumulative evictions recorded in the header.
    pub evictions: u64,
    /// Torn trailing records detected.
    pub torn_entries: u64,
    /// Corrupt (checksum/payload/admissibility) records detected.
    pub corrupt_entries: u64,
    /// Human-readable descriptions of every problem found.
    pub issues: Vec<String>,
}

impl SnapshotAudit {
    /// Whether this snapshot is fully intact (missing counts as clean —
    /// a fresh directory is not corrupt).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.status != SnapshotStatus::Rejected
            && self.torn_entries == 0
            && self.corrupt_entries == 0
    }
}

fn empty_audit(kind: ArtifactKind, status: SnapshotStatus) -> SnapshotAudit {
    SnapshotAudit {
        kind,
        status,
        entries: 0,
        capacity: 0,
        hits: 0,
        misses: 0,
        evictions: 0,
        torn_entries: 0,
        corrupt_entries: 0,
        issues: Vec::new(),
    }
}

/// Audits every snapshot in `dir` offline — full typed decode, checksum
/// verification, cacheability checks — without loading anything into
/// the process-wide store (its kind list only supplies the types). One
/// report per artifact kind, in the fixed reporting order.
#[must_use]
pub fn audit_cache_dir(dir: &Path) -> Vec<SnapshotAudit> {
    store()
        .kinds()
        .into_iter()
        .map(|(kind, cache)| {
            let decoded = match RealIo.read(&snapshot_path(dir, kind)) {
                Ok(None) => return empty_audit(kind, SnapshotStatus::Missing),
                Ok(Some(bytes)) => cache.audit(kind, &bytes),
                Err(e) => Err(format!("unreadable: {e}")),
            };
            decoded.unwrap_or_else(|why| {
                let mut audit = empty_audit(kind, SnapshotStatus::Rejected);
                audit.issues.push(why);
                audit
            })
        })
        .collect()
}

/// Removes every snapshot (and stray temp file) in `dir`, returning how
/// many files were deleted. The directory itself is kept.
pub fn clear_cache_dir(dir: &Path) -> Result<usize, PersistError> {
    let io = RealIo;
    let mut removed = 0;
    for (kind, _) in store().kinds() {
        for path in [snapshot_path(dir, kind), tmp_path(dir, kind)] {
            match io.read(&path) {
                Ok(Some(_)) => {
                    io.remove(&path)
                        .map_err(|e| PersistError::new("remove", &path, e))?;
                    removed += 1;
                }
                Ok(None) => {}
                Err(e) => return Err(PersistError::new("remove", &path, e)),
            }
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use proptest::prelude::*;

    use chromata_task::library::{constant_task, hourglass, identity_task, two_set_agreement};

    use super::super::artifacts::{
        ExplorationReport, HomologyReport, LinkGraphs, Presentations, SubdividedComplex,
    };
    use super::super::{DecisionRecord, StageTrace};
    use super::*;
    use crate::continuous::continuous_map_exists_with;
    use crate::pipeline::Verdict;
    use crate::splitting::split_all;

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

    type Built = (
        Arc<SubdividedComplex>,
        Arc<LinkGraphs>,
        Arc<Presentations>,
        Arc<HomologyReport>,
    );

    /// Real pipeline artifacts for `task`, built the way the stages do.
    fn artifacts_for(task: &chromata_task::Task) -> Built {
        let split = Arc::new(SubdividedComplex {
            split: split_all(task),
        });
        let links = Arc::new(LinkGraphs::build(&split.split.task));
        let pres = Arc::new(Presentations::build(&split.split.task, &links));
        let (outcome, assignments) = continuous_map_exists_with(&links, &pres);
        let hom = Arc::new(HomologyReport {
            outcome,
            assignments,
        });
        (split, links, pres, hom)
    }

    fn exploration(budget_independent: bool) -> Arc<ExplorationReport> {
        Arc::new(ExplorationReport {
            verdict: Verdict::Unknown {
                reason: "exploration exhausted".to_owned(),
            },
            nodes: 17,
            rounds_cap: 3,
            budget_independent,
        })
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

    /// A private store seeded with real artifacts for `tasks`.
    fn seeded_store_with(capacity: usize, tasks: &[chromata_task::Task]) -> ArtifactStore {
        let store = ArtifactStore::with_capacity(capacity);
        for task in tasks {
            let (s, l, p, h) = artifacts_for(task);
            store.split.lock().insert(task.clone(), s);
            store.links.lock().insert(task.clone(), l);
            store.presentations.lock().insert(task.clone(), p);
            store.homology.lock().insert(vec![task.clone()], h);
            store
                .exploration
                .lock()
                .insert((task.clone(), 5), exploration(true));
            store.verdict.lock().insert((task.clone(), 5), record());
        }
        store
    }

    fn seeded_store(capacity: usize) -> ArtifactStore {
        seeded_store_with(capacity, &[two_set_agreement(), constant_task(2)])
    }

    /// The store's kinds, in snapshot-file order.
    fn all_kinds() -> Vec<ArtifactKind> {
        store().kinds().into_iter().map(|(kind, _)| kind).collect()
    }

    fn snapshot_bytes(dir: &Path) -> Vec<(ArtifactKind, Vec<u8>)> {
        all_kinds()
            .into_iter()
            .map(|kind| {
                (
                    kind,
                    std::fs::read(snapshot_path(dir, kind)).expect("snapshot exists"),
                )
            })
            .collect()
    }

    // -- round trips -------------------------------------------------------

    #[test]
    fn roundtrip_is_byte_identical_and_restores_capacity() {
        let store = seeded_store(8);
        let dir = test_dir("roundtrip");
        let report = save_store(&store, &dir, &RealIo).expect("save");
        assert_eq!(report.files_written, 6);
        assert_eq!(report.entries_written, 12);
        assert_eq!(report.entries_skipped, 0);

        // Load into a store with a *different* capacity: the snapshot's
        // capacity must win, and a re-save must be byte-identical.
        let fresh = ArtifactStore::with_capacity(99);
        let load = load_store(&fresh, &dir, &RealIo);
        assert_eq!(load.restored, 12);
        assert_eq!(load.recovery_events(), 0);
        assert_eq!(load.missing, 0);
        assert_eq!(fresh.verdict.lock().capacity(), 8);
        assert_eq!(fresh.split.lock().capacity(), 8);

        let dir2 = test_dir("roundtrip-resave");
        save_store(&fresh, &dir2, &RealIo).expect("re-save");
        assert_eq!(snapshot_bytes(&dir), snapshot_bytes(&dir2));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn snapshot_format_is_pinned_byte_for_byte() {
        // Cache directories outlive builds: a snapshot written by an
        // older build must restore under a newer one, so every byte of
        // the format is pinned (FNV-1a and length per file).
        let store = seeded_store_with(
            8,
            &[
                two_set_agreement(),
                constant_task(2),
                chromata_task::canonicalize(&hourglass()),
            ],
        );
        let dir = test_dir("pinned");
        save_store(&store, &dir, &RealIo).expect("save");
        let pins: Vec<(ArtifactKind, String, usize)> = snapshot_bytes(&dir)
            .into_iter()
            .map(|(kind, bytes)| (kind, format!("{:016x}", fnv1a(&bytes)), bytes.len()))
            .collect();
        let expected = [
            (ArtifactKind::Split, "400be596bdaeb40f", 18_661),
            (ArtifactKind::LinkGraphs, "fc1ac3f1e54e1fe9", 13_897),
            (ArtifactKind::Presentations, "df3ac13957914aa1", 25_053),
            (ArtifactKind::Homology, "d076d529e3bb7b67", 9_547),
            (ArtifactKind::Exploration, "59755bb8010fbe12", 9_318),
            (ArtifactKind::Verdict, "1d6e450a82ecd60b", 9_414),
        ]
        .map(|(kind, hash, len)| (kind, hash.to_owned(), len));
        assert_eq!(pins, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_merge_additively_and_restored_is_counted() {
        let store = seeded_store(8);
        // Bump some counters: 2 hits, 1 miss on the verdict cache.
        let probe = two_set_agreement();
        store.verdict.lock().get(&(probe.clone(), 5));
        store.verdict.lock().get(&(probe.clone(), 5));
        store.verdict.lock().get(&(probe, 999));
        let dir = test_dir("stats");
        save_store(&store, &dir, &RealIo).expect("save");

        let fresh = ArtifactStore::with_capacity(4);
        // Pre-existing counters must survive the merge.
        fresh.verdict.lock().stats_mut().hits = 10;
        load_store(&fresh, &dir, &RealIo);
        let stats = fresh.verdict.lock().stats();
        assert_eq!(stats.hits, 12);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.restored, 2);
        assert_eq!(stats.recovery_events(), 0);
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
        save_store(&store, &dir, &RealIo).expect("save");

        let fresh = ArtifactStore::with_capacity(4);
        load_store(&fresh, &dir, &RealIo);
        {
            let guard = fresh.verdict.lock();
            let keys: Vec<_> = guard
                .entries_in_order()
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            let expected: Vec<_> = tasks.iter().map(|t| (t.clone(), 1usize)).collect();
            assert_eq!(keys, expected, "snapshot order must be insertion order");
        }
        // One more insert evicts the *oldest restored* entry.
        fresh.verdict.lock().insert((identity_task(3), 1), record());
        let guard = fresh.verdict.lock();
        assert_eq!(guard.len(), 4);
        let keys: Vec<_> = guard
            .entries_in_order()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert!(!keys.contains(&(two_set_agreement(), 1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serialization_is_independent_of_construction_order() {
        // Build the same artifacts in opposite orders: the serialized
        // form must not depend on global interning history.
        let a1 = artifacts_for(&two_set_agreement());
        let b1 = artifacts_for(&constant_task(2));
        let b2 = artifacts_for(&constant_task(2));
        let a2 = artifacts_for(&two_set_agreement());
        for (x, y) in [(&a1, &a2), (&b1, &b2)] {
            assert_eq!(
                serde_json::to_string(&x.0).expect("ser"),
                serde_json::to_string(&y.0).expect("ser")
            );
            assert_eq!(
                serde_json::to_string(&x.1).expect("ser"),
                serde_json::to_string(&y.1).expect("ser")
            );
            assert_eq!(
                serde_json::to_string(&x.2).expect("ser"),
                serde_json::to_string(&y.2).expect("ser")
            );
            assert_eq!(
                serde_json::to_string(&x.3).expect("ser"),
                serde_json::to_string(&y.3).expect("ser")
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Snapshot → reload preserves entries, order and capacity for
        /// any insertion sequence, under any pre-existing capacity.
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
            save_store(&store, &dir, &RealIo).expect("save");
            let fresh = ArtifactStore::with_capacity(reload_capacity);
            let report = load_store(&fresh, &dir, &RealIo);
            prop_assert_eq!(report.recovery_events(), 0);

            let original = store.verdict.lock().entries_in_order();
            let restored = fresh.verdict.lock().entries_in_order();
            prop_assert_eq!(report.restored as usize, original.len());
            prop_assert_eq!(fresh.verdict.lock().capacity(), capacity);
            prop_assert_eq!(original.len(), restored.len());
            for ((k1, v1), (k2, v2)) in original.iter().zip(restored.iter()) {
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
        save_store(&store, &dir, &RealIo).expect("save");
        let full = std::fs::read(snapshot_path(&dir, ArtifactKind::Verdict)).expect("read");
        let _ = std::fs::remove_dir_all(&dir);

        let work = test_dir("torn");
        std::fs::create_dir_all(&work).expect("mkdir");
        let target = snapshot_path(&work, ArtifactKind::Verdict);
        for cut in 0..=full.len() {
            let prefix = &full[..cut];
            std::fs::write(&target, prefix).expect("write truncated");
            let fresh = ArtifactStore::with_capacity(4);
            let report = load_store(&fresh, &work, &RealIo);
            assert_eq!(report.missing, 5, "only verdict.snap exists (cut {cut})");

            let newlines = prefix.iter().filter(|&&b| b == b'\n').count();
            let torn_tail = !prefix.is_empty() && *prefix.last().expect("nonempty") != b'\n';
            if newlines < 2 {
                // Magic or header incomplete: the whole snapshot goes.
                assert_eq!(report.rejected_snapshots, 1, "cut {cut}");
                assert_eq!(report.restored, 0, "cut {cut}");
                assert_eq!(report.torn_entries, 0, "cut {cut}");
            } else {
                let complete_entries = (newlines - 2) as u64;
                assert_eq!(report.rejected_snapshots, 0, "cut {cut}");
                assert_eq!(report.restored, complete_entries, "cut {cut}");
                assert_eq!(report.torn_entries, u64::from(torn_tail), "cut {cut}");
                assert_eq!(report.corrupt_entries, 0, "cut {cut}");
                assert_eq!(fresh.verdict.lock().capacity(), 4, "cut {cut}");
                // Restored entries must be checksum-valid originals.
                for (k, _) in fresh.verdict.lock().entries_in_order() {
                    assert!(k == (constant_task(2), 1) || k == (identity_task(2), 1));
                }
            }
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

        fn remove(&self, path: &Path) -> io::Result<()> {
            if self.gate()? {
                return Err(self.fault());
            }
            self.inner.remove(path)
        }
    }

    /// Operations a full save performs: 1 create-dir + 4 per kind.
    const SAVE_OPS: u64 = 1 + 4 * 6;

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
        save_store(&old_store, &old_dir, &RealIo).expect("baseline old");
        save_store(&new_store, &new_dir, &RealIo).expect("baseline new");
        let old_bytes = snapshot_bytes(&old_dir);
        let new_bytes = snapshot_bytes(&new_dir);

        let work = test_dir("fault-work");
        for mode in modes {
            for trigger in 0..SAVE_OPS {
                // Reset to the old, fully valid on-disk state.
                let _ = std::fs::remove_dir_all(&work);
                save_store(&old_store, &work, &RealIo).expect("reset");

                let io = FaultIo::new(trigger, mode);
                let result = save_store(&new_store, &work, &io);
                assert!(result.is_err(), "op {trigger} under {mode:?} must fail");

                // Crash-consistency: every kind's file is wholly the old
                // or wholly the new snapshot — never a mix, never torn.
                for (i, &(kind, ref old)) in old_bytes.iter().enumerate() {
                    let on_disk =
                        std::fs::read(snapshot_path(&work, kind)).expect("snapshot survives");
                    let (_, ref new) = new_bytes[i];
                    assert!(
                        &on_disk == old || &on_disk == new,
                        "{kind} is a hybrid after faulting op {trigger} ({mode:?})"
                    );
                }
                // And a paranoid load sees zero corruption.
                let fresh = ArtifactStore::with_capacity(8);
                let report = load_store(&fresh, &work, &RealIo);
                assert_eq!(
                    report.recovery_events(),
                    0,
                    "recovery needed after op {trigger} ({mode:?})"
                );

                // A healthy retry converges to the new state exactly.
                save_store(&new_store, &work, &RealIo).expect("retry");
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
        // new per file, never torn), a paranoid load must be clean, and
        // the next cadence with space back must converge exactly.
        let old_store = seeded_store_with(8, &[two_set_agreement()]);
        let new_store = seeded_store_with(8, &[two_set_agreement(), identity_task(2)]);
        let old_dir = test_dir("enospc-old");
        let new_dir = test_dir("enospc-new");
        save_store(&old_store, &old_dir, &RealIo).expect("baseline old");
        save_store(&new_store, &new_dir, &RealIo).expect("baseline new");
        let old_bytes = snapshot_bytes(&old_dir);
        let new_bytes = snapshot_bytes(&new_dir);

        let work = test_dir("enospc-work");
        for trigger in 0..SAVE_OPS {
            let _ = std::fs::remove_dir_all(&work);
            save_store(&old_store, &work, &RealIo).expect("reset");

            let io = FaultIo::new(trigger, IoFaultMode::Error(io::ErrorKind::StorageFull));
            save_store(&new_store, &work, &io).expect_err("disk full must fail the save");

            for (i, &(kind, ref old)) in old_bytes.iter().enumerate() {
                let on_disk = std::fs::read(snapshot_path(&work, kind)).expect("snapshot survives");
                let (_, ref new) = new_bytes[i];
                assert!(
                    &on_disk == old || &on_disk == new,
                    "{kind} torn after ENOSPC at op {trigger}"
                );
            }
            let fresh = ArtifactStore::with_capacity(8);
            let report = load_store(&fresh, &work, &RealIo);
            assert_eq!(report.recovery_events(), 0, "ENOSPC at op {trigger}");

            // Space is back: the next cadence succeeds and converges.
            save_store(&new_store, &work, &RealIo).expect("retry once space is back");
            assert_eq!(snapshot_bytes(&work), new_bytes, "retry after op {trigger}");
        }
        for d in [&old_dir, &new_dir, &work] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn enospc_through_the_chaos_seam_degrades_and_heals_persist_now() {
        use super::super::chaos::{PersistChaos, PersistFault};

        let dir = test_dir("enospc-seam");
        let config = CacheDirConfig::resolve(Some(dir.clone()));

        // Baseline cadence with the seam installed but disarmed.
        let chaos = PersistChaos::install();
        persist_now(&config)
            .expect("persistence is configured")
            .expect("clean save");
        let failures_before = persist_failures();
        assert!(!store_read_through(), "clean save must not be read-through");

        // Disk full mid-snapshot: the cadence fails, is counted, and
        // flips the store to read-through — but never wedges.
        chaos.arm(PersistFault::Enospc);
        persist_now(&config)
            .expect("persistence is configured")
            .expect_err("armed ENOSPC must fail the save");
        assert_eq!(chaos.fired(), 1, "the armed fault fired");
        assert!(persist_failures() > failures_before, "failure is counted");
        assert!(store_read_through(), "failed save flips read-through");

        // The on-disk state is still a clean, loadable snapshot.
        PersistChaos::uninstall();
        for audit in audit_cache_dir(&dir) {
            assert!(audit.is_clean(), "unclean after ENOSPC: {audit:?}");
        }

        // Fault cleared: the next cadence succeeds and clears the flag.
        persist_now(&config)
            .expect("persistence is configured")
            .expect("save heals once the fault clears");
        assert!(!store_read_through(), "healed save clears read-through");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_failure_rejects_that_snapshot_only() {
        let store = seeded_store_with(4, &[constant_task(2)]);
        let dir = test_dir("read-fail");
        save_store(&store, &dir, &RealIo).expect("save");

        // Op 0 is the first read (the split snapshot).
        let io = FaultIo::new(0, IoFaultMode::Error(io::ErrorKind::PermissionDenied));
        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &io);
        assert_eq!(report.rejected_snapshots, 1);
        assert_eq!(fresh.split.lock().stats().rejected_snapshots, 1);
        assert!(fresh.split.lock().is_empty());
        // The other five kinds load normally.
        assert_eq!(report.restored, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- corruption classification ----------------------------------------

    #[test]
    fn flipped_payload_byte_is_corrupt_rest_restored() {
        let store = ArtifactStore::with_capacity(4);
        store.verdict.lock().insert((constant_task(2), 1), record());
        store.verdict.lock().insert((identity_task(2), 1), record());
        let dir = test_dir("flip");
        save_store(&store, &dir, &RealIo).expect("save");

        let path = snapshot_path(&dir, ArtifactKind::Verdict);
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
        let keys: Vec<_> = fresh
            .verdict
            .lock()
            .entries_in_order()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![(constant_task(2), 1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_view_nested_bad_color_is_a_corrupt_entry_not_a_panic() {
        let store = ArtifactStore::with_capacity(4);
        store.verdict.lock().insert((constant_task(2), 1), record());
        let dir = test_dir("forged");
        save_store(&store, &dir, &RealIo).expect("save");

        // Rewrite the entry so its task nests a colour-99 vertex inside a
        // view, and re-checksum it: only the reader can catch this.
        let path = snapshot_path(&dir, ArtifactKind::Verdict);
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        let [magic, header, entry] = lines.as_slice() else {
            panic!("one entry expected: {text}");
        };
        let payload = &entry[19..];
        let forged = payload.replace(
            r#"{"color":0,"value":{"int":0}}"#,
            r#"{"color":0,"value":{"view":[{"color":99,"value":{"int":0}}]}}"#,
        );
        assert_ne!(forged, payload);
        let mut body = format!("{magic}\n{header}\n");
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
        save_store(&store, &dir, &RealIo).expect("save");
        let path = snapshot_path(&dir, ArtifactKind::Homology);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[0] ^= 0x20;
        std::fs::write(&path, &bytes).expect("rewrite");

        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &RealIo);
        assert_eq!(report.rejected_snapshots, 1);
        assert!(fresh.homology.lock().is_empty());
        assert_eq!(fresh.homology.lock().stats().rejected_snapshots, 1);
        assert_eq!(report.restored, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_version_snapshot_degrades_to_recompute() {
        // A pre-re-keying (v1) snapshot must be rejected wholesale, not
        // reinterpreted under the per-branch keys: the cost is a cold
        // recompute, never a wrong verdict from an aliased artifact.
        let store = seeded_store_with(4, &[constant_task(2)]);
        let dir = test_dir("old-version");
        save_store(&store, &dir, &RealIo).expect("save");
        for kind in all_kinds() {
            let path = snapshot_path(&dir, kind);
            let text = std::fs::read_to_string(&path).expect("read");
            let downgraded = text.replacen("chromata-snap v2 ", "chromata-snap v1 ", 1);
            assert_ne!(text, downgraded, "version token must be present");
            std::fs::write(&path, downgraded).expect("rewrite");
        }

        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &RealIo);
        assert_eq!(report.rejected_snapshots, all_kinds().len() as u64);
        assert_eq!(report.restored, 0);
        assert!(fresh.split.lock().is_empty());
        assert!(fresh.links.lock().is_empty());
        assert!(fresh.presentations.lock().is_empty());
        assert!(fresh.homology.lock().is_empty());
        assert!(fresh.exploration.lock().is_empty());
        assert!(fresh.verdict.lock().is_empty());
        // The degraded store re-saves as v2 and round-trips cleanly.
        save_store(&store, &dir, &RealIo).expect("re-save");
        let again = ArtifactStore::with_capacity(4);
        let report = load_store(&again, &dir, &RealIo);
        assert_eq!(report.rejected_snapshots, 0);
        assert_eq!(report.restored, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_kind_magic_is_rejected() {
        // A verdict snapshot copied over the split snapshot must not
        // load: the magic line binds the file to its kind.
        let store = seeded_store_with(4, &[constant_task(2)]);
        let dir = test_dir("cross-kind");
        save_store(&store, &dir, &RealIo).expect("save");
        std::fs::copy(
            snapshot_path(&dir, ArtifactKind::Verdict),
            snapshot_path(&dir, ArtifactKind::Split),
        )
        .expect("copy");
        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &RealIo);
        assert_eq!(report.rejected_snapshots, 1);
        assert!(fresh.split.lock().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_dependent_explorations_never_cross_the_disk() {
        // Save side: filtered out and counted.
        let store = ArtifactStore::with_capacity(4);
        store
            .exploration
            .lock()
            .insert((constant_task(2), 9), exploration(false));
        store
            .exploration
            .lock()
            .insert((constant_task(2), 5), exploration(true));
        let dir = test_dir("budget-save");
        let report = save_store(&store, &dir, &RealIo).expect("save");
        assert_eq!(report.entries_skipped, 1);
        assert_eq!(report.entries_written, 1);

        // Load and audit side: a forged snapshot carrying a
        // budget-dependent report (checksummed like a real record) is
        // classified corrupt, not restored.
        let forged_dir = test_dir("budget-forge");
        std::fs::create_dir_all(&forged_dir).expect("mkdir");
        let mut body =
            std::fs::read_to_string(snapshot_path(&dir, ArtifactKind::Exploration)).expect("read");
        let forged = serde_json::to_string(&((constant_task(2), 9usize), exploration(false)))
            .expect("serialize");
        push_record(&mut body, 'E', &forged);
        std::fs::write(snapshot_path(&forged_dir, ArtifactKind::Exploration), body).expect("write");
        let audit = audit_cache_dir(&forged_dir)
            .into_iter()
            .find(|a| a.kind == ArtifactKind::Exploration)
            .expect("an exploration audit");
        assert_eq!((audit.entries, audit.corrupt_entries), (1, 1));
        assert!(audit.issues[0].contains("inadmissible artifact (budget-dependent)"));
        let fresh = ArtifactStore::with_capacity(4);
        let load = load_store(&fresh, &forged_dir, &RealIo);
        assert_eq!(load.corrupt_entries, 1);
        assert_eq!(load.restored, 1);
        let keys: Vec<_> = fresh
            .exploration
            .lock()
            .entries_in_order()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![(constant_task(2), 5)]);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&forged_dir);
    }

    // -- audit + clear -----------------------------------------------------

    #[test]
    fn audit_classifies_valid_corrupt_and_missing() {
        let store = seeded_store_with(4, &[constant_task(2)]);
        let dir = test_dir("audit");
        save_store(&store, &dir, &RealIo).expect("save");

        let audits = audit_cache_dir(&dir);
        assert_eq!(audits.len(), 6);
        for audit in &audits {
            assert_eq!(audit.status, SnapshotStatus::Valid, "{}", audit.kind);
            assert!(audit.is_clean(), "{}", audit.kind);
            assert_eq!(audit.entries, 1, "{}", audit.kind);
            assert_eq!(audit.capacity, 4, "{}", audit.kind);
        }

        // Flip a payload byte: the audit must flag exactly that kind.
        let path = snapshot_path(&dir, ArtifactKind::Presentations);
        let mut bytes = std::fs::read(&path).expect("read");
        let last_e = bytes
            .windows(3)
            .rposition(|w| w == b"\nE ")
            .expect("an entry record");
        bytes[last_e + 20] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");
        let audits = audit_cache_dir(&dir);
        let flagged: Vec<_> = audits.iter().filter(|a| !a.is_clean()).collect();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].kind, ArtifactKind::Presentations);
        assert_eq!(flagged[0].corrupt_entries, 1);
        assert!(!flagged[0].issues.is_empty());

        // Clearing removes every snapshot; the audit then reads missing.
        let removed = clear_cache_dir(&dir).expect("clear");
        assert_eq!(removed, 6);
        for audit in audit_cache_dir(&dir) {
            assert_eq!(audit.status, SnapshotStatus::Missing);
            assert!(audit.is_clean());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- configuration + loading -------------------------------------------

    #[test]
    fn cache_dir_config_resolution() {
        assert!(!CacheDirConfig::disabled().is_enabled());
        assert!(!CacheDirConfig::default().is_enabled());
        let explicit = CacheDirConfig::resolve(Some(PathBuf::from("/tmp/explicit")));
        assert_eq!(explicit.dir(), Some(Path::new("/tmp/explicit")));

        std::env::set_var(CACHE_DIR_ENV, "/tmp/from-env");
        assert_eq!(
            CacheDirConfig::from_env().dir(),
            Some(Path::new("/tmp/from-env"))
        );
        // Explicit still wins over the environment.
        let winner = CacheDirConfig::resolve(Some(PathBuf::from("/tmp/explicit")));
        assert_eq!(winner.dir(), Some(Path::new("/tmp/explicit")));
        let fallback = CacheDirConfig::resolve(None);
        assert_eq!(fallback.dir(), Some(Path::new("/tmp/from-env")));
        std::env::remove_var(CACHE_DIR_ENV);
        assert!(!CacheDirConfig::from_env().is_enabled());
    }

    #[test]
    fn load_cache_dir_reads_an_empty_directory_every_time() {
        assert!(load_cache_dir(&CacheDirConfig::disabled()).is_none());
        let dir = test_dir("load-empty");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let config = CacheDirConfig::at(&dir);
        for _ in 0..2 {
            let report = load_cache_dir(&config).expect("persistence is enabled");
            assert_eq!(report.missing, 6, "empty directory: nothing to restore");
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
