//! Seeded fault-injection for end-to-end chaos campaigns.
//!
//! The paper's subject is correctness under adversarial executions, and
//! the fault-model framing of Gafni–Kuznetsov–Manolescu treats a fault
//! model as a *set of runs*: the serving stack's standing invariants
//! (never a wrong verdict, digest parity with a clean run, bounded
//! recovery) must hold not just under the hand-picked single faults the
//! unit suites inject, but under randomized *composed* schedules of
//! them. This module supplies the injectable machinery; the campaign
//! driver lives in the CLI (`chromata chaos`).
//!
//! Three seams are armed here, mirroring the production seams exactly:
//!
//! * **[`PersistChaos`]** — implements the persist layer's I/O seam and
//!   installs itself process-wide, so a scheduled ENOSPC, short write,
//!   or kill-point hits the *real* [`persist_now`](super::persist::persist_now)
//!   path the daemon's cadence thread calls;
//! * **[`ChaosShardIo`]** — wraps any [`ShardIo`] and injects
//!   partitions, stalls, mid-response kills, and corrupt-but-valid-
//!   checksum artifacts (the latter exercising the engine's semantic
//!   re-validation, `invalid_artifact`);
//! * **[`InProcessShards`]** — a loopback [`ShardIo`] executing stage
//!   jobs in-process (the worker code path without sockets), so a
//!   campaign can run a multi-shard pool inside one process.
//!
//! Schedules are produced by [`FaultSchedule`]: seeded by the
//! workspace's one xorshift64* generator (`chromata_topology::xorshift`,
//! which also drives the task mutator and the remote engine's backoff
//! jitter), a pure function of `(seed, round)` so any campaign replays
//! exactly from its seed.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use chromata_topology::{fnv1a, xorshift};
use serde_json::Value;

use super::persist::{self, PersistIo, RealIo};
use super::remote::{ShardIo, ShardIoError, ShardStep};

/// Poison-recovering lock: chaos bookkeeping is all counters and maps,
/// so a panicking holder cannot leave them torn.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Fault vocabulary
// ---------------------------------------------------------------------------

/// The four fault families a campaign can enable (`--faults`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum FaultKind {
    /// Snapshot I/O faults through the persist seam.
    Persist,
    /// Shard-exchange faults through the [`ShardIo`] seam.
    Shard,
    /// Admission-layer abuse over real connections (floods, slow-loris,
    /// malformed bursts) — armed by the CLI driver, not this module.
    Net,
    /// Graceful-shutdown signal followed by a warm restart.
    Signal,
}

/// Every fault family, in canonical order.
pub const ALL_FAULT_KINDS: [FaultKind; 4] = [
    FaultKind::Persist,
    FaultKind::Shard,
    FaultKind::Net,
    FaultKind::Signal,
];

impl FaultKind {
    /// Stable lower-case label (the `--faults` vocabulary).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Persist => "persist",
            FaultKind::Shard => "shard",
            FaultKind::Net => "net",
            FaultKind::Signal => "signal",
        }
    }
}

/// Parses a `--faults persist,shard,net,signal` list (deduplicated,
/// canonical order).
///
/// # Errors
///
/// Returns a message naming the unknown fault kind.
pub fn parse_fault_kinds(spec: &str) -> Result<Vec<FaultKind>, String> {
    let mut kinds = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let kind = ALL_FAULT_KINDS
            .iter()
            .find(|k| k.label() == part)
            .copied()
            .ok_or_else(|| {
                format!("unknown fault kind `{part}` (expected persist, shard, net, signal)")
            })?;
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    if kinds.is_empty() {
        return Err("no fault kinds enabled".to_owned());
    }
    kinds.sort();
    Ok(kinds)
}

/// A snapshot-I/O fault, applied to the next temp-file write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PersistFault {
    /// The write fails outright with an ENOSPC-style error; nothing of
    /// the new snapshot reaches the final path.
    Enospc,
    /// A prefix is written, then the write errors (torn temp file).
    ShortWrite,
    /// Half the bytes land and the save aborts, modeling a process
    /// kill mid-snapshot.
    KillPoint,
}

impl PersistFault {
    /// Stable label for campaign reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PersistFault::Enospc => "persist/enospc",
            PersistFault::ShortWrite => "persist/short-write",
            PersistFault::KillPoint => "persist/kill-point",
        }
    }
}

/// A shard-exchange fault, applied to the next exchange with the armed
/// shard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShardFault {
    /// The shard is unreachable (connection refused).
    Partition,
    /// The shard stalls past the caller's patience, then times out.
    Stall,
    /// The shard answers, but the connection dies mid-response.
    MidResponseKill,
    /// The shard returns a tampered artifact with a *recomputed, valid
    /// checksum* — only semantic re-validation can reject it.
    CorruptArtifact,
}

impl ShardFault {
    /// Stable label for campaign reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ShardFault::Partition => "shard/partition",
            ShardFault::Stall => "shard/stall",
            ShardFault::MidResponseKill => "shard/mid-response-kill",
            ShardFault::CorruptArtifact => "shard/corrupt-artifact",
        }
    }
}

/// An admission-layer abuse pattern, driven over real connections by
/// the CLI campaign driver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetFault {
    /// A burst of concurrent connections racing the real request.
    Flood,
    /// A connection that trickles a partial line and holds the socket.
    SlowLoris,
    /// A burst of malformed request lines.
    MalformedBurst,
}

impl NetFault {
    /// Stable label for campaign reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NetFault::Flood => "net/flood",
            NetFault::SlowLoris => "net/slow-loris",
            NetFault::MalformedBurst => "net/malformed-burst",
        }
    }
}

/// One fault the schedule plans for a round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlannedFault {
    /// Arm the persist seam.
    Persist(PersistFault),
    /// Arm one shard of the pool.
    Shard {
        /// Pool index to arm.
        shard: usize,
        /// The fault to inject there.
        fault: ShardFault,
    },
    /// Abuse the admission layer.
    Net(NetFault),
    /// SIGTERM-equivalent graceful shutdown plus warm restart.
    Signal,
}

impl PlannedFault {
    /// The family this fault belongs to.
    #[must_use]
    pub fn kind(&self) -> FaultKind {
        match self {
            PlannedFault::Persist(_) => FaultKind::Persist,
            PlannedFault::Shard { .. } => FaultKind::Shard,
            PlannedFault::Net(_) => FaultKind::Net,
            PlannedFault::Signal => FaultKind::Signal,
        }
    }

    /// Stable label for campaign reports, e.g. `shard/stall@2`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PlannedFault::Persist(f) => f.label().to_owned(),
            PlannedFault::Shard { shard, fault } => format!("{}@{shard}", fault.label()),
            PlannedFault::Net(f) => f.label().to_owned(),
            PlannedFault::Signal => "signal/graceful-restart".to_owned(),
        }
    }
}

/// A seeded, replayable fault schedule: [`plan`](Self::plan) is a pure
/// function of `(seed, round)`, so re-running a campaign with the same
/// seed fires byte-identical fault sequences.
#[derive(Clone, Debug)]
pub struct FaultSchedule {
    seed: u64,
    kinds: Vec<FaultKind>,
}

impl FaultSchedule {
    /// A schedule over the enabled fault families.
    #[must_use]
    pub fn new(seed: u64, kinds: &[FaultKind]) -> Self {
        FaultSchedule {
            seed,
            kinds: kinds.to_vec(),
        }
    }

    /// The faults to fire in `round`, against a pool of `pool` shards.
    /// Every round carries one primary fault; every other round (by
    /// draw) composes a second, non-signal fault on top, so restarts
    /// stay bounded at one per round while seams still overlap.
    #[must_use]
    pub fn plan(&self, round: u64, pool: usize) -> Vec<PlannedFault> {
        if self.kinds.is_empty() {
            return Vec::new();
        }
        // Splitmix-style per-round state so rounds are independent.
        let mut state = self
            .seed
            .wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut planned = Vec::new();
        let primary = self.draw_fault(&mut state, pool, &self.kinds);
        planned.push(primary);
        let composed: Vec<FaultKind> = self
            .kinds
            .iter()
            .copied()
            .filter(|k| *k != FaultKind::Signal)
            .collect();
        if !composed.is_empty() && xorshift(&mut state).is_multiple_of(2) {
            let secondary = self.draw_fault(&mut state, pool, &composed);
            if !planned.contains(&secondary) {
                planned.push(secondary);
            }
        }
        planned
    }

    fn draw_fault(&self, state: &mut u64, pool: usize, kinds: &[FaultKind]) -> PlannedFault {
        let index = (xorshift(state) % kinds.len().max(1) as u64) as usize;
        let kind = kinds.get(index).copied().unwrap_or(FaultKind::Persist);
        match kind {
            FaultKind::Persist => PlannedFault::Persist(match xorshift(state) % 3 {
                0 => PersistFault::Enospc,
                1 => PersistFault::ShortWrite,
                _ => PersistFault::KillPoint,
            }),
            FaultKind::Shard => PlannedFault::Shard {
                shard: (xorshift(state) % pool.max(1) as u64) as usize,
                fault: match xorshift(state) % 4 {
                    0 => ShardFault::Partition,
                    1 => ShardFault::Stall,
                    2 => ShardFault::MidResponseKill,
                    _ => ShardFault::CorruptArtifact,
                },
            },
            FaultKind::Net => PlannedFault::Net(match xorshift(state) % 3 {
                0 => NetFault::Flood,
                1 => NetFault::SlowLoris,
                _ => NetFault::MalformedBurst,
            }),
            FaultKind::Signal => PlannedFault::Signal,
        }
    }
}

// ---------------------------------------------------------------------------
// Persist seam injection
// ---------------------------------------------------------------------------

/// Fault-injecting [`PersistIo`]: delegates to the real filesystem
/// until [`arm`](Self::arm)ed, then fails the next temp-file write in
/// the armed mode (one-shot — the next save after the fault fires is
/// healthy again, modeling a disk that filled and was cleared).
///
/// Installed process-wide with [`install`](Self::install), so the fault
/// hits the *real* `persist_now` path of the serving daemon.
pub struct PersistChaos {
    inner: RealIo,
    armed: Mutex<Option<PersistFault>>,
    fired: AtomicU64,
}

impl PersistChaos {
    /// Creates the injector and installs it as the process-wide persist
    /// I/O. Pair with [`uninstall`](Self::uninstall).
    #[must_use]
    pub fn install() -> Arc<PersistChaos> {
        let chaos = Arc::new(PersistChaos {
            inner: RealIo,
            armed: Mutex::new(None),
            fired: AtomicU64::new(0),
        });
        persist::set_persist_io(Arc::clone(&chaos) as Arc<dyn PersistIo + Send + Sync>);
        chaos
    }

    /// Restores the real filesystem as the process-wide persist I/O.
    pub fn uninstall() {
        persist::clear_persist_io();
    }

    /// Arms `fault` for the next snapshot write (replacing any pending
    /// armed fault).
    pub fn arm(&self, fault: PersistFault) {
        *lock(&self.armed) = Some(fault);
    }

    /// Clears any armed fault without firing it.
    pub fn disarm(&self) {
        *lock(&self.armed) = None;
    }

    /// How many persist faults have fired.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

impl PersistIo for PersistChaos {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn write_tmp(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let fault = lock(&self.armed).take();
        let Some(fault) = fault else {
            return self.inner.write_tmp(path, bytes);
        };
        self.fired.fetch_add(1, Ordering::Relaxed);
        match fault {
            PersistFault::Enospc => Err(io::Error::other(
                "no space left on device (injected ENOSPC)",
            )),
            PersistFault::ShortWrite => {
                let keep = bytes.len().saturating_sub(7);
                let head = bytes.get(..keep).unwrap_or(&[]);
                self.inner.write_tmp(path, head)?;
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "short write: device refused the tail (injected)",
                ))
            }
            PersistFault::KillPoint => {
                let head = bytes.get(..bytes.len() / 2).unwrap_or(&[]);
                self.inner.write_tmp(path, head)?;
                Err(io::Error::other(
                    "killed mid-snapshot (injected kill-point)",
                ))
            }
        }
    }

    fn sync_tmp(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_tmp(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
}

// ---------------------------------------------------------------------------
// Shard seam injection
// ---------------------------------------------------------------------------

/// How long a stalled shard holds the caller before timing out.
const STALL_MS: u64 = 30;

/// Fault-injecting [`ShardIo`] wrapper: exchanges pass through to the
/// wrapped pool until a shard is [`arm`](Self::arm)ed, then the next
/// exchange with that shard fails in the armed mode (one-shot — the
/// engine's retry, rotated or not, sees a healthy pool again).
pub struct ChaosShardIo {
    inner: Arc<dyn ShardIo>,
    armed: Mutex<BTreeMap<usize, ShardFault>>,
    fired: AtomicU64,
}

impl ChaosShardIo {
    /// Wraps a shard pool.
    #[must_use]
    pub fn new(inner: Arc<dyn ShardIo>) -> Self {
        ChaosShardIo {
            inner,
            armed: Mutex::new(BTreeMap::new()),
            fired: AtomicU64::new(0),
        }
    }

    /// Arms `fault` for the next exchange with `shard`.
    pub fn arm(&self, shard: usize, fault: ShardFault) {
        lock(&self.armed).insert(shard, fault);
    }

    /// Clears every armed shard fault without firing it.
    pub fn disarm(&self) {
        lock(&self.armed).clear();
    }

    /// How many shard faults have fired.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

impl ShardIo for ChaosShardIo {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn exchange(
        &self,
        shard: usize,
        line: &str,
        deadline: Option<std::time::Duration>,
    ) -> Result<String, ShardIoError> {
        let fault = lock(&self.armed).remove(&shard);
        let Some(fault) = fault else {
            return self.inner.exchange(shard, line, deadline);
        };
        self.fired.fetch_add(1, Ordering::Relaxed);
        match fault {
            ShardFault::Partition => Err(ShardIoError::new(
                ShardStep::Connect,
                io::ErrorKind::ConnectionRefused,
                "connection refused (injected partition)",
            )),
            ShardFault::Stall => {
                let mut pause = std::time::Duration::from_millis(STALL_MS);
                if let Some(deadline) = deadline {
                    pause = pause.min(deadline);
                }
                std::thread::sleep(pause);
                Err(ShardIoError::new(
                    ShardStep::Recv,
                    io::ErrorKind::TimedOut,
                    "shard stalled past the deadline (injected)",
                ))
            }
            ShardFault::MidResponseKill => {
                // The shard does the work; the caller never sees it.
                let _ = self.inner.exchange(shard, line, deadline);
                Err(ShardIoError::new(
                    ShardStep::Recv,
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response (injected kill)",
                ))
            }
            ShardFault::CorruptArtifact => {
                let text = self.inner.exchange(shard, line, deadline)?;
                // A tampered artifact must stay checksum-valid and
                // decodable, or we would only be exercising the decode
                // fault path; when no safe tamper exists for this
                // stage, degrade to a mid-response kill.
                match tamper_response(&text) {
                    Some(tampered) => Ok(tampered),
                    None => Err(ShardIoError::new(
                        ShardStep::Recv,
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-response (injected kill; no safe tamper)",
                    )),
                }
            }
        }
    }
}

/// Tampers a stage response's artifact payload such that it still
/// decodes and re-checksums, but fails the engine's semantic
/// re-validation (`invalid_artifact`). `None` when the response is not
/// a tamperable stage artifact.
fn tamper_response(text: &str) -> Option<String> {
    let Ok(Value::Object(mut entries)) = serde_json::from_str::<Value>(text) else {
        return None;
    };
    let stage = entries.iter().find_map(|(k, v)| match (k.as_str(), v) {
        ("stage", Value::String(s)) => Some(s.clone()),
        _ => None,
    })?;
    let payload = entries.iter().find_map(|(k, v)| match (k.as_str(), v) {
        ("artifact", Value::String(s)) => Some(s.clone()),
        _ => None,
    })?;
    let tampered = tamper_artifact(&stage, &payload)?;
    let check = fnv1a(tampered.as_bytes());
    for (key, value) in &mut entries {
        match key.as_str() {
            "artifact" => *value = Value::String(tampered.clone()),
            "check" => *value = Value::String(format!("{check:016x}")),
            _ => {}
        }
    }
    serde_json::to_string(&Value::Object(entries)).ok()
}

/// Stage-specific artifact tampering. Each edit is chosen so the
/// result *decodes* but is semantically inadmissible — the exact class
/// of corruption only the engine's re-validation can catch.
fn tamper_artifact(stage: &str, payload: &str) -> Option<String> {
    let value = serde_json::from_str::<Value>(payload).ok()?;
    let tampered = match (stage, value) {
        // Drop one triangle: the branch count no longer matches the
        // task's input complex.
        ("link-graphs", Value::Object(mut entries)) => {
            pop_array_field(&mut entries, "triangles")?;
            Value::Object(entries)
        }
        // Presentations serialize as a bare per-triangle array.
        ("presentations", Value::Array(mut items)) => {
            items.pop()?;
            Value::Array(items)
        }
        // Drop one vertex from an existence witness's assignment.
        ("homology", Value::Object(mut entries)) => {
            let outcome = entries
                .iter_mut()
                .find(|(k, _)| k == "outcome")
                .map(|(_, v)| v)?;
            let Value::Object(variant) = outcome else {
                return None;
            };
            let exists = variant
                .iter_mut()
                .find(|(k, _)| k == "exists")
                .map(|(_, v)| v)?;
            let Value::Object(exists_fields) = exists else {
                return None;
            };
            pop_array_field(exists_fields, "assignment")?;
            Value::Object(entries)
        }
        // Report a round cap beyond anything the dispatcher configured.
        ("explore", Value::Object(mut entries)) => {
            let cap = entries
                .iter_mut()
                .find(|(k, _)| k == "rounds_cap")
                .map(|(_, v)| v)?;
            *cap = Value::UInt(u64::from(u32::MAX));
            Value::Object(entries)
        }
        // `split` artifacts have no edit that is guaranteed both
        // decodable and inadmissible; the caller degrades the fault.
        _ => return None,
    };
    serde_json::to_string(&tampered).ok()
}

/// Removes the last element of the named array field; `None` when the
/// field is missing, not an array, or already empty.
fn pop_array_field(entries: &mut [(String, Value)], name: &str) -> Option<Value> {
    let field = entries
        .iter_mut()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)?;
    match field {
        Value::Array(items) => items.pop(),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// In-process shard pool
// ---------------------------------------------------------------------------

/// A loopback [`ShardIo`]: every exchange parses the stage request and
/// executes it in-process against the process-wide store — the worker
/// code path without sockets. Lets a chaos campaign run a multi-shard
/// pool (wrapped in [`ChaosShardIo`]) inside one process. Like a TCP
/// worker, it answers a rejected or failed job with one
/// `"status":"error"` line.
pub struct InProcessShards {
    shards: usize,
}

impl InProcessShards {
    /// A pool of `shards` loopback workers.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        InProcessShards { shards }
    }
}

impl ShardIo for InProcessShards {
    fn shard_count(&self) -> usize {
        self.shards
    }

    fn exchange(
        &self,
        _shard: usize,
        line: &str,
        _deadline: Option<std::time::Duration>,
    ) -> Result<String, ShardIoError> {
        let value: Value = serde_json::from_str(line).map_err(|e| {
            ShardIoError::new(ShardStep::Recv, io::ErrorKind::InvalidData, e.to_string())
        })?;
        let Value::Object(entries) = value else {
            return Err(ShardIoError::new(
                ShardStep::Recv,
                io::ErrorKind::InvalidData,
                "stage request is not a JSON object",
            ));
        };
        if entries
            .iter()
            .any(|(k, v)| k == "op" && *v == Value::String("ping".to_owned()))
        {
            return Ok(r#"{"status":"ok","op":"ping"}"#.to_owned());
        }
        super::remote::parse_stage_fields(&entries)
            .and_then(|job| super::remote::execute_stage_line(&job))
            .or_else(|error| {
                serde_json::to_string(&Value::object([
                    ("status", Value::String("error".to_owned())),
                    ("error", Value::String(error)),
                ]))
                .map_err(|e| {
                    ShardIoError::new(ShardStep::Recv, io::ErrorKind::InvalidData, e.to_string())
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_replay_identically_from_their_seed() {
        let schedule = FaultSchedule::new(42, &ALL_FAULT_KINDS);
        let replay = FaultSchedule::new(42, &ALL_FAULT_KINDS);
        for round in 0..200 {
            assert_eq!(schedule.plan(round, 3), replay.plan(round, 3));
        }
    }

    #[test]
    fn schedules_differ_across_seeds_and_respect_enabled_kinds() {
        let all = FaultSchedule::new(1, &ALL_FAULT_KINDS);
        let other = FaultSchedule::new(2, &ALL_FAULT_KINDS);
        let plans_a: Vec<_> = (0..50).map(|r| all.plan(r, 3)).collect();
        let plans_b: Vec<_> = (0..50).map(|r| other.plan(r, 3)).collect();
        assert_ne!(plans_a, plans_b, "seeds must vary the schedule");

        let persist_only = FaultSchedule::new(1, &[FaultKind::Persist]);
        for round in 0..100 {
            for fault in persist_only.plan(round, 3) {
                assert_eq!(fault.kind(), FaultKind::Persist);
            }
        }
    }

    #[test]
    fn every_round_plans_at_least_one_fault_and_at_most_one_signal() {
        let schedule = FaultSchedule::new(7, &ALL_FAULT_KINDS);
        for round in 0..300 {
            let plan = schedule.plan(round, 3);
            assert!(!plan.is_empty());
            assert!(plan.len() <= 2);
            let signals = plan
                .iter()
                .filter(|f| f.kind() == FaultKind::Signal)
                .count();
            assert!(signals <= 1);
        }
    }

    #[test]
    fn fault_kind_specs_parse_and_reject() {
        assert_eq!(
            parse_fault_kinds("persist,shard,net,signal").unwrap(),
            ALL_FAULT_KINDS.to_vec()
        );
        assert_eq!(
            parse_fault_kinds("signal, persist").unwrap(),
            vec![FaultKind::Persist, FaultKind::Signal]
        );
        assert!(parse_fault_kinds("gremlins").is_err());
        assert!(parse_fault_kinds("").is_err());
    }

    #[test]
    fn shard_faults_are_one_shot() {
        struct Healthy;
        impl ShardIo for Healthy {
            fn shard_count(&self) -> usize {
                2
            }
            fn exchange(
                &self,
                _shard: usize,
                _line: &str,
                _deadline: Option<std::time::Duration>,
            ) -> Result<String, ShardIoError> {
                Ok("pong".to_owned())
            }
        }
        let io = ChaosShardIo::new(Arc::new(Healthy));
        io.arm(1, ShardFault::Partition);
        assert!(io.exchange(0, "x", None).is_ok(), "unarmed shard passes");
        let err = io.exchange(1, "x", None).unwrap_err();
        assert_eq!(err.step, ShardStep::Connect);
        assert!(io.exchange(1, "x", None).is_ok(), "fault fired once");
        assert_eq!(io.fired(), 1);
    }

    #[test]
    fn tampering_preserves_the_checksum_and_breaks_semantics() {
        // A handcrafted link-graphs response with one triangle.
        let payload = r#"{"vertices":[],"domains":[],"edges":[],"edge_graphs":[],"edge_cycles":[],"triangles":[["a"]]}"#;
        let check = fnv1a(payload.as_bytes());
        let response = serde_json::to_string(&Value::Object(vec![
            ("status".to_owned(), Value::String("ok".to_owned())),
            ("stage".to_owned(), Value::String("link-graphs".to_owned())),
            ("check".to_owned(), Value::String(format!("{check:016x}"))),
            ("artifact".to_owned(), Value::String(payload.to_owned())),
        ]))
        .unwrap();
        let tampered = tamper_response(&response).expect("tamperable");
        let Value::Object(entries) = serde_json::from_str::<Value>(&tampered).unwrap() else {
            panic!("tampered response must stay an object");
        };
        let get = |name: &str| {
            entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        let Value::String(new_payload) = get("artifact") else {
            panic!("artifact field must stay a string");
        };
        let Value::String(new_check) = get("check") else {
            panic!("check field must stay a string");
        };
        assert_ne!(new_payload, payload, "payload must change");
        assert_eq!(
            u64::from_str_radix(&new_check, 16).unwrap(),
            fnv1a(new_payload.as_bytes()),
            "tampered checksum must re-validate"
        );
        assert!(
            new_payload.contains(r#""triangles":[]"#),
            "one triangle dropped: {new_payload}"
        );
    }

    #[test]
    fn split_responses_degrade_instead_of_tampering() {
        let response = r#"{"status":"ok","stage":"split","check":"00","artifact":"{}"}"#;
        assert!(tamper_response(response).is_none());
    }
}
