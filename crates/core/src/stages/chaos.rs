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
//! One seam is armed here, mirroring the production seam exactly:
//! [`PersistChaos`] implements the persist layer's I/O seam and installs
//! itself process-wide, so a scheduled ENOSPC, short write, or
//! kill-point hits the *real* [`persist_now`](super::persist::persist_now)
//! path the daemon's cadence thread calls. The other two families, net
//! abuse and signals, act on a live server and are fired by the CLI
//! campaign itself.
//!
//! Schedules are produced by [`FaultSchedule`]: seeded by the
//! workspace's one xorshift64* generator (`chromata_topology::xorshift`,
//! which also drives the task mutator), a pure function of
//! `(seed, round)` so any campaign replays exactly from its seed.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use chromata_topology::xorshift;

use super::persist::{self, PersistIo, RealIo};

/// Poison-recovering lock: the guarded chaos state is one armed fault,
/// so a panicking holder cannot leave it torn.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Fault vocabulary
// ---------------------------------------------------------------------------

/// The three fault families a campaign can enable (`--faults`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum FaultKind {
    /// Snapshot I/O faults through the persist seam.
    Persist,
    /// Admission-layer abuse over real connections (floods, slow-loris,
    /// malformed bursts) — armed by the CLI driver, not this module.
    Net,
    /// Graceful-shutdown signal followed by a warm restart.
    Signal,
}

/// Every fault family, in canonical order.
pub const ALL_FAULT_KINDS: [FaultKind; 3] = [FaultKind::Persist, FaultKind::Net, FaultKind::Signal];

impl FaultKind {
    /// Stable lower-case label (the `--faults` vocabulary).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Persist => "persist",
            FaultKind::Net => "net",
            FaultKind::Signal => "signal",
        }
    }
}

/// Parses a `--faults persist,net,signal` list (deduplicated, canonical
/// order).
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
                let known: Vec<&str> = ALL_FAULT_KINDS.iter().map(|k| k.label()).collect();
                format!(
                    "unknown fault kind `{part}` (expected {})",
                    known.join(", ")
                )
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
            PlannedFault::Net(_) => FaultKind::Net,
            PlannedFault::Signal => FaultKind::Signal,
        }
    }

    /// Stable label for campaign reports, e.g. `net/slow-loris`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PlannedFault::Persist(f) => f.label(),
            PlannedFault::Net(f) => f.label(),
            PlannedFault::Signal => "signal/graceful-restart",
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

    /// The faults to fire in `round`. Every round carries one primary
    /// fault; every other round (by draw) composes a second, non-signal
    /// fault on top, so restarts stay bounded at one per round while
    /// seams still overlap.
    #[must_use]
    pub fn plan(&self, round: u64) -> Vec<PlannedFault> {
        if self.kinds.is_empty() {
            return Vec::new();
        }
        // Splitmix-style per-round state so rounds are independent.
        let mut state = self
            .seed
            .wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut planned = Vec::new();
        let primary = draw_fault(&mut state, &self.kinds);
        planned.push(primary);
        let composed: Vec<FaultKind> = self
            .kinds
            .iter()
            .copied()
            .filter(|k| *k != FaultKind::Signal)
            .collect();
        if !composed.is_empty() && xorshift(&mut state).is_multiple_of(2) {
            let secondary = draw_fault(&mut state, &composed);
            if !planned.contains(&secondary) {
                planned.push(secondary);
            }
        }
        planned
    }
}

/// Draws one fault from the enabled `kinds`: the family first, then the
/// variant within it.
fn draw_fault(state: &mut u64, kinds: &[FaultKind]) -> PlannedFault {
    let index = (xorshift(state) % kinds.len().max(1) as u64) as usize;
    let kind = kinds.get(index).copied().unwrap_or(FaultKind::Persist);
    match kind {
        FaultKind::Persist => PlannedFault::Persist(match xorshift(state) % 3 {
            0 => PersistFault::Enospc,
            1 => PersistFault::ShortWrite,
            _ => PersistFault::KillPoint,
        }),
        FaultKind::Net => PlannedFault::Net(match xorshift(state) % 3 {
            0 => NetFault::Flood,
            1 => NetFault::SlowLoris,
            _ => NetFault::MalformedBurst,
        }),
        FaultKind::Signal => PlannedFault::Signal,
    }
}

// ---------------------------------------------------------------------------
// Persist seam injection
// ---------------------------------------------------------------------------

/// Fault-injecting `PersistIo`: delegates to the real filesystem
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_replay_identically_from_their_seed() {
        let schedule = FaultSchedule::new(42, &ALL_FAULT_KINDS);
        let replay = FaultSchedule::new(42, &ALL_FAULT_KINDS);
        for round in 0..200 {
            assert_eq!(schedule.plan(round), replay.plan(round));
        }
    }

    #[test]
    fn schedules_differ_across_seeds_and_respect_enabled_kinds() {
        let all = FaultSchedule::new(1, &ALL_FAULT_KINDS);
        let other = FaultSchedule::new(2, &ALL_FAULT_KINDS);
        let plans_a: Vec<_> = (0..50).map(|r| all.plan(r)).collect();
        let plans_b: Vec<_> = (0..50).map(|r| other.plan(r)).collect();
        assert_ne!(plans_a, plans_b, "seeds must vary the schedule");

        let persist_only = FaultSchedule::new(1, &[FaultKind::Persist]);
        for round in 0..100 {
            for fault in persist_only.plan(round) {
                assert_eq!(fault.kind(), FaultKind::Persist);
            }
        }
    }

    #[test]
    fn every_round_plans_at_least_one_fault_and_at_most_one_signal() {
        let schedule = FaultSchedule::new(7, &ALL_FAULT_KINDS);
        for round in 0..300 {
            let plan = schedule.plan(round);
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
            parse_fault_kinds("persist,net,signal").unwrap(),
            ALL_FAULT_KINDS.to_vec()
        );
        assert_eq!(
            parse_fault_kinds("signal, persist").unwrap(),
            vec![FaultKind::Persist, FaultKind::Signal]
        );
        assert_eq!(
            parse_fault_kinds("gremlins"),
            Err("unknown fault kind `gremlins` (expected persist, net, signal)".to_owned())
        );
        assert!(parse_fault_kinds("").is_err());
    }
}
