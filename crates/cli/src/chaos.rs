//! `chromata chaos` — randomized end-to-end fault campaigns against the
//! serving stack.
//!
//! The paper's subject is correctness under adversarial executions, and
//! the fault-model framing of Gafni–Kuznetsov–Manolescu treats a fault
//! model as a *set of runs*: the serving stack's standing invariants
//! (never a wrong verdict, digest parity with a clean run, bounded
//! recovery) must hold under randomized *composed* schedules of the
//! faults the unit suites inject one at a time, and each fault is a run
//! the real system can go through.
//!
//! A campaign replays a seeded mutation-fuzzed task stream (the same
//! generator as `chromata fuzz`) through a live [`Server`], while a
//! [`FaultSchedule`] fires composed faults across every seam the
//! production stack has:
//!
//! * **persist** — the campaign's cache directory is moved aside and a
//!   regular file takes its path, so the daemon's next snapshot fails
//!   on the real filesystem; then the directory is put back;
//! * **net** — connection floods, slow-loris holds, and malformed
//!   bursts over real TCP against the admission layer;
//! * **signal** — a SIGTERM delivered through the `chromata-signal`
//!   watcher, followed by a warm restart from the cache directory.
//!
//! After every round the campaign asserts the standing invariants: the
//! served verdict and evidence digest match a clean oracle run, the
//! service answered within a bounded recovery deadline, and at the end
//! the cache directory audits clean. Any breach fails the campaign
//! (nonzero exit). The schedule is a pure function of `(seed, round)`,
//! drawn from the workspace's one xorshift64* generator (which also
//! drives the task mutator), so the whole run replays from its seed.
//!
//! This module (like `serve`) is exempt from the socket- and
//! clock-confinement lint rules D4/D2: driving real connections and
//! timing recovery is its purpose.

use std::fmt::Write as _;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

use chromata::topology::govern::Stopwatch;
use chromata::{
    analyze_governed, audit_cache_dir, clear_stage_caches, persist_failures, store_read_through,
    Budget, CancelToken, Verdict,
};
use chromata_task::{mutate_task, Task};
use chromata_topology::xorshift;

use crate::app::CliError;
use crate::registry;
use crate::serve::{request_line, ServeOptions, Server, ShutdownHandle};

// ---------------------------------------------------------------------------
// Fault vocabulary
// ---------------------------------------------------------------------------

/// The three fault families a campaign can enable (`--faults`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum FaultKind {
    /// A snapshot that fails on the real filesystem, then heals.
    Persist,
    /// Admission-layer abuse over real connections (floods, slow-loris,
    /// malformed bursts).
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

/// An admission-layer abuse pattern, driven over real connections.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetFault {
    /// A burst of concurrent connections racing the real request.
    Flood,
    /// A connection that trickles a partial line and holds the socket.
    SlowLoris,
    /// A burst of malformed request lines.
    MalformedBurst,
}

/// One fault the schedule plans for a round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlannedFault {
    /// Fail the daemon's next snapshot on the real filesystem.
    Persist,
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
            PlannedFault::Persist => FaultKind::Persist,
            PlannedFault::Net(_) => FaultKind::Net,
            PlannedFault::Signal => FaultKind::Signal,
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
/// net abuse pattern within its family.
fn draw_fault(state: &mut u64, kinds: &[FaultKind]) -> PlannedFault {
    let index = (xorshift(state) % kinds.len().max(1) as u64) as usize;
    match kinds.get(index).copied().unwrap_or(FaultKind::Persist) {
        FaultKind::Persist => PlannedFault::Persist,
        FaultKind::Net => PlannedFault::Net(match xorshift(state) % 3 {
            0 => NetFault::Flood,
            1 => NetFault::SlowLoris,
            _ => NetFault::MalformedBurst,
        }),
        FaultKind::Signal => PlannedFault::Signal,
    }
}

// ---------------------------------------------------------------------------
// The campaign
// ---------------------------------------------------------------------------

/// Base library tasks the mutation stream is derived from: one
/// solvable, one unsolvable-by-homology, one solvable-after-splitting —
/// so faults land on every pipeline shape.
const BASE_TASKS: [&str; 3] = ["identity", "consensus", "hourglass"];

/// Hard per-round recovery deadline: a faulted service must produce the
/// round's correct verdict within this window or the round breaches.
const RECOVERY_DEADLINE_MS: u64 = 30_000;

/// Connections in a flood burst.
const FLOOD_CONNECTIONS: usize = 8;

/// Lines in a malformed burst.
const MALFORMED_LINES: usize = 4;

/// Per-request socket timeout (seconds) used by campaign probes.
const PROBE_TIMEOUT_SECS: u64 = 10;

/// Tuning for one `chromata chaos` campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosOptions {
    /// Seed for both the task mutator and the fault schedule.
    pub seed: u64,
    /// Rounds to run (one mutant task per round).
    pub rounds: usize,
    /// Enabled fault families.
    pub kinds: Vec<FaultKind>,
}

impl Default for ChaosOptions {
    /// `chromata chaos` without flags: seed 1, 20 rounds, every family.
    fn default() -> Self {
        ChaosOptions {
            seed: 1,
            rounds: 20,
            kinds: ALL_FAULT_KINDS.to_vec(),
        }
    }
}

/// One running server plus its signal watcher.
struct Daemon {
    server: Server,
    addr: String,
    handle: ShutdownHandle,
    watch: Option<chromata_signal::SignalWatch>,
}

impl Daemon {
    fn boot(dir: &Path) -> Result<Daemon, CliError> {
        let server = Server::start(ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            cache_dir: Some(dir.to_path_buf()),
            // Persistence is driven explicitly (`op: "persist"`) so the
            // schedule, not a background cadence, decides which save
            // meets the persist fault.
            persist_secs: 0,
            // A short idle timeout bounds how long a slow-loris socket
            // can pin a worker.
            idle_timeout_secs: 1,
            ..ServeOptions::default()
        })?;
        let addr = server.local_addr().to_string();
        let handle = server.shutdown_handle();
        let watch = if chromata_signal::supported() {
            let on_signal = server.shutdown_handle();
            chromata_signal::watch_termination(move |_sig| on_signal.request())
        } else {
            None
        };
        Ok(Daemon {
            server,
            addr,
            handle,
            watch,
        })
    }

    /// Delivers a SIGTERM through the watcher (the real signal path);
    /// degrades to a direct shutdown request where signals are
    /// unsupported. Returns whether the signal path was exercised.
    fn terminate(&self) -> bool {
        if let Some(watch) = &self.watch {
            // The watcher publishes its thread id asynchronously right
            // after boot; poll briefly.
            for _ in 0..200 {
                if watch.deliver(chromata_signal::SIGTERM) {
                    return true;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.handle.request();
        false
    }

    /// Joins the server (final persist included) and the watcher.
    fn join(self) -> String {
        let summary = self.server.wait();
        if let Some(watch) = self.watch {
            watch.stop();
        }
        summary
    }
}

fn verdict_label(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Solvable { .. } => "SOLVABLE",
        Verdict::Unsolvable { .. } => "UNSOLVABLE",
        Verdict::Unknown { .. } => "UNKNOWN",
    }
}

/// The wire line analyzing `task` inline (mutants are not registry
/// names, so they travel as full task objects).
fn analyze_line(task: &Task) -> Result<String, CliError> {
    serde_json::to_string(&serde_json::Value::object([
        ("op", serde_json::Value::String("analyze".to_owned())),
        ("task", serde_json::to_value(task)),
    ]))
    .map_err(|e| CliError(format!("chaos: serialize request: {e}")))
}

/// Sends `line` until a final answer arrives (honoring overload retry
/// hints and riding out transport errors from in-flight restarts) or
/// the round's recovery deadline passes. Returns the response plus the
/// elapsed milliseconds.
fn request_with_recovery(
    addr: &str,
    line: &str,
    deadline_ms: u64,
) -> Result<(String, u64), String> {
    let clock = Stopwatch::start();
    let mut attempt: u32 = 0;
    loop {
        let elapsed_ms = clock.elapsed().as_millis() as u64;
        if elapsed_ms > deadline_ms {
            return Err(format!(
                "no final answer within the {deadline_ms} ms recovery deadline"
            ));
        }
        let hint = match request_line(addr, line, PROBE_TIMEOUT_SECS) {
            Ok(response) => match crate::wire::overload_retry_hint_of(&response) {
                None => return Ok((response, clock.elapsed().as_millis() as u64)),
                hint => hint,
            },
            Err(_) => None,
        };
        std::thread::sleep(Duration::from_millis(
            crate::wire::retry_backoff_ms(attempt, hint).min(250),
        ));
        attempt = attempt.saturating_add(1);
    }
}

/// Extracts `(verdict, evidence_digest)` from an analyze response.
fn verdict_of(response: &str) -> Option<(String, String)> {
    let doc: serde_json::Value = serde_json::from_str(response).ok()?;
    let serde_json::Value::String(verdict) = &doc["verdict"] else {
        return None;
    };
    let serde_json::Value::String(digest) = &doc["evidence_digest"] else {
        return None;
    };
    Some((verdict.clone(), digest.clone()))
}

/// Applies one net fault over real TCP. Slow-loris sockets are returned
/// to the caller, which holds them across the round.
fn apply_net_fault(addr: &str, fault: NetFault, held: &mut Vec<TcpStream>) {
    match fault {
        NetFault::Flood => {
            for _ in 0..FLOOD_CONNECTIONS {
                let _ = request_line(addr, r#"{"op":"ping"}"#, 2);
            }
        }
        NetFault::SlowLoris => {
            if let Ok(mut stream) = TcpStream::connect(addr) {
                // A partial request line, then silence: the worker must
                // cut the connection off at its read deadline, not hang.
                let _ = stream.write_all(br#"{"op":"ana"#);
                let _ = stream.flush();
                held.push(stream);
            }
        }
        NetFault::MalformedBurst => {
            for i in 0..MALFORMED_LINES {
                let _ = request_line(addr, &format!("{{malformed line {i}"), 2);
            }
        }
    }
}

/// The persist fault: moves the campaign's cache directory to `aside`
/// and writes a regular file at its path, so the daemon's next save
/// fails at its first step (`create-dir`) on the real filesystem.
fn break_cache_dir(dir: &Path, aside: &Path) -> std::io::Result<()> {
    std::fs::rename(dir, aside)?;
    std::fs::write(dir, "not a directory\n")
}

/// Undoes [`break_cache_dir`]: removes the file and moves the directory
/// back.
fn mend_cache_dir(dir: &Path, aside: &Path) -> std::io::Result<()> {
    std::fs::remove_file(dir)?;
    std::fs::rename(aside, dir)
}

/// Runs one campaign; the returned report is the command's stdout.
///
/// # Errors
///
/// Returns a [`CliError`] naming every invariant breach (wrong verdict,
/// digest mismatch, blown recovery deadline, dirty cache) — the
/// driver's exit is nonzero exactly when the campaign found one.
pub fn run_campaign(opts: &ChaosOptions) -> Result<String, CliError> {
    if opts.rounds == 0 {
        return Err(CliError("chaos: --rounds must be at least 1".to_owned()));
    }
    let bases: Vec<Task> = BASE_TASKS
        .iter()
        .map(|name| {
            registry::find(name)
                .ok_or_else(|| CliError(format!("chaos: library task `{name}` missing")))
        })
        .collect::<Result<_, _>>()?;

    // Oracle pass: the same stream in a clean process — the ground truth
    // every faulted round must reproduce.
    clear_stage_caches();
    let budget = Budget::unlimited();
    let cancel = CancelToken::new();
    let mut stream: Vec<(Task, String, String)> = Vec::with_capacity(opts.rounds);
    for round in 0..opts.rounds {
        let base = &bases[round % bases.len()];
        let mutant = mutate_task(base, opts.seed, round as u64);
        let analysis = analyze_governed(&mutant, Default::default(), &budget, &cancel);
        let label = verdict_label(&analysis.verdict).to_owned();
        let digest = format!("{:016x}", analysis.evidence.deterministic_digest());
        stream.push((mutant, label, digest));
    }

    // Campaign: cold caches, live server, and a cache directory of the
    // campaign's own, created before the first boot (so a persist fault
    // always has a directory to move) and removed whole at the end.
    clear_stage_caches();
    let dir = std::env::temp_dir().join(format!("chromata-chaos-{}", std::process::id()));
    let aside = dir.with_extension("aside");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .map_err(|e| CliError(format!("chaos: cannot create {}: {e}", dir.display())))?;
    let schedule = FaultSchedule::new(opts.seed, &opts.kinds);

    let mut breaches: Vec<String> = Vec::new();
    let mut fired_by_kind: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    let mut parity_ok = 0usize;
    let mut recoveries = 0u64;
    let mut max_recovery_ms = 0u64;
    let mut restarts = 0u64;
    let mut signal_path_restarts = 0u64;
    let mut held_loris: Vec<TcpStream> = Vec::new();

    // `None` after a failed warm restart: the campaign stops there and
    // reports the breach rather than cascading one per round.
    let mut daemon: Option<Daemon> = Some(Daemon::boot(&dir)?);
    for (round, (mutant, want_verdict, want_digest)) in stream.iter().enumerate() {
        // Last round's slow-loris sockets are released here; their EOF
        // mid-line is itself served as a (malformed) request.
        held_loris.clear();
        let plan = schedule.plan(round as u64);
        let clock = Stopwatch::start();
        for fault in &plan {
            *fired_by_kind.entry(fault.kind().label()).or_insert(0) += 1;
            match fault {
                PlannedFault::Persist => {
                    let Some(live) = daemon.as_ref() else {
                        continue;
                    };
                    if let Err(e) = break_cache_dir(&dir, &aside) {
                        breaches.push(format!(
                            "round {round}: could not apply the persist fault: {e}"
                        ));
                        continue;
                    }
                    // Fire it through the daemon's real persist path:
                    // the save must fail without wedging…
                    match request_line(&live.addr, r#"{"op":"persist"}"#, PROBE_TIMEOUT_SECS) {
                        Ok(response) if response.contains("persist failed") => {}
                        Ok(response) => breaches.push(format!(
                            "round {round}: the persist fault did not surface a persist failure: {response}"
                        )),
                        Err(e) => breaches
                            .push(format!("round {round}: persist probe failed outright: {e}")),
                    }
                    if !store_read_through() {
                        breaches.push(format!(
                            "round {round}: store not read-through after a failed snapshot"
                        ));
                    }
                    // …and once the fault is undone, before anything
                    // else in the round runs, the next save must heal.
                    if let Err(e) = mend_cache_dir(&dir, &aside) {
                        breaches.push(format!(
                            "round {round}: could not undo the persist fault: {e}"
                        ));
                        continue;
                    }
                    match request_line(&live.addr, r#"{"op":"persist"}"#, PROBE_TIMEOUT_SECS) {
                        Ok(response) if response.contains(r#""op":"persist""#) => {}
                        Ok(response) => breaches.push(format!(
                            "round {round}: persist did not heal after the fault was undone: {response}"
                        )),
                        Err(e) => breaches.push(format!(
                            "round {round}: healing persist failed outright: {e}"
                        )),
                    }
                }
                PlannedFault::Net(net_fault) => {
                    if let Some(live) = daemon.as_ref() {
                        apply_net_fault(&live.addr, *net_fault, &mut held_loris);
                    }
                }
                PlannedFault::Signal => {
                    let Some(old) = daemon.take() else { continue };
                    let via_signal = old.terminate();
                    let _ = old.join();
                    restarts += 1;
                    signal_path_restarts += u64::from(via_signal);
                    match Daemon::boot(&dir) {
                        Ok(next) => daemon = Some(next),
                        Err(e) => {
                            breaches.push(format!("round {round}: warm restart failed: {e}"));
                        }
                    }
                }
            }
        }
        // The round's real request must come back correct within the
        // recovery deadline, whatever the schedule just did.
        let Some(live) = daemon.as_ref() else {
            breaches.push(format!(
                "round {round} ({}): no live server after a failed restart",
                mutant.name()
            ));
            break;
        };
        let line = match analyze_line(mutant) {
            Ok(line) => line,
            Err(e) => {
                breaches.push(format!("round {round}: {e}"));
                continue;
            }
        };
        match request_with_recovery(&live.addr, &line, RECOVERY_DEADLINE_MS) {
            Ok((response, elapsed_ms)) => {
                match verdict_of(&response) {
                    Some((verdict, digest)) => {
                        if verdict == *want_verdict && digest == *want_digest {
                            parity_ok += 1;
                        } else {
                            breaches.push(format!(
                                "round {round} ({}): served {verdict}/{digest}, oracle {want_verdict}/{want_digest}",
                                mutant.name()
                            ));
                        }
                    }
                    None => breaches.push(format!(
                        "round {round} ({}): unparseable final response: {response}",
                        mutant.name()
                    )),
                }
                if !plan.is_empty() {
                    recoveries += 1;
                    max_recovery_ms =
                        max_recovery_ms.max(elapsed_ms.max(clock.elapsed().as_millis() as u64));
                }
            }
            Err(e) => breaches.push(format!("round {round} ({}): {e}", mutant.name())),
        }
    }
    held_loris.clear();

    // Teardown: graceful shutdown (final persist).
    let summary = match daemon.take() {
        Some(live) => {
            live.handle.request();
            live.join()
        }
        None => "serve: server lost mid-campaign".to_owned(),
    };

    // The surviving cache directory must audit clean: the snapshot the
    // campaign's persists (including the failed ones) left behind is
    // intact or absent, never torn.
    let audit = audit_cache_dir(&dir);
    if !audit.is_clean() {
        breaches.push(format!(
            "cache audit: verdict snapshot unclean: {:?}",
            audit.issues
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&aside);

    let mut out = String::new();
    let kinds_label: Vec<&str> = opts.kinds.iter().map(|k| k.label()).collect();
    let _ = writeln!(
        out,
        "chaos: seed {}, {} round(s), faults: {}",
        opts.seed,
        opts.rounds,
        kinds_label.join(",")
    );
    let fired: Vec<String> = fired_by_kind
        .iter()
        .map(|(kind, count)| format!("{kind} x{count}"))
        .collect();
    let _ = writeln!(
        out,
        "faults fired: {}",
        if fired.is_empty() {
            "none".to_owned()
        } else {
            fired.join(", ")
        }
    );
    let _ = writeln!(
        out,
        "recoveries: {recoveries}, max recovery: {max_recovery_ms} ms; \
         restarts: {restarts} ({signal_path_restarts} via SIGTERM)"
    );
    let _ = writeln!(
        out,
        "persist failures observed: {} (read-through now: {})",
        persist_failures(),
        store_read_through()
    );
    let _ = writeln!(out, "digest parity: {parity_ok}/{} ok", stream.len());
    let _ = writeln!(out, "invariant breaches: {}", breaches.len());
    let _ = writeln!(out, "{summary}");
    if breaches.is_empty() {
        Ok(out)
    } else {
        let mut message = format!("chaos: {} invariant breach(es):\n", breaches.len());
        for breach in &breaches {
            let _ = writeln!(message, "  {breach}");
        }
        let _ = write!(message, "{out}");
        Err(CliError(message))
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

    /// The number right after `prefix` in `out` (0 when absent).
    fn count_after(out: &str, prefix: &str) -> u64 {
        out.split(prefix)
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    }

    #[test]
    fn a_short_campaign_holds_every_invariant() {
        // The campaign clears the process-wide store and reads its
        // read-through flag, which another test's save would reset.
        let _store = crate::store_test_guard();
        // Four rounds keep the test fast while still driving the full
        // boot → fault → verify → audit loop; seed 8 draws both families
        // in them (one persist fault, five net faults).
        let out = run_campaign(&ChaosOptions {
            seed: 8,
            rounds: 4,
            kinds: vec![FaultKind::Persist, FaultKind::Net],
        })
        .unwrap_or_else(|e| panic!("campaign breached: {e}"));
        assert!(out.contains("digest parity: 4/4 ok"), "{out}");
        assert!(out.contains("invariant breaches: 0"), "{out}");
        // The persist faults fired, failed the daemon's save visibly,
        // and healed (a probe that did not would be a breach).
        let persist_faults = count_after(&out, "persist x");
        assert!(persist_faults >= 1, "{out}");
        assert!(
            count_after(&out, "persist failures observed: ") >= persist_faults,
            "{out}"
        );
        assert!(out.contains("(read-through now: false)"), "{out}");
    }

    #[test]
    fn zero_rounds_is_a_named_error() {
        let err = run_campaign(&ChaosOptions {
            seed: 1,
            rounds: 0,
            kinds: vec![FaultKind::Persist],
        })
        .unwrap_err();
        assert!(err.0.contains("--rounds"), "{err}");
    }
}
