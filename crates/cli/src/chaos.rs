//! `chromata chaos` — randomized end-to-end fault campaigns against the
//! serving stack.
//!
//! A campaign replays a seeded mutation-fuzzed task stream (the same
//! generator as `chromata fuzz`) through a live [`Server`], while a
//! [`FaultSchedule`] fires composed faults across every seam the
//! production stack has:
//!
//! * **persist** — ENOSPC / short-write / kill-point injected into the
//!   real snapshot path ([`PersistChaos`]);
//! * **net** — connection floods, slow-loris holds, and malformed
//!   bursts over real TCP against the admission layer;
//! * **signal** — a SIGTERM delivered through the `chromata-signal`
//!   watcher, followed by a warm restart from the cache directory.
//!
//! After every round the campaign asserts the standing invariants: the
//! served verdict and evidence digest match a clean oracle run, the
//! service answered within a bounded recovery deadline, and at the end
//! the cache directory audits clean. Any breach fails the campaign
//! (nonzero exit), and the whole run replays exactly from its seed.
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
    Budget, CancelToken, FaultKind, FaultSchedule, NetFault, PersistChaos, PlannedFault, Verdict,
};
use chromata_task::{mutate_task, Task};

use crate::app::CliError;
use crate::registry;
use crate::serve::{request_line, ServeOptions, Server, ShutdownHandle};

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
            queue: None,
            max_payload: crate::wire::DEFAULT_MAX_PAYLOAD,
            budget_ms: None,
            cache_dir: Some(dir.to_path_buf()),
            // Persistence is driven explicitly (`op: "persist"`) so the
            // schedule, not a background cadence, decides when the
            // armed persist fault fires.
            persist_secs: 0,
            // A short idle timeout bounds how long a slow-loris socket
            // can pin a worker.
            idle_timeout_secs: 1,
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

    // Campaign: cold caches, chaos seams installed, live server, and a
    // cache directory of the campaign's own, removed whole at the end.
    clear_stage_caches();
    let dir = std::env::temp_dir().join(format!("chromata-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persist_chaos = PersistChaos::install();
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
        let seam_fired_before = persist_chaos.fired();
        let plan = schedule.plan(round as u64);
        let clock = Stopwatch::start();
        let mut faults_this_round = 0u64;
        for fault in &plan {
            *fired_by_kind.entry(fault.kind().label()).or_insert(0) += 1;
            faults_this_round += 1;
            match fault {
                PlannedFault::Persist(persist_fault) => {
                    let Some(live) = daemon.as_ref() else {
                        continue;
                    };
                    persist_chaos.arm(*persist_fault);
                    // Fire it through the daemon's real persist path:
                    // the armed save must fail without wedging…
                    match request_line(&live.addr, r#"{"op":"persist"}"#, PROBE_TIMEOUT_SECS) {
                        Ok(response) if response.contains("persist failed") => {}
                        Ok(response) => breaches.push(format!(
                            "round {round}: armed {} did not surface a persist failure: {response}",
                            persist_fault.label()
                        )),
                        Err(e) => breaches
                            .push(format!("round {round}: persist probe failed outright: {e}")),
                    }
                    if !store_read_through() {
                        breaches.push(format!(
                            "round {round}: store not read-through after a failed snapshot"
                        ));
                    }
                    // …and the next cadence, fault cleared, must heal.
                    match request_line(&live.addr, r#"{"op":"persist"}"#, PROBE_TIMEOUT_SECS) {
                        Ok(response) if response.contains(r#""op":"persist""#) => {}
                        Ok(response) => breaches.push(format!(
                            "round {round}: persist did not heal after the fault cleared: {response}"
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
                let seam_fired = persist_chaos.fired() - seam_fired_before;
                if faults_this_round > 0 && (seam_fired > 0 || !plan.is_empty()) {
                    recoveries += 1;
                    max_recovery_ms =
                        max_recovery_ms.max(elapsed_ms.max(clock.elapsed().as_millis() as u64));
                }
            }
            Err(e) => breaches.push(format!("round {round} ({}): {e}", mutant.name())),
        }
        // One-shot discipline: a fault the round's traffic never
        // reached does not leak into the next round.
        persist_chaos.disarm();
    }
    held_loris.clear();

    // Teardown: graceful shutdown (final persist), seams restored.
    let summary = match daemon.take() {
        Some(live) => {
            live.handle.request();
            live.join()
        }
        None => "serve: server lost mid-campaign".to_owned(),
    };
    PersistChaos::uninstall();

    // The surviving cache directory must audit clean: the snapshot the
    // campaign's persists (including the failed ones) left behind is
    // intact or absent, never torn.
    if dir.exists() {
        let audit = audit_cache_dir(&dir);
        if !audit.is_clean() {
            breaches.push(format!(
                "cache audit: verdict snapshot unclean: {:?}",
                audit.issues
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

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
        "faults fired: {} (persist seam {})",
        if fired.is_empty() {
            "none".to_owned()
        } else {
            fired.join(", ")
        },
        persist_chaos.fired(),
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
    fn a_short_campaign_holds_every_invariant() {
        // One seeded round per fault family keeps the test fast while
        // still driving the full boot → fault → verify → audit loop.
        let out = run_campaign(&ChaosOptions {
            seed: 3,
            rounds: 4,
            kinds: vec![FaultKind::Persist, FaultKind::Net],
        })
        .unwrap_or_else(|e| panic!("campaign breached: {e}"));
        assert!(out.contains("digest parity: 4/4 ok"), "{out}");
        assert!(out.contains("invariant breaches: 0"), "{out}");
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
