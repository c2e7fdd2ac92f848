//! Chaos parity for distributed stage execution: with the `ShardIo`
//! fault seam injecting crashes, stalls, corruption, and partitions at
//! every protocol step, every analysis must still yield a verdict —
//! never a wrong one — and every evidence digest must be byte-identical
//! to the single-machine run:
//!
//! ```text
//! cargo test -p chromata --test shard_faults
//! cargo test -p chromata --test shard_faults --no-default-features
//! ```
//!
//! The matrix mirrors `persist.rs`'s durability torture tests: every
//! `io::ErrorKind` at every dispatch step, a mid-response kill, a
//! corrupted artifact payload, and a partitioned-then-healed shard —
//! each case also asserting the expected fault-taxonomy counter. A
//! stage runs through one code path whether it is computed locally,
//! fetched from a shard, or recomputed after every shard failed, so the
//! stage-cache accounting is pinned equal across all three.
//!
//! Every test funnels through [`store_guard`]: the remote engine and
//! the stage caches are process-wide, so tests serialize and reset both.

use std::collections::BTreeMap;
use std::io;
use std::mem::discriminant;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

use chromata::{
    analyze, analyze_batch, clear_remote, clear_stage_caches, configure_remote, remote_fault_trace,
    remote_stats, stage_cache_stats, Analysis, ArtifactKind, InProcessShards, PipelineOptions,
    RemotePolicy, ShardIo, ShardIoError, ShardStep, StageOrigin,
};
use chromata_task::library::{
    consensus, hourglass, identity_task, klein_bottle_doubled_loop, loop_agreement, pinwheel,
    two_set_agreement,
};
use chromata_task::Task;
use std::sync::Arc;

/// Serializes tests that touch the process-wide store + remote engine.
fn store_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Fresh local state: no remote engine, cold stage + verdict caches.
fn reset() {
    clear_remote();
    clear_stage_caches();
}

/// The single-machine golden for a task: verdict text + evidence digest.
fn golden(task: &Task, options: PipelineOptions) -> (String, u64) {
    reset();
    let analysis = analyze(task, options);
    let digest = analysis.evidence.deterministic_digest();
    (format!("{}", analysis.verdict), digest)
}

/// Asserts an analysis matches its golden byte-for-byte.
fn assert_parity(task: &Task, analysis: &Analysis, golden: &(String, u64), context: &str) {
    assert_eq!(
        format!("{}", analysis.verdict),
        golden.0,
        "verdict drift on {} under {context}",
        task.name()
    );
    assert_eq!(
        analysis.evidence.deterministic_digest(),
        golden.1,
        "digest drift on {} under {context}",
        task.name()
    );
}

/// What the fault injector does to an exchange.
#[derive(Clone, Copy, Debug)]
enum FaultMode {
    /// Fail at a protocol step with a chosen error kind.
    Fail(ShardStep, io::ErrorKind),
    /// Kill the shard mid-response: a truncated line reaches the client.
    MidResponseKill,
    /// Deliver a corrupted artifact payload (checksum must catch it).
    CorruptPayload,
    /// Stall past the deadline, then surface the timeout.
    Stall,
}

/// An in-process shard pool whose first `fault_budget` exchanges
/// misbehave per `mode`, then behave; `usize::MAX` misbehaves forever.
struct FaultIo {
    pool: InProcessShards,
    mode: FaultMode,
    fault_budget: AtomicUsize,
}

impl FaultIo {
    fn always(shards: usize, mode: FaultMode) -> Self {
        FaultIo::healing_after(shards, mode, usize::MAX)
    }

    fn healing_after(shards: usize, mode: FaultMode, faults: usize) -> Self {
        FaultIo {
            pool: InProcessShards::new(shards),
            mode,
            fault_budget: AtomicUsize::new(faults),
        }
    }

    fn take_fault(&self) -> bool {
        self.fault_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n > 0 && n != usize::MAX).then(|| n - 1).or({
                    if n == usize::MAX {
                        Some(n)
                    } else {
                        None
                    }
                })
            })
            .is_ok()
    }
}

impl ShardIo for FaultIo {
    fn shard_count(&self) -> usize {
        self.pool.shard_count()
    }

    fn exchange(
        &self,
        shard: usize,
        line: &str,
        deadline: Option<Duration>,
    ) -> Result<String, ShardIoError> {
        if !self.take_fault() {
            return self.pool.exchange(shard, line, deadline);
        }
        match self.mode {
            FaultMode::Fail(step, kind) => Err(ShardIoError {
                step,
                kind,
                message: format!("injected {kind:?} at {}", step.label()),
            }),
            FaultMode::MidResponseKill => {
                let full = self.pool.exchange(shard, line, deadline)?;
                Ok(full[..full.len() / 2].to_owned())
            }
            FaultMode::CorruptPayload => {
                let full = self.pool.exchange(shard, line, deadline)?;
                // Flip payload bytes without breaking the JSON framing:
                // the checksum, not the parser, must catch this.
                Ok(full.replace(":[", ":[9,"))
            }
            FaultMode::Stall => {
                std::thread::sleep(
                    deadline
                        .unwrap_or(Duration::from_millis(20))
                        .min(Duration::from_millis(20)),
                );
                Err(ShardIoError {
                    step: ShardStep::Recv,
                    kind: io::ErrorKind::TimedOut,
                    message: "injected stall past the deadline".to_owned(),
                })
            }
        }
    }
}

/// A fast policy for fault loops: one attempt, millisecond backoff.
fn fast_policy(attempts: u32) -> RemotePolicy {
    RemotePolicy {
        attempts,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        stage_deadline_ms: Some(2_000),
        eject_after: 3,
        probe_every: 2,
    }
}

/// The `persist.rs` durability matrix's error-kind list, reused here so
/// the wire layer is tortured at least as hard as the disk layer.
const ERROR_KINDS: &[io::ErrorKind] = &[
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

#[test]
fn every_errorkind_at_every_step_preserves_verdict_and_digest() {
    let _guard = store_guard();
    let task = hourglass();
    let options = PipelineOptions::default();
    let gold = golden(&task, options);
    for &step in &[ShardStep::Connect, ShardStep::Send, ShardStep::Recv] {
        for &kind in ERROR_KINDS {
            reset();
            configure_remote(
                Arc::new(FaultIo::always(2, FaultMode::Fail(step, kind))),
                fast_policy(1),
            );
            let analysis = analyze(&task, options);
            let context = format!("{kind:?} at {}", step.label());
            assert_parity(&task, &analysis, &gold, &context);
            let stats = remote_stats().expect("engine is configured");
            let step_faults = match step {
                ShardStep::Connect => stats.connect_faults,
                ShardStep::Send => stats.send_faults,
                ShardStep::Recv => stats.recv_faults,
                ShardStep::Decode => stats.decode_faults,
            };
            assert!(step_faults >= 1, "no {context} fault counted: {stats:?}");
            assert!(
                stats.local_fallbacks >= 1,
                "no local fallback under {context}: {stats:?}"
            );
            let timed_out = matches!(kind, io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock);
            assert_eq!(
                stats.timeouts > 0,
                timed_out,
                "timeout taxonomy mismatch under {context}: {stats:?}"
            );
            // Every stage the engine could not fetch is recorded as a
            // local fallback in the evidence chain — digest-excluded.
            assert!(
                analysis
                    .evidence
                    .stages
                    .iter()
                    .any(|s| s.origin == StageOrigin::LocalFallback),
                "no local-fallback origin recorded under {context}"
            );
        }
    }
    clear_remote();
}

#[test]
fn mid_response_kill_and_corruption_are_decode_faults_with_parity() {
    let _guard = store_guard();
    let task = pinwheel();
    let options = PipelineOptions::default();
    let gold = golden(&task, options);
    for (mode, context) in [
        (FaultMode::MidResponseKill, "mid-response kill"),
        (FaultMode::CorruptPayload, "corrupted artifact payload"),
    ] {
        reset();
        configure_remote(Arc::new(FaultIo::always(2, mode)), fast_policy(2));
        let analysis = analyze(&task, options);
        assert_parity(&task, &analysis, &gold, context);
        let stats = remote_stats().expect("engine is configured");
        assert!(
            stats.decode_faults >= 1,
            "no decode fault counted under {context}: {stats:?}"
        );
        assert!(
            stats.fetched == 0,
            "a corrupted payload must never be accepted under {context}: {stats:?}"
        );
        assert!(
            stats.local_fallbacks >= 1,
            "no local fallback under {context}: {stats:?}"
        );
        let traces = remote_fault_trace();
        assert!(!traces.is_empty(), "no fault trace under {context}");
        assert!(
            traces
                .iter()
                .all(|t| !t.contains('\n') && t.contains("step=decode")),
            "traces must be one-line decode records under {context}: {traces:?}"
        );
    }
    clear_remote();
}

#[test]
fn stalled_shard_times_out_retries_and_falls_back() {
    let _guard = store_guard();
    let task = two_set_agreement();
    let options = PipelineOptions::default();
    let gold = golden(&task, options);
    reset();
    configure_remote(
        Arc::new(FaultIo::always(2, FaultMode::Stall)),
        fast_policy(2),
    );
    let analysis = analyze(&task, options);
    assert_parity(&task, &analysis, &gold, "stalled shard");
    let stats = remote_stats().expect("engine is configured");
    assert!(
        stats.timeouts >= 1,
        "stall must count as timeout: {stats:?}"
    );
    assert!(stats.retries >= 1, "stall must be retried: {stats:?}");
    assert!(stats.local_fallbacks >= 1, "{stats:?}");
    clear_remote();
}

#[test]
fn partitioned_then_healed_shard_is_ejected_and_readmitted() {
    let _guard = store_guard();
    let options = PipelineOptions::default();
    let tasks = [hourglass(), consensus(3), two_set_agreement()];
    let goldens: Vec<_> = tasks.iter().map(|t| golden(t, options)).collect();
    reset();
    // The single shard refuses 12 exchanges (enough to eject at 3
    // consecutive failures), then heals.
    let io = Arc::new(FaultIo::healing_after(
        1,
        FaultMode::Fail(ShardStep::Connect, io::ErrorKind::ConnectionRefused),
        12,
    ));
    configure_remote(io, fast_policy(1));
    // Phase 1: partitioned. Every analysis degrades to local recompute.
    let partitioned = analyze(&tasks[0], options);
    assert_parity(&tasks[0], &partitioned, &goldens[0], "partitioned shard");
    let stats = remote_stats().expect("engine is configured");
    assert!(stats.ejections >= 1, "partition must eject: {stats:?}");
    // Phase 2: keep analyzing; probes burn through the remaining fault
    // budget and eventually re-admit the healed shard.
    let mut readmitted = false;
    for round in 0..20 {
        // Cold caches, but the configured engine stays.
        clear_stage_caches();
        let i = round % tasks.len();
        let analysis = analyze(&tasks[i], options);
        assert_parity(&tasks[i], &analysis, &goldens[i], "during healing");
        let stats = remote_stats().expect("engine is configured");
        if stats.readmissions >= 1 && stats.fetched >= 1 {
            readmitted = true;
            break;
        }
    }
    let stats = remote_stats().expect("engine is configured");
    assert!(
        readmitted,
        "healed shard was never probed back into rotation: {stats:?}"
    );
    assert!(stats.probes >= 1, "{stats:?}");
    clear_remote();
}

#[test]
fn healthy_pool_fans_a_library_batch_and_matches_sequential_goldens() {
    let _guard = store_guard();
    let options = PipelineOptions {
        act_fallback_rounds: 1,
    };
    // A verdict-diverse slice of the library, including the ACT
    // exploration residue (klein-squared) so the explore stage ships too.
    let tasks = vec![
        identity_task(3),
        hourglass(),
        pinwheel(),
        consensus(3),
        two_set_agreement(),
        loop_agreement("loop-klein-squared", klein_bottle_doubled_loop()),
    ];
    let goldens: Vec<_> = tasks.iter().map(|t| golden(t, options)).collect();
    reset();
    configure_remote(
        Arc::new(FaultIo::healing_after(3, FaultMode::Stall, 0)),
        fast_policy(2),
    );
    let batch = analyze_batch(&tasks, options);
    for ((task, analysis), gold) in tasks.iter().zip(&batch).zip(&goldens) {
        assert_parity(task, analysis, gold, "healthy 3-shard pool");
    }
    let stats = remote_stats().expect("engine is configured");
    assert!(
        stats.fetched >= 1,
        "a healthy pool must actually serve stages: {stats:?}"
    );
    // Shard-computed stages carry their provenance in the evidence.
    assert!(
        batch
            .iter()
            .flat_map(|a| &a.evidence.stages)
            .any(|s| { matches!(s.origin, StageOrigin::Shard { .. }) }),
        "no stage evidence records a shard origin"
    );
    clear_remote();
}

/// A healthy in-process pool that answers each request line once and
/// replays that answer afterwards. The in-process shard shares this
/// process's stage caches, so only replayed exchanges leave their
/// counters to the dispatcher alone.
struct ReplayIo {
    pool: InProcessShards,
    answers: Mutex<BTreeMap<String, String>>,
}

impl ShardIo for ReplayIo {
    fn shard_count(&self) -> usize {
        self.pool.shard_count()
    }

    fn exchange(
        &self,
        shard: usize,
        line: &str,
        deadline: Option<Duration>,
    ) -> Result<String, ShardIoError> {
        let mut answers = self.answers.lock().unwrap_or_else(PoisonError::into_inner);
        if !answers.contains_key(line) {
            answers.insert(line.to_owned(), self.pool.exchange(shard, line, deadline)?);
        }
        Ok(answers[line].clone())
    }
}

/// Decides `task` from cleared caches (clearing also zeroes the
/// counters): the analysis, and per kind the `(lookups, hits, misses)`
/// it caused, each kind's counters coherent.
fn cold_decision(task: &Task) -> (Analysis, Vec<(ArtifactKind, u64, u64, u64)>) {
    clear_stage_caches();
    let analysis = analyze(task, PipelineOptions::default());
    let counts = stage_cache_stats()
        .into_iter()
        .map(|(kind, s)| {
            assert!(s.is_coherent(), "{kind:?} incoherent: {s:?}");
            (kind, s.lookups, s.hits, s.misses)
        })
        .collect();
    (analysis, counts)
}

#[test]
fn cache_accounting_is_identical_locally_through_a_pool_and_after_fallback() {
    let _guard = store_guard();
    let task = pinwheel();
    reset();
    let local = cold_decision(&task);
    // The first pooled run records every shard answer; the second
    // replays them.
    let replay = ReplayIo {
        pool: InProcessShards::new(2),
        answers: Mutex::default(),
    };
    configure_remote(Arc::new(replay), fast_policy(1));
    let _ = cold_decision(&task);
    let healthy = cold_decision(&task);
    let dead = FaultMode::Fail(ShardStep::Connect, io::ErrorKind::ConnectionRefused);
    configure_remote(Arc::new(FaultIo::always(2, dead)), fast_policy(1));
    let faulted = cold_decision(&task);
    clear_remote();

    let gold = (
        local.0.verdict.to_string(),
        local.0.evidence.deterministic_digest(),
    );
    let shard = StageOrigin::Shard {
        shard: 0,
        attempt: 1,
    };
    for ((analysis, counts), context, origin) in [
        (&local, "local", StageOrigin::Local),
        (&healthy, "healthy pool", shard),
        (&faulted, "faulting pool", StageOrigin::LocalFallback),
    ] {
        assert_eq!(counts, &local.1, "cache counts under {context}");
        assert_parity(&task, analysis, &gold, context);
        // Canonicalization always runs live; every later stage reports
        // where its artifact came from (any shard, any attempt).
        let (first, rest) = analysis.evidence.stages.split_first().expect("stages ran");
        assert_eq!(first.origin, StageOrigin::Local, "{context}");
        for s in rest {
            let same_kind = discriminant(&s.origin) == discriminant(&origin);
            assert!(same_kind, "{context}: {} from {}", s.stage, s.origin);
        }
    }
}

#[test]
fn remote_execution_is_invisible_to_the_digest_under_every_mode() {
    // The cross-cutting invariant, pinned once more end-to-end: the
    // same task analyzed locally, via a healthy pool, and via a faulty
    // pool produces one digest.
    let _guard = store_guard();
    let task = consensus(3);
    let options = PipelineOptions::default();
    let gold = golden(&task, options);
    let modes: Vec<(Arc<dyn ShardIo>, &str)> = vec![
        (
            Arc::new(FaultIo::healing_after(2, FaultMode::Stall, 0)),
            "healthy",
        ),
        (
            Arc::new(FaultIo::always(
                2,
                FaultMode::Fail(ShardStep::Connect, io::ErrorKind::ConnectionRefused),
            )),
            "dead pool",
        ),
        (
            Arc::new(FaultIo::always(2, FaultMode::CorruptPayload)),
            "corrupting pool",
        ),
    ];
    for (io, context) in modes {
        reset();
        configure_remote(io, fast_policy(2));
        let analysis = analyze(&task, options);
        assert_parity(&task, &analysis, &gold, context);
    }
    clear_remote();
}
