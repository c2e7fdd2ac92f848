//! `chromata serve` — a long-lived, dependency-free verdict daemon.
//!
//! The server accepts newline-delimited JSON requests (see
//! [`crate::wire`]) over TCP, dispatches them through
//! [`chromata::analyze_governed`] against the process-wide warm
//! [`chromata::ArtifactStore`], and answers every request — including
//! malformed and rejected ones — with exactly one structured response
//! line. Admission control is layered:
//!
//! * **connection level** — a bounded pending-connection queue; when it
//!   is full the accept thread answers an overload response itself and
//!   closes, so a client is never silently dropped;
//! * **request level** — a [`Gate`] caps concurrent analyses; a request
//!   that cannot get a permit is answered immediately with
//!   `verdict: "UNKNOWN"` plus a `retry_after_ms` hint, within a
//!   bounded deadline rather than queueing unboundedly;
//! * **budget level** — each admitted analysis runs under a per-request
//!   [`Budget`] clamped to the server's caps, so one expensive task
//!   cannot monopolize a worker forever.
//!
//! Durability rides on the PR 5 snapshot layer: the server warm-starts
//! from `--cache-dir` on boot, persists dirty caches in the background
//! on a fixed cadence, and persists once more on graceful shutdown.
//! Because snapshots are written atomically (temp + fsync + rename), an
//! abrupt SIGKILL loses at most the last cadence interval, never the
//! on-disk history. SIGTERM/SIGINT are gentler: the CLI entry point
//! watches for them with `chromata-signal` and turns either into the
//! same graceful shutdown a wire `{"op":"shutdown"}` triggers — final
//! persist included — via [`Server::shutdown_handle`].
//!
//! Failure containment added by the chaos PR:
//!
//! * a failed snapshot (ENOSPC, short write) leaves the previous
//!   snapshot intact, flips the store into read-through degradation,
//!   and is retried on the next cadence — serving never wedges;
//! * a task whose analysis panics a worker repeatedly is quarantined
//!   by structural fingerprint and answered with a structured
//!   `UNKNOWN(poisoned)` line instead of costing more workers;
//! * shutdown drains in-flight connections under a hard deadline
//!   ([`SHUTDOWN_DRAIN_SECS`]); a stalled client cannot hold
//!   [`Server::wait`] hostage.
//!
//! This module is the **only** place in the workspace allowed to touch
//! socket types (xtask rule D4), which keeps network I/O auditable the
//! same way D2 confines clocks and D3 confines the filesystem.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use chromata::topology::govern::{Gate, Stopwatch};
use chromata::topology::structural_fingerprint;
use chromata::{
    analyze_governed, load_cache_dir, persist_failures, persist_now, stage_cache_stats,
    store_read_through, Budget, CacheDirConfig, CancelToken, LoadReport, PipelineOptions, Verdict,
};

use crate::app::CliError;
use crate::registry;
use crate::wire::{self, AnalyzeRequest, Request, TaskSpec};

/// Hard cap on bytes discarded while re-synchronizing after an
/// oversized request; a stream that exceeds it is treated as hostile
/// and closed.
const RESYNC_DRAIN_CAP: usize = 64 << 20;

/// Write timeout for response lines (seconds). A client that cannot
/// absorb one line within this window forfeits its connection; the
/// worker moves on.
const WRITE_TIMEOUT_SECS: u64 = 10;

/// Hard deadline (seconds) for draining in-flight connections after a
/// shutdown request. A worker still serving past it — e.g. pinned by a
/// stalled client holding a connection open — is abandoned rather than
/// joined, so [`Server::wait`] always returns promptly. Abandoned
/// workers hold no state the final persist needs: the store's own
/// locks recover from poisoning and snapshots are atomic.
pub const SHUTDOWN_DRAIN_SECS: u64 = 5;

/// How many analysis panics the same task (by structural fingerprint)
/// may cost before it is quarantined to an immediate structured
/// `UNKNOWN(poisoned)` answer.
const POISON_QUARANTINE_AFTER: u32 = 2;

/// Tracks tasks whose analysis panicked, keyed by structural
/// fingerprint. A fingerprint that reaches [`POISON_QUARANTINE_AFTER`]
/// panics is quarantined: the server refuses to re-run it and answers
/// with a structured poison verdict instead (the second worker death is
/// the proof the first was no fluke). The table is process-lifetime —
/// a restart retries, which is the desired behavior after a fix.
struct PoisonTable {
    panics: Mutex<BTreeMap<u64, u32>>,
}

impl PoisonTable {
    fn new() -> PoisonTable {
        PoisonTable {
            panics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records one analysis panic for `fingerprint` and returns the
    /// total observed so far.
    fn note_panic(&self, fingerprint: u64) -> u32 {
        let mut panics = lock(&self.panics);
        let count = panics.entry(fingerprint).or_insert(0);
        *count = count.saturating_add(1);
        *count
    }

    /// Whether `fingerprint` has crossed the quarantine threshold.
    fn is_quarantined(&self, fingerprint: u64) -> bool {
        lock(&self.panics)
            .get(&fingerprint)
            .is_some_and(|&count| count >= POISON_QUARANTINE_AFTER)
    }

    /// Every quarantined fingerprint, ascending (for the stats line).
    fn quarantined(&self) -> Vec<u64> {
        lock(&self.panics)
            .iter()
            .filter(|&(_, &count)| count >= POISON_QUARANTINE_AFTER)
            .map(|(&fingerprint, _)| fingerprint)
            .collect()
    }
}

/// Tuning knobs for [`Server::start`]. `Default` gives a loopback
/// server sized to the machine with persistence disabled.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address. Port 0 asks the OS for a free port; read the
    /// actual one back from [`Server::local_addr`].
    pub addr: String,
    /// Worker threads. 0 means "size to available parallelism".
    pub threads: usize,
    /// Concurrent-analysis permits (the admission gate). `None` means
    /// one per worker thread; `Some(0)` is a valid configuration that
    /// rejects every analysis with an overload response (useful for
    /// drills and tests).
    pub analysis_slots: Option<usize>,
    /// Pending-connection queue bound. `None` means `4 × threads`;
    /// `Some(0)` makes the accept thread answer every connection with
    /// an overload response.
    pub queue: Option<usize>,
    /// Per-request payload bound in bytes.
    pub max_payload: usize,
    /// Server-side per-request wall-clock cap (milliseconds); a
    /// client-requested budget is clamped to it. `None` leaves
    /// uncapped requests unlimited.
    pub budget_ms: Option<u64>,
    /// Server-side cap on a client-requested `max_states`.
    pub max_states: usize,
    /// Explicit cache directory; falls back to `CHROMATA_CACHE_DIR`,
    /// then to disabled (see [`CacheDirConfig::resolve`]).
    pub cache_dir: Option<PathBuf>,
    /// Background persistence cadence in seconds; 0 disables the
    /// background persister (boot warm-start and shutdown persist
    /// still run whenever a cache directory is configured).
    pub persist_secs: u64,
    /// Per-connection idle read timeout in seconds.
    pub idle_timeout_secs: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7437".to_owned(),
            threads: 0,
            analysis_slots: None,
            queue: None,
            max_payload: wire::DEFAULT_MAX_PAYLOAD,
            budget_ms: None,
            max_states: usize::MAX,
            cache_dir: None,
            persist_secs: 30,
            idle_timeout_secs: 30,
        }
    }
}

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// the queue and persist baton stay usable after a worker dies (they
/// hold plain data whose invariants the lock body re-establishes).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by the accept thread, workers, and persister.
struct Shared {
    addr: SocketAddr,
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    shutdown: AtomicBool,
    cancel: CancelToken,
    gate: Gate,
    cache: CacheDirConfig,
    queue_cap: usize,
    max_payload: usize,
    budget_cap_ms: Option<u64>,
    max_states_cap: usize,
    idle_timeout_secs: u64,
    persist_secs: u64,
    persist_baton: Mutex<()>,
    persist_cv: Condvar,
    served: AtomicU64,
    analyzed: AtomicU64,
    overloaded: AtomicU64,
    malformed: AtomicU64,
    dirty: AtomicU64,
    poison: PoisonTable,
}

impl Shared {
    /// Flips the shutdown flag once and wakes every blocked thread:
    /// workers (condvar), the persister (its condvar), in-flight
    /// analyses (cancel token), and the accept loop (a self-connect).
    fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.cancel.cancel();
        self.ready.notify_all();
        self.persist_cv.notify_all();
        // `incoming()` has no timeout; a loopback connect is the
        // portable way to unblock it. This path is also how SIGTERM/
        // SIGINT land: the `chromata-signal` watcher thread (wired up
        // by the CLI entry point) calls into here as ordinary code, so
        // no work happens in async-signal context.
        drop(TcpStream::connect_timeout(
            &self.addr,
            Duration::from_secs(5),
        ));
    }
}

/// A cloneable, thread-safe handle that requests a graceful shutdown
/// of the server it came from. The signal watcher holds one; embedders
/// and tests may too. Requesting shutdown more than once is harmless.
#[derive(Clone)]
pub struct ShutdownHandle(Arc<Shared>);

impl ShutdownHandle {
    /// Triggers the same graceful shutdown a wire `{"op":"shutdown"}`
    /// request does: stop accepting, drain, final persist.
    pub fn request(&self) {
        self.0.request_shutdown();
    }
}

/// A running server. Obtain one with [`Server::start`]; it keeps
/// serving until a `shutdown` request arrives, then [`Server::wait`]
/// joins the threads and runs the final persist.
pub struct Server {
    shared: Arc<Shared>,
    loaded: Option<LoadReport>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    persister: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, warm-starts the stage caches, and spawns the accept
    /// thread, worker pool, and (if configured) background persister.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound or a thread cannot spawn.
    pub fn start(opts: ServeOptions) -> Result<Server, CliError> {
        let listener = TcpListener::bind(&opts.addr)
            .map_err(|e| CliError(format!("serve: cannot bind {}: {e}", opts.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CliError(format!("serve: cannot read bound address: {e}")))?;
        let cache = CacheDirConfig::resolve(opts.cache_dir.clone());
        let loaded = load_cache_dir(&cache);
        let threads = if opts.threads == 0 {
            std::thread::available_parallelism().map_or(4, usize::from)
        } else {
            opts.threads
        };
        let slots = opts.analysis_slots.unwrap_or(threads);
        let queue_cap = opts.queue.unwrap_or(threads.saturating_mul(4));
        let shared = Arc::new(Shared {
            addr,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cancel: CancelToken::new(),
            gate: Gate::new(slots),
            cache,
            queue_cap,
            max_payload: opts.max_payload,
            budget_cap_ms: opts.budget_ms,
            max_states_cap: opts.max_states,
            idle_timeout_secs: opts.idle_timeout_secs,
            persist_secs: opts.persist_secs,
            persist_baton: Mutex::new(()),
            persist_cv: Condvar::new(),
            served: AtomicU64::new(0),
            analyzed: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            dirty: AtomicU64::new(0),
            poison: PoisonTable::new(),
        });
        let spawn_err = |e: std::io::Error| CliError(format!("serve: cannot spawn thread: {e}"));
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("chromata-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(spawn_err)?
        };
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("chromata-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(spawn_err)?,
            );
        }
        let persister = if shared.cache.is_enabled() && opts.persist_secs > 0 {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("chromata-persist".to_owned())
                    .spawn(move || persist_loop(&shared))
                    .map_err(spawn_err)?,
            )
        } else {
            None
        };
        Ok(Server {
            shared,
            loaded,
            accept: Some(accept),
            workers,
            persister,
        })
    }

    /// The address the server actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The warm-start report, if a cache directory was configured.
    #[must_use]
    pub fn loaded(&self) -> Option<&LoadReport> {
        self.loaded.as_ref()
    }

    /// Triggers a graceful shutdown from outside (tests, embedding).
    /// Equivalent to a wire `{"op":"shutdown"}` request.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// A detachable handle for requesting shutdown from another thread
    /// — the signal watcher cannot borrow the server it must stop,
    /// because [`Server::wait`] consumes it.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared))
    }

    /// Blocks until the server shuts down, joins every thread, runs the
    /// final persist, and returns a one-paragraph summary.
    ///
    /// Worker joins are bounded by [`SHUTDOWN_DRAIN_SECS`]: in-flight
    /// requests get that long to finish, then stalled workers (e.g.
    /// pinned by a client that opened a connection and went silent) are
    /// abandoned and counted in the summary. Without the bound, one
    /// stalled client could hold `wait` hostage for a full idle-timeout
    /// window — or forever, if it keeps trickling bytes.
    #[must_use]
    pub fn wait(mut self) -> String {
        if let Some(accept) = self.accept.take() {
            drop(accept.join());
        }
        let drain = Stopwatch::start();
        let mut workers: Vec<JoinHandle<()>> = self.workers.drain(..).collect();
        loop {
            let (finished, running): (Vec<_>, Vec<_>) =
                workers.into_iter().partition(JoinHandle::is_finished);
            for worker in finished {
                drop(worker.join());
            }
            workers = running;
            if workers.is_empty() || drain.elapsed() >= Duration::from_secs(SHUTDOWN_DRAIN_SECS) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let stalled = workers.len();
        // Dropping the handles detaches the stalled workers; they exit
        // on their own once their client disconnects or times out.
        drop(workers);
        if let Some(persister) = self.persister.take() {
            drop(persister.join());
        }
        let mut persisted = String::new();
        if self.shared.cache.is_enabled() {
            match persist_now(&self.shared.cache) {
                Some(Ok(report)) => {
                    persisted = format!(
                        "; persisted {} entr(ies) across {} file(s)",
                        report.entries_written, report.files_written
                    );
                }
                Some(Err(e)) => persisted = format!("; final persist failed: {e}"),
                None => {}
            }
        }
        let shared = &self.shared;
        let abandoned = if stalled > 0 {
            format!("; abandoned {stalled} stalled connection(s)")
        } else {
            String::new()
        };
        format!(
            "serve: stopped after {} request(s) ({} analyzed, {} overloaded, {} malformed){persisted}{abandoned}",
            shared.served.load(Ordering::Relaxed),
            shared.analyzed.load(Ordering::Relaxed),
            shared.overloaded.load(Ordering::Relaxed),
            shared.malformed.load(Ordering::Relaxed),
        )
    }
}

/// Accepts connections and hands them to the worker pool, answering an
/// overload response inline when the pending queue is at its bound.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let mut queue = lock(&shared.queue);
        if queue.len() >= shared.queue_cap {
            let hint = wire::overload_retry_hint(queue.len(), shared.gate.in_flight());
            drop(queue);
            shared.overloaded.fetch_add(1, Ordering::Relaxed);
            shared.served.fetch_add(1, Ordering::Relaxed);
            reject_connection(stream, shared.queue_cap, hint);
        } else {
            queue.push_back(stream);
            drop(queue);
            shared.ready.notify_one();
        }
    }
}

/// Answers a connection the queue cannot hold: one overload line within
/// a bounded write deadline, then close. Responding beats dropping —
/// the client learns it should back off instead of hanging.
fn reject_connection(mut stream: TcpStream, queue_cap: usize, retry_after_ms: u64) {
    drop(stream.set_write_timeout(Some(Duration::from_secs(WRITE_TIMEOUT_SECS))));
    drop(stream.set_read_timeout(Some(Duration::from_secs(2))));
    let line = wire::overload_response(
        &format!("server overloaded: pending-connection queue is full ({queue_cap})"),
        retry_after_ms,
    );
    drop(stream.write_all(line.as_bytes()));
    drop(stream.write_all(b"\n"));
    drop(stream.flush());
    // Send FIN but keep reading: closing with the client's request
    // still in flight would RST the connection and can discard the
    // response from the client's receive buffer. Drain (bounded) until
    // the client finishes, so the reject is actually delivered.
    drop(stream.shutdown(std::net::Shutdown::Write));
    let mut sink = [0u8; 1024];
    let mut drained = 0usize;
    while let Ok(n) = stream.read(&mut sink) {
        if n == 0 {
            break;
        }
        drained = drained.saturating_add(n);
        if drained > wire::DEFAULT_MAX_PAYLOAD {
            break;
        }
    }
}

/// A worker: pop a connection, serve it to completion, repeat. Returns
/// when shutdown is flagged and the queue has drained.
fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            // chromata-lint: allow(L2): Condvar::wait releases the queue
            // guard atomically while blocked; the `wait` edge the pass
            // follows is a name collision with `Server::wait`.
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        handle_connection(stream, shared);
    }
}

/// Outcome of reading one request line.
enum LineError {
    /// The line exceeded the payload bound. `resynced` says whether the
    /// stream was drained to the next newline (keep the connection) or
    /// not (close it).
    Oversized { resynced: bool },
    /// The read deadline elapsed. `partial` distinguishes a slow-loris
    /// client stalled mid-line (answer a structured timeout error, then
    /// close) from an idle connection between requests (close quietly).
    TimedOut { partial: bool },
    /// Disconnect or non-UTF-8 input: close the connection.
    Io,
}

/// Reads one `\n`-terminated line without ever buffering more than the
/// payload bound plus one internal chunk. The socket's read timeout
/// doubles as the per-line deadline: a client that trickles a partial
/// line and stalls is cut off within one timeout window, freeing the
/// worker (slow-loris guard).
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
) -> Result<Option<String>, LineError> {
    let mut buf = Vec::new();
    loop {
        let chunk = reader.fill_buf().map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                LineError::TimedOut {
                    partial: !buf.is_empty(),
                }
            } else {
                LineError::Io
            }
        })?;
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            // EOF mid-line: serve the unterminated tail as a request so
            // `printf '{...}' | nc` style clients still get an answer.
            return String::from_utf8(buf).map(Some).map_err(|_| LineError::Io);
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..pos]);
            reader.consume(pos + 1);
            if buf.len() > max {
                return Err(LineError::Oversized { resynced: true });
            }
            return String::from_utf8(buf).map(Some).map_err(|_| LineError::Io);
        }
        let n = chunk.len();
        buf.extend_from_slice(chunk);
        reader.consume(n);
        if buf.len() > max {
            return Err(LineError::Oversized {
                resynced: drain_to_newline(reader),
            });
        }
    }
}

/// Discards bytes until the next newline so the connection can keep
/// serving after an oversized request. Gives up (returns `false`) on
/// I/O errors, EOF, or after [`RESYNC_DRAIN_CAP`] bytes.
fn drain_to_newline(reader: &mut BufReader<TcpStream>) -> bool {
    let mut drained = 0usize;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(_) => return false,
        };
        if chunk.is_empty() {
            return false;
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            reader.consume(pos + 1);
            return true;
        }
        let n = chunk.len();
        reader.consume(n);
        drained = drained.saturating_add(n);
        if drained > RESYNC_DRAIN_CAP {
            return false;
        }
    }
}

/// Serves one connection until EOF, idle timeout, an unrecoverable
/// framing error, or shutdown. Every request — well-formed or not —
/// gets exactly one response line.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    drop(stream.set_read_timeout(Some(Duration::from_secs(shared.idle_timeout_secs))));
    drop(stream.set_write_timeout(Some(Duration::from_secs(WRITE_TIMEOUT_SECS))));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            drop(write_line(
                &mut writer,
                &wire::error_response("server shutting down"),
            ));
            return;
        }
        match read_bounded_line(&mut reader, shared.max_payload) {
            Ok(None) => return,
            Ok(Some(line)) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                shared.served.fetch_add(1, Ordering::Relaxed);
                let (response, wants_shutdown) = dispatch(line, shared);
                if write_line(&mut writer, &response).is_err() {
                    return;
                }
                if wants_shutdown {
                    shared.request_shutdown();
                    return;
                }
            }
            Err(LineError::Oversized { resynced }) => {
                shared.served.fetch_add(1, Ordering::Relaxed);
                shared.malformed.fetch_add(1, Ordering::Relaxed);
                let response = wire::error_response(&format!(
                    "payload exceeds the {}-byte limit",
                    shared.max_payload
                ));
                if write_line(&mut writer, &response).is_err() || !resynced {
                    return;
                }
            }
            Err(LineError::TimedOut { partial }) => {
                if partial {
                    // Slow loris: a partial line was trickled in, then
                    // nothing. Answer a structured timeout so the client
                    // knows what happened, then free the worker.
                    shared.served.fetch_add(1, Ordering::Relaxed);
                    shared.malformed.fetch_add(1, Ordering::Relaxed);
                    drop(write_line(
                        &mut writer,
                        &wire::error_response(&format!(
                            "read timed out after {}s with a partial request; closing connection",
                            shared.idle_timeout_secs
                        )),
                    ));
                }
                return;
            }
            Err(LineError::Io) => return,
        }
    }
}

fn write_line(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Routes one parsed request line to its handler. Returns the response
/// plus whether a graceful shutdown should follow it.
fn dispatch(line: &str, shared: &Shared) -> (String, bool) {
    match wire::parse_request(line, shared.max_payload) {
        Err(e) => {
            shared.malformed.fetch_add(1, Ordering::Relaxed);
            (wire::error_response(&e.0), false)
        }
        Ok(Request::Ping) => (wire::pong_response(), false),
        Ok(Request::Stats) => {
            let caches = stage_cache_stats()
                .iter()
                .map(|(kind, stats)| wire::cache_stats_value(kind.name(), stats))
                .collect();
            let health = wire::HealthStats {
                persist_failures: persist_failures(),
                read_through: store_read_through(),
                quarantined: shared.poison.quarantined(),
            };
            (
                wire::stats_response(
                    shared.served.load(Ordering::Relaxed),
                    shared.analyzed.load(Ordering::Relaxed),
                    shared.overloaded.load(Ordering::Relaxed),
                    shared.malformed.load(Ordering::Relaxed),
                    shared.gate.in_flight(),
                    &health,
                    caches,
                ),
                false,
            )
        }
        Ok(Request::Persist) => match persist_now(&shared.cache) {
            None => (wire::error_response("no cache directory configured"), false),
            Some(Ok(report)) => {
                shared.dirty.store(0, Ordering::Release);
                (
                    wire::persist_response(report.entries_written, report.files_written as u64),
                    false,
                )
            }
            Some(Err(e)) => (wire::error_response(&format!("persist failed: {e}")), false),
        },
        Ok(Request::Shutdown) => (wire::shutdown_response(), true),
        Ok(Request::Analyze(req)) => (handle_analyze(req, shared), false),
        Ok(Request::Stage(job)) => (handle_stage(&job, shared), false),
    }
}

/// Executes one verdict-engine stage under the admission gate (worker
/// mode). The response line — artifact plus checksum — is built by the
/// socket-free core layer; a panic costs one response, not one worker.
fn handle_stage(job: &chromata::StageJob, shared: &Shared) -> String {
    let Some(_permit) = shared.gate.try_enter() else {
        shared.overloaded.fetch_add(1, Ordering::Relaxed);
        let hint = wire::overload_retry_hint(lock(&shared.queue).len(), shared.gate.in_flight());
        return wire::overload_response(
            &format!(
                "worker overloaded: all {} analysis slot(s) in flight",
                shared.gate.capacity()
            ),
            hint,
        );
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        chromata::execute_stage_line(job)
    }));
    match outcome {
        Err(_) => wire::error_response(&format!(
            "internal: stage `{}` panicked; the worker recovered",
            job.kind
        )),
        Ok(Err(e)) => wire::error_response(&e),
        Ok(Ok(line)) => {
            shared.analyzed.fetch_add(1, Ordering::Relaxed);
            shared.dirty.fetch_add(1, Ordering::Relaxed);
            line
        }
    }
}

/// Runs one admitted analysis, or answers the structured reject.
fn handle_analyze(req: AnalyzeRequest, shared: &Shared) -> String {
    let task = match req.task {
        TaskSpec::Named(name) => match registry::find(&name) {
            Some(task) => task,
            None => {
                shared.malformed.fetch_add(1, Ordering::Relaxed);
                return wire::error_response(&format!(
                    "unknown library task `{name}` (see `chromata list`)"
                ));
            }
        },
        TaskSpec::Inline(task) => *task,
    };
    if let Err(message) = chromata::check_process_count(&task) {
        // `analyze_governed` asserts this; pre-checking keeps the
        // worker alive and the rejection structured.
        shared.malformed.fetch_add(1, Ordering::Relaxed);
        return wire::error_response(&message);
    }
    // Poison quarantine: a task that already cost two workers a panic
    // is answered immediately, before it can take an analysis slot.
    let fingerprint = structural_fingerprint(&task);
    if shared.poison.is_quarantined(fingerprint) {
        return wire::poisoned_response(task.name(), fingerprint);
    }
    let Some(_permit) = shared.gate.try_enter() else {
        shared.overloaded.fetch_add(1, Ordering::Relaxed);
        let hint = wire::overload_retry_hint(lock(&shared.queue).len(), shared.gate.in_flight());
        return wire::overload_response(
            &format!(
                "server overloaded: all {} analysis slot(s) in flight",
                shared.gate.capacity()
            ),
            hint,
        );
    };
    let effective_ms = match (req.budget_ms, shared.budget_cap_ms) {
        (Some(requested), Some(cap)) => Some(requested.min(cap)),
        (Some(requested), None) => Some(requested),
        (None, cap) => cap,
    };
    let mut budget = Budget::unlimited();
    if let Some(ms) = effective_ms {
        budget = budget.with_deadline_in(Duration::from_millis(ms));
    }
    if let Some(states) = req.max_states {
        budget = budget.with_max_states(states.min(shared.max_states_cap));
    }
    let options = PipelineOptions {
        act_fallback_rounds: req.act_fallback,
    };
    let clock = Stopwatch::start();
    // A panic in the analysis pipeline must cost one response, not one
    // worker: catch it and answer a structured internal error. The
    // store's locks recover from poisoning (see `SharedCache`).
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        analyze_governed(&task, options, &budget, &shared.cancel)
    }));
    let wall_ms = clock.elapsed().as_secs_f64() * 1000.0;
    match outcome {
        Err(_) => {
            let count = shared.poison.note_panic(fingerprint);
            let quarantined = if count >= POISON_QUARANTINE_AFTER {
                "; the task is now quarantined"
            } else {
                ""
            };
            wire::error_response(&format!(
                "internal: analysis of `{}` panicked; the worker recovered{quarantined}",
                task.name()
            ))
        }
        Ok(analysis) => {
            shared.analyzed.fetch_add(1, Ordering::Relaxed);
            shared.dirty.fetch_add(1, Ordering::Relaxed);
            // A budget-induced UNKNOWN carries a retry hint: come back
            // after roughly twice the budget that just ran out.
            let retry_after_ms = match (&analysis.verdict, effective_ms) {
                (Verdict::Unknown { .. }, Some(ms)) => Some(ms.saturating_mul(2).max(50)),
                _ => None,
            };
            wire::analyze_response(
                task.name(),
                &analysis.verdict,
                analysis.evidence.decided_by,
                analysis.evidence.deterministic_digest(),
                wall_ms,
                retry_after_ms,
            )
        }
    }
}

/// Background persister: every `persist_secs`, snapshot the caches if
/// any analysis completed since the last snapshot. Persist failures are
/// counted and retried next tick, never fatal.
fn persist_loop(shared: &Shared) {
    // chromata-lint: allow(L2): the baton exists to serialize the single
    // persister thread; holding it across the snapshot is its purpose,
    // and no request path ever contends on it.
    let mut baton = lock(&shared.persist_baton);
    loop {
        let (guard, _timeout) = shared
            .persist_cv
            .wait_timeout(baton, Duration::from_secs(shared.persist_secs))
            .unwrap_or_else(PoisonError::into_inner);
        baton = guard;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.dirty.swap(0, Ordering::AcqRel) == 0 {
            continue;
        }
        if let Some(Err(_)) = persist_now(&shared.cache) {
            // The snapshot failed after `dirty` was already swapped to
            // zero; re-mark it so the next cadence retries instead of
            // silently dropping the delta until another request lands.
            shared.dirty.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One-shot client: connect, send one request line, read one response
/// line. Backs `chromata request` and the e2e tests; lives here so
/// sockets stay confined to this module (rule D4).
///
/// # Errors
///
/// Fails on connect/write/read errors or an empty response.
pub fn request_line(addr: &str, line: &str, timeout_secs: u64) -> Result<String, CliError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| CliError(format!("request: cannot connect to {addr}: {e}")))?;
    drop(stream.set_read_timeout(Some(Duration::from_secs(timeout_secs))));
    drop(stream.set_write_timeout(Some(Duration::from_secs(timeout_secs))));
    let mut writer = stream
        .try_clone()
        .map_err(|e| CliError(format!("request: cannot clone stream: {e}")))?;
    // A failed write is not yet a failed request: an admission-control
    // reject may have answered-and-FINed before reading our bytes, so
    // the response can already be in flight. Try the read regardless.
    let write_result = writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush());
    let mut response = String::new();
    let read_result = BufReader::new(stream).read_line(&mut response);
    if response.trim().is_empty() {
        if let Err(e) = write_result {
            return Err(CliError(format!("request: write failed: {e}")));
        }
        if let Err(e) = read_result {
            return Err(CliError(format!("request: read failed: {e}")));
        }
        return Err(CliError(
            "request: the server closed the connection without a response".to_owned(),
        ));
    }
    Ok(response.trim_end().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poison_table_quarantines_after_two_panics() {
        let table = PoisonTable::new();
        assert!(!table.is_quarantined(7));
        assert_eq!(table.note_panic(7), 1);
        assert!(
            !table.is_quarantined(7),
            "one panic may be a budget fluke; no quarantine yet"
        );
        assert_eq!(table.note_panic(7), 2);
        assert!(table.is_quarantined(7));
        assert!(!table.is_quarantined(8), "fingerprints are independent");
        assert_eq!(table.quarantined(), vec![7]);
    }

    #[test]
    fn poison_table_lists_quarantined_fingerprints_sorted() {
        let table = PoisonTable::new();
        for fp in [42u64, 3, 99] {
            table.note_panic(fp);
            table.note_panic(fp);
        }
        table.note_panic(1); // below threshold: not listed
        assert_eq!(table.quarantined(), vec![3, 42, 99]);
    }
}
