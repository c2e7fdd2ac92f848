//! Failure-free schedulers over asynchronous processes.
//!
//! Processes are deterministic state machines taking one atomic shared-
//! memory operation per step (§2.1). The *exhaustive* scheduler
//! [`explore`] enumerates every interleaving (and every internal
//! nondeterministic branch, used by the adversarial oracle), collecting
//! the set of reachable terminal outcomes; [`find_violation`] stops at
//! the first outcome a predicate rejects. Both are the zero-crash case
//! of the one model checker, [`crate::fault::explore_crash`], which
//! stores each visited state as a row of interned ids and steps each
//! distinct (process state, memory) pair once. This is strictly
//! stronger than testing on real hardware: a property checked here
//! holds on **all** schedules. [`replay`] and [`run_random`] run one
//! schedule.
//!
//! Every failure mode is structured: budget exhaustion, cooperative
//! cancellation, stuck processes and panicking workers all surface as
//! [`ExploreError`] variants carrying a **replayable [`Trace`]** — the
//! exact schedule (steps plus injected crash faults) that reproduces the
//! failing state from the initial configuration, rendered as a one-line
//! string (see [`Trace`]'s `Display`/`FromStr`).

use std::collections::BTreeSet;
use std::hash::Hash;
use std::ops::ControlFlow;
use std::str::FromStr;
use std::sync::Arc;

use chromata_topology::{Budget, CancelToken, Interrupt, Vertex};

use crate::fault::{explore_crash, walk, CrashOutcome};
use crate::memory::Memory;

/// An asynchronous process: a deterministic (up to explicit branching)
/// state machine performing one atomic operation per step.
///
/// States are hashed for memoization, so implementations must keep
/// `Hash` consistent with `Eq` (derive both).
///
/// [`Process::step`] must be a pure function of `(self, config,
/// memory)`. The model checker steps every live undecided process of
/// each state it expands, but calls `step` only once per distinct
/// (process state, memory) pair and replays the memoized successors
/// wherever that pair recurs.
pub trait Process: Clone + Ord + Hash {
    /// Shared immutable configuration (the task, oracle strategy, …) —
    /// excluded from the memoized state.
    type Config;

    /// The decided output, if the process has terminated.
    fn decided(&self) -> Option<&Vertex>;

    /// Performs one atomic step, returning every possible successor
    /// (more than one only for nondeterministic steps such as oracle
    /// calls). Must return an empty vector only when decided, and must
    /// depend on nothing but `self`, `config` and `memory`.
    fn step(&self, config: &Self::Config, memory: &Memory) -> Vec<(Self, Memory)>;

    /// Whether this process has taken at least one step. Used by the
    /// crash-fault analysis (`fault`) to decide *participation*:
    /// a process that crashes before its first step never announced its
    /// input, so correctness is judged against the remaining participants
    /// only. The default is conservatively `true` (always counted as a
    /// participant), which is sound for any implementation.
    fn has_started(&self) -> bool {
        true
    }
}

/// A terminal outcome: the decided vertex of each process, in process
/// order.
pub type Outcome = Vec<Vertex>;

/// The result of exhaustive exploration.
#[derive(Clone, Debug)]
pub struct Explored {
    /// Every reachable terminal outcome.
    pub outcomes: BTreeSet<Outcome>,
    /// Number of distinct (process states, memory) system states visited.
    pub states: usize,
}

/// One event of a recorded schedule.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum TraceEvent {
    /// A process took one atomic step, choosing the given successor
    /// branch (0 for deterministic steps).
    Step {
        /// Index of the process that took the step.
        process: usize,
        /// Index of the successor branch chosen.
        branch: usize,
    },
    /// A process crashed (permanently stops taking steps).
    Crash {
        /// Index of the crashed process.
        process: usize,
    },
}

/// A recorded schedule: the exact step sequence plus injected crash
/// faults. Replayable via [`replay`] (failure-free traces) or
/// [`crate::fault::replay_trace`] (traces with crashes).
///
/// The `Display`/`FromStr` pair is a compact one-line format suitable for
/// bug reports: steps are `process.branch`, crashes are `!process`,
/// separated by spaces; the empty trace is `-`. Example: `0.0 1.2 !2 0.1`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct Trace(pub Vec<TraceEvent>);

impl Trace {
    /// Number of events (steps and crashes) in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl std::fmt::Display for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_empty() {
            return write!(f, "-");
        }
        for (k, ev) in self.0.iter().enumerate() {
            if k > 0 {
                write!(f, " ")?;
            }
            match ev {
                TraceEvent::Step { process, branch } => write!(f, "{process}.{branch}")?,
                TraceEvent::Crash { process } => write!(f, "!{process}")?,
            }
        }
        Ok(())
    }
}

impl FromStr for Trace {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "-" {
            return Ok(Trace::default());
        }
        let mut events = Vec::new();
        for tok in s.split_whitespace() {
            if let Some(p) = tok.strip_prefix('!') {
                let process = p.parse().map_err(|_| format!("bad crash event `{tok}`"))?;
                events.push(TraceEvent::Crash { process });
            } else {
                let (p, b) = tok
                    .split_once('.')
                    .ok_or_else(|| format!("bad step event `{tok}` (want `proc.branch`)"))?;
                let process = p.parse().map_err(|_| format!("bad process in `{tok}`"))?;
                let branch = b.parse().map_err(|_| format!("bad branch in `{tok}`"))?;
                events.push(TraceEvent::Step { process, branch });
            }
        }
        Ok(Trace(events))
    }
}

/// Errors from exploration. Every variant that can point at a concrete
/// schedule carries a replayable [`Trace`] to the offending state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExploreError {
    /// The state budget was exhausted; the trace reaches one of the
    /// still-unexplored frontier states.
    StateBudgetExceeded {
        /// The state budget that was exceeded.
        max_states: usize,
        /// Schedule reaching a frontier state at the budget boundary.
        trace: Trace,
    },
    /// A process ran for more steps than the bound without deciding
    /// (possible livelock or runaway).
    StepBoundExceeded(usize),
    /// An undecided, non-crashed process returned no successors — it can
    /// never decide on this schedule.
    StuckProcess {
        /// Index of the stuck process.
        pid: usize,
        /// Schedule reaching the stuck state.
        trace: Trace,
    },
    /// A process `step` (or other worker code) panicked; the panic was
    /// caught and converted into this structured error.
    WorkerPanicked {
        /// The panic payload rendered as text.
        message: String,
        /// Schedule reaching the state whose expansion panicked.
        trace: Trace,
    },
    /// The exploration was cancelled or ran past its deadline.
    Interrupted {
        /// Whether cancellation or the deadline fired.
        interrupt: Interrupt,
        /// Distinct states visited before interruption.
        states: usize,
        /// Schedule reaching one in-flight frontier state (partial
        /// diagnostic; empty if interruption hit before the first level).
        trace: Trace,
    },
    /// A replayed trace does not belong to this system (references a
    /// decided/crashed process or an out-of-range branch).
    InvalidTrace {
        /// Index of the offending event.
        at: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A decision map under execution has no assignment for a reachable
    /// protocol vertex, so the run cannot decide.
    IncompleteDecisionMap {
        /// The unmapped vertex, rendered as text.
        vertex: String,
    },
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::StateBudgetExceeded { max_states, trace } => write!(
                f,
                "exploration exceeded the state budget of {max_states}; frontier trace: {trace}"
            ),
            ExploreError::StepBoundExceeded(n) => {
                write!(f, "a run exceeded {n} steps without terminating")
            }
            ExploreError::StuckProcess { pid, trace } => write!(
                f,
                "process {pid} is undecided but has no successors; trace: {trace}"
            ),
            ExploreError::WorkerPanicked { message, trace } => {
                write!(f, "worker panicked ({message}); trace: {trace}")
            }
            ExploreError::Interrupted {
                interrupt,
                states,
                trace,
            } => write!(
                f,
                "exploration {interrupt} after {states} states; frontier trace: {trace}"
            ),
            ExploreError::InvalidTrace { at, reason } => {
                write!(f, "invalid trace at event {at}: {reason}")
            }
            ExploreError::IncompleteDecisionMap { vertex } => {
                write!(
                    f,
                    "decision map has no assignment for protocol vertex {vertex}"
                )
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// A persistent (structurally shared) schedule suffix: each explored
/// state keeps an `Arc` link to its parent's trace, so recording costs
/// one small allocation per state and full traces are materialized only
/// on error paths.
pub(crate) type TraceLink = Option<Arc<TraceNode>>;

/// One node of the shared trace list.
pub(crate) struct TraceNode {
    event: TraceEvent,
    parent: TraceLink,
}

/// Extends a trace link by one event.
pub(crate) fn trace_push(parent: &TraceLink, event: TraceEvent) -> TraceLink {
    Some(Arc::new(TraceNode {
        event,
        parent: parent.clone(),
    }))
}

/// Materializes a linked trace into an ordered [`Trace`].
pub(crate) fn trace_collect(link: &TraceLink) -> Trace {
    let mut events = Vec::new();
    let mut cur = link;
    while let Some(node) = cur {
        events.push(node.event);
        cur = &node.parent;
    }
    events.reverse();
    Trace(events)
}

/// Exhaustively explores all interleavings (and internal branches) from
/// the initial system state, memoizing visited states: the failure-free
/// case (`max_crashes = 0`) of [`explore_crash`], whose outcomes are all
/// complete.
///
/// Unlimited except for `max_states` and `max_depth`; call
/// [`explore_crash`] directly for deadline- and cancellation-aware
/// exploration.
///
/// # Errors
///
/// Returns an error if more than `max_states` distinct states are
/// visited, or some path exceeds `max_depth` steps without terminating.
pub fn explore<P>(
    processes: Vec<P>,
    memory: Memory,
    config: &P::Config,
    max_states: usize,
    max_depth: usize,
) -> Result<Explored, ExploreError>
where
    P: Process + Send + Sync,
    P::Config: Sync,
{
    let explored = explore_crash(
        processes,
        memory,
        config,
        &Budget::unlimited()
            .with_max_states(max_states)
            .with_max_steps(max_depth),
        &CancelToken::new(),
        0,
    )?;
    Ok(Explored {
        outcomes: explored
            .outcomes
            .iter()
            .filter_map(CrashOutcome::complete)
            .collect(),
        states: explored.states,
    })
}

/// Searches all interleavings for a terminal outcome violating
/// `acceptable`, returning the exact schedule that produces it — the
/// model checker's counterexample extractor. The search is the
/// failure-free breadth-first one of [`explore`], stopped at the first
/// rejected outcome, so the schedule is a shortest one.
///
/// Returns `None` if every reachable terminal outcome is acceptable.
///
/// # Errors
///
/// Returns an error when the budgets are exceeded (same as [`explore`]).
pub fn find_violation<P, F>(
    processes: Vec<P>,
    memory: Memory,
    config: &P::Config,
    max_states: usize,
    max_depth: usize,
    mut acceptable: F,
) -> Result<Option<(Trace, Outcome)>, ExploreError>
where
    P: Process + Send + Sync,
    P::Config: Sync,
    F: FnMut(&Outcome) -> bool,
{
    let mut violation = None;
    walk(
        processes,
        memory,
        config,
        &Budget::unlimited()
            .with_max_states(max_states)
            .with_max_steps(max_depth),
        &CancelToken::new(),
        0,
        |outcome, trace| match outcome.complete() {
            Some(outcome) if !acceptable(&outcome) => {
                violation = Some((trace_collect(trace), outcome));
                ControlFlow::Break(())
            }
            _ => ControlFlow::Continue(()),
        },
    )?;
    Ok(violation)
}

/// Replays a recorded failure-free trace exactly, returning the outcome.
///
/// Traces containing crash events are replayed with
/// [`crate::fault::replay_trace`], which returns the partial outcome.
///
/// # Errors
///
/// Returns [`ExploreError::StepBoundExceeded`] if the trace ends before
/// all processes decide, and [`ExploreError::InvalidTrace`] if an event
/// references a decided/crashed process or an out-of-range branch (the
/// trace does not belong to this system).
pub fn replay<P: Process>(
    processes: Vec<P>,
    memory: Memory,
    config: &P::Config,
    trace: &Trace,
) -> Result<Outcome, ExploreError> {
    let partial = crate::fault::replay_trace(processes, memory, config, trace)?;
    partial
        .complete()
        .ok_or(ExploreError::StepBoundExceeded(trace.len()))
}

/// Runs a single pseudo-random schedule (uniform choice among undecided
/// processes; nondeterministic branches resolved uniformly), returning
/// the outcome.
///
/// # Errors
///
/// Returns [`ExploreError::StepBoundExceeded`] if the run does not
/// terminate within `max_steps`, and [`ExploreError::StuckProcess`] if an
/// undecided process has no successors.
pub fn run_random<P: Process>(
    processes: Vec<P>,
    memory: Memory,
    config: &P::Config,
    seed: u64,
    max_steps: usize,
) -> Result<Outcome, ExploreError> {
    let (_, partial) = crate::fault::run_random_faulted(
        processes,
        memory,
        config,
        seed,
        max_steps,
        &crate::fault::FaultPlan::none(),
    )?;
    partial
        .complete()
        .ok_or(ExploreError::StepBoundExceeded(max_steps))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cell::Cell;

    /// A toy process: writes its id, scans, decides on the count of
    /// writers it saw (encoded as a vertex value).
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub(crate) struct Toy {
        pub(crate) id: usize,
        pub(crate) phase: u8,
        pub(crate) decided: Option<Vertex>,
    }

    impl Process for Toy {
        type Config = ();

        fn decided(&self) -> Option<&Vertex> {
            self.decided.as_ref()
        }

        fn has_started(&self) -> bool {
            self.phase > 0
        }

        fn step(&self, (): &(), memory: &Memory) -> Vec<(Self, Memory)> {
            match self.phase {
                0 => {
                    let mut m = memory.clone();
                    m.update("r", self.id, Cell::Int(1));
                    vec![(
                        Toy {
                            phase: 1,
                            ..self.clone()
                        },
                        m,
                    )]
                }
                _ => {
                    let seen = memory.present("r").len() as i64;
                    vec![(
                        Toy {
                            decided: Some(Vertex::of(self.id as u8, seen)),
                            ..self.clone()
                        },
                        memory.clone(),
                    )]
                }
            }
        }
    }

    pub(crate) fn toys(n: usize) -> (Vec<Toy>, Memory) {
        (
            (0..n)
                .map(|id| Toy {
                    id,
                    phase: 0,
                    decided: None,
                })
                .collect(),
            Memory::with_objects(&["r"], n),
        )
    }

    #[test]
    fn exhaustive_finds_all_view_combinations() {
        let (procs, mem) = toys(2);
        let r = explore(procs, mem, &(), 10_000, 100).expect("small system");
        // Each process sees 1 or 2 writes, but not both seeing 1 (the
        // later scanner must see both writes).
        let as_counts: BTreeSet<Vec<i64>> = r
            .outcomes
            .iter()
            .map(|o| o.iter().map(|v| v.value().as_int().unwrap()).collect())
            .collect();
        assert!(as_counts.contains(&vec![1, 2]));
        assert!(as_counts.contains(&vec![2, 1]));
        assert!(as_counts.contains(&vec![2, 2]));
        assert!(!as_counts.contains(&vec![1, 1]), "impossible outcome");
        assert_eq!(as_counts.len(), 3);
    }

    #[test]
    fn random_runs_terminate_and_agree_with_exhaustive() {
        let (procs, mem) = toys(3);
        let all = explore(procs.clone(), mem.clone(), &(), 100_000, 1000)
            .expect("small system")
            .outcomes;
        for seed in 0..50 {
            let o = run_random(procs.clone(), mem.clone(), &(), seed, 1000).expect("terminates");
            assert!(
                all.contains(&o),
                "random outcome {o:?} not in exhaustive set"
            );
        }
    }

    #[test]
    fn schedule_runner_is_deterministic() {
        let (procs, mem) = toys(2);
        let schedule: Trace = "0.0 0.0 1.0 1.0".parse().unwrap();
        let a = replay(procs.clone(), mem.clone(), &(), &schedule).unwrap();
        let b = replay(procs, mem, &(), &schedule).unwrap();
        assert_eq!(a, b);
        // P0 runs solo first: sees only itself.
        assert_eq!(a[0].value().as_int(), Some(1));
        assert_eq!(a[1].value().as_int(), Some(2));
    }

    #[test]
    fn violation_finder_returns_replayable_traces() {
        // Ask for an impossible property: "P0 always sees 2 writers" —
        // the solo-start schedule violates it; the returned trace must
        // replay to the same outcome.
        let (procs, mem) = toys(2);
        let found = find_violation(procs.clone(), mem.clone(), &(), 10_000, 100, |o| {
            o[0].value().as_int() == Some(2)
        })
        .expect("within budget");
        let (trace, outcome) = found.expect("a violating schedule exists");
        assert_eq!(outcome[0].value().as_int(), Some(1));
        let replayed = replay(procs, mem, &(), &trace).expect("trace is complete");
        assert_eq!(replayed, outcome);
    }

    #[test]
    fn violation_finder_confirms_valid_properties() {
        // "someone sees both writers" holds on every schedule.
        let (procs, mem) = toys(2);
        let found = find_violation(procs, mem, &(), 10_000, 100, |o| {
            o.iter().any(|v| v.value().as_int() == Some(2))
        })
        .expect("within budget");
        assert!(found.is_none());
    }

    #[test]
    fn budget_errors() {
        let (procs, mem) = toys(3);
        match explore(procs.clone(), mem.clone(), &(), 2, 100) {
            Err(ExploreError::StateBudgetExceeded {
                max_states: 2,
                trace,
            }) => {
                // The trace must replay to a real (reachable) state.
                assert!(trace.len() <= 100);
            }
            other => panic!("expected state-budget error, got {other:?}"),
        }
        // A trace that ends before every process decides.
        assert!(matches!(
            replay(procs, mem, &(), &"0.0".parse().unwrap()),
            Err(ExploreError::StepBoundExceeded(1))
        ));
    }

    #[test]
    fn cancellation_interrupts_exploration() {
        let (procs, mem) = toys(3);
        let cancel = CancelToken::new();
        cancel.cancel();
        match explore_crash(procs, mem, &(), &Budget::unlimited(), &cancel, 0) {
            Err(ExploreError::Interrupted {
                interrupt: Interrupt::Cancelled,
                ..
            }) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn elapsed_deadline_interrupts_exploration() {
        let (procs, mem) = toys(3);
        let budget = Budget::unlimited().with_deadline_in(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(1));
        match explore_crash(procs, mem, &(), &budget, &CancelToken::new(), 0) {
            Err(ExploreError::Interrupted {
                interrupt: Interrupt::DeadlineExceeded,
                ..
            }) => {}
            other => panic!("expected deadline interruption, got {other:?}"),
        }
    }

    #[test]
    fn worker_panics_become_structured_errors_with_replayable_traces() {
        /// Panics when stepped after the shared memory holds 2 writes.
        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        struct Grenade(Toy);

        impl Process for Grenade {
            type Config = ();

            fn decided(&self) -> Option<&Vertex> {
                self.0.decided()
            }

            fn step(&self, (): &(), memory: &Memory) -> Vec<(Self, Memory)> {
                assert!(
                    memory.present("r").len() < 2 || self.0.phase == 0,
                    "two writers observed"
                );
                self.0
                    .step(&(), memory)
                    .into_iter()
                    .map(|(t, m)| (Grenade(t), m))
                    .collect()
            }
        }

        let (toys, mem) = toys(2);
        let procs: Vec<Grenade> = toys.into_iter().map(Grenade).collect();
        match explore(procs.clone(), mem.clone(), &(), 10_000, 100) {
            Err(ExploreError::WorkerPanicked { message, trace }) => {
                assert!(message.contains("two writers observed"), "{message}");
                // The trace replays to the panicking state: stepping every
                // process once from the replayed state must panic again.
                assert!(!trace.is_empty());
                let line = trace.to_string();
                let parsed: Trace = line.parse().expect("round-trip");
                assert_eq!(parsed, trace);
            }
            other => panic!("expected a structured worker panic, got {other:?}"),
        }
    }

    #[test]
    fn trace_format_round_trips() {
        let t = Trace(vec![
            TraceEvent::Step {
                process: 0,
                branch: 2,
            },
            TraceEvent::Crash { process: 1 },
            TraceEvent::Step {
                process: 2,
                branch: 0,
            },
        ]);
        let s = t.to_string();
        assert_eq!(s, "0.2 !1 2.0");
        assert_eq!(s.parse::<Trace>().unwrap(), t);
        assert_eq!("-".parse::<Trace>().unwrap(), Trace::default());
        assert_eq!(Trace::default().to_string(), "-");
        assert!("x.y".parse::<Trace>().is_err());
        assert!("5".parse::<Trace>().is_err());
        assert!("!x".parse::<Trace>().is_err());
    }
}
