//! Crash-fault injection: wait-freedom as an executable property.
//!
//! Wait-free solvability (paper, Theorem 5.1) is a claim about *crash
//! tolerance*: every non-crashed process must decide, on every schedule,
//! under any pattern of process failures. A failure-free search cannot
//! observe this — so this module makes crashes first-class, injectable
//! events:
//!
//! * [`explore_crash`] — the crate's one model checker: an exhaustive
//!   scheduler where, at every state, the adversary may *crash* any live
//!   process (up to `max_crashes`) in addition to stepping one. Because a
//!   crash only removes future steps (it never perturbs memory), this
//!   single search covers **every** "crash process `p` after step `k`"
//!   plan at once; terminal states are [`CrashOutcome`]s in which crashed
//!   processes may be undecided. Its `max_crashes = 0` case is the
//!   failure-free checker: [`crate::explore`], [`crate::find_violation`]
//!   and [`crate::verify_figure7`] run exactly that. A state is a row of
//!   integers (the ids of its process states and memory in two
//!   per-search tables, plus the crash mask), and
//!   [`Process::step`] runs once per distinct (process state, memory)
//!   pair: crash branches and interleavings that meet the same pair
//!   reuse its memoized successors.
//! * [`FaultPlan`] — an explicit, seedable "crash `p` after its `k`-th
//!   step" schedule for randomized runs ([`run_random_faulted`]) and
//!   exact replay ([`replay_trace`]); plans can be enumerated
//!   exhaustively ([`FaultPlan::enumerate`]) or sampled by seed.
//!
//! A process that crashes before its first step never announced its
//! input, so it is excluded from the *participating* set recorded in the
//! outcome (see [`Process::has_started`]); verifier checks judge survivor
//! outputs against `Δ(participating)`.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::ops::ControlFlow;

use chromata_topology::{
    structural_fingerprint, try_par_map, Budget, BuildStructuralHasher, CancelToken, Vertex,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::explore::{
    trace_collect, trace_push, ExploreError, Outcome, Process, Trace, TraceEvent, TraceLink,
};
use crate::memory::Memory;

/// One injected crash: the process permanently stops after taking
/// `after_steps` steps (`0` = before its first step: a non-participant).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CrashFault {
    /// Index of the process to crash.
    pub process: usize,
    /// Number of steps the process completes before crashing.
    pub after_steps: usize,
}

/// A set of injected crashes, at most one per process.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct FaultPlan {
    crashes: Vec<CrashFault>,
}

impl FaultPlan {
    /// The failure-free plan.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with the given crashes.
    ///
    /// # Panics
    ///
    /// Panics if two crashes name the same process.
    #[must_use]
    pub fn new(mut crashes: Vec<CrashFault>) -> Self {
        crashes.sort_unstable();
        for w in crashes.windows(2) {
            assert_ne!(
                w[0].process, w[1].process,
                "fault plan crashes process {} twice",
                w[0].process
            );
        }
        FaultPlan { crashes }
    }

    /// A single-crash plan.
    #[must_use]
    pub fn crash(process: usize, after_steps: usize) -> Self {
        FaultPlan {
            crashes: vec![CrashFault {
                process,
                after_steps,
            }],
        }
    }

    /// The planned crashes, sorted by process.
    #[must_use]
    pub fn crashes(&self) -> &[CrashFault] {
        &self.crashes
    }

    /// Every plan with at most `max_crashes` crashes among `processes`
    /// processes, each after `0..=max_steps` steps — including the
    /// failure-free plan. For 3 processes, 2 crashes and a step bound of
    /// `s` this is `1 + 3(s+1) + 3(s+1)²` plans.
    #[must_use]
    pub fn enumerate(processes: usize, max_crashes: usize, max_steps: usize) -> Vec<FaultPlan> {
        let mut plans = vec![FaultPlan::none()];
        // Subsets by bitmask, bounded by popcount.
        for mask in 1u32..(1 << processes) {
            let members: Vec<usize> = (0..processes).filter(|i| mask & (1 << i) != 0).collect();
            if members.len() > max_crashes {
                continue;
            }
            // Cartesian product of per-process crash points.
            let mut points = vec![0usize; members.len()];
            loop {
                plans.push(FaultPlan::new(
                    members
                        .iter()
                        .zip(&points)
                        .map(|(&process, &after_steps)| CrashFault {
                            process,
                            after_steps,
                        })
                        .collect(),
                ));
                // Odometer increment.
                let mut k = 0;
                loop {
                    if k == points.len() {
                        break;
                    }
                    points[k] += 1;
                    if points[k] <= max_steps {
                        break;
                    }
                    points[k] = 0;
                    k += 1;
                }
                if k == points.len() {
                    break;
                }
            }
        }
        plans
    }

    /// A pseudo-random plan with at most `max_crashes` crashes, crash
    /// points uniform in `0..=max_steps`.
    #[must_use]
    pub fn sample(seed: u64, processes: usize, max_crashes: usize, max_steps: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(0..max_crashes.min(processes) + 1);
        let mut pool: Vec<usize> = (0..processes).collect();
        let mut crashes = Vec::with_capacity(count);
        for _ in 0..count {
            let k = rng.gen_range(0..pool.len());
            crashes.push(CrashFault {
                process: pool.swap_remove(k),
                after_steps: rng.gen_range(0..max_steps + 1),
            });
        }
        FaultPlan::new(crashes)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.crashes.is_empty() {
            return write!(f, "failure-free");
        }
        for (k, c) in self.crashes.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "crash {} after {} step(s)", c.process, c.after_steps)?;
        }
        Ok(())
    }
}

/// A terminal outcome of a crash-prone execution: crashed processes may
/// be undecided, and processes that crashed before their first step are
/// not *participating*.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CrashOutcome {
    /// Per-process decisions, in process order (`None` = crashed before
    /// deciding).
    pub decisions: Vec<Option<Vertex>>,
    /// Indices of crashed processes, sorted.
    pub crashed: Vec<usize>,
    /// Indices of participating processes (took at least one step),
    /// sorted. Always a superset of the decided processes.
    pub participating: Vec<usize>,
}

impl CrashOutcome {
    /// Builds the outcome from final process states and the crash set.
    fn from_final<P: Process>(processes: &[P], crashed_mask: u32) -> Self {
        CrashOutcome {
            decisions: processes.iter().map(|p| p.decided().cloned()).collect(),
            crashed: (0..processes.len())
                .filter(|i| crashed_mask & (1 << i) != 0)
                .collect(),
            participating: processes
                .iter()
                .enumerate()
                .filter(|(_, p)| p.has_started() || p.decided().is_some())
                .map(|(i, _)| i)
                .collect(),
        }
    }

    /// The decided processes as `(index, vertex)` pairs — the survivors
    /// plus any process that decided before crashing.
    #[must_use]
    pub fn decided(&self) -> Vec<(usize, &Vertex)> {
        self.decisions
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.as_ref().map(|v| (i, v)))
            .collect()
    }

    /// The full outcome, if the execution was failure-free and every
    /// process decided.
    #[must_use]
    pub fn complete(&self) -> Option<Outcome> {
        if !self.crashed.is_empty() {
            return None;
        }
        self.decisions.iter().cloned().collect()
    }
}

/// The result of exhaustive crash-injected exploration.
#[derive(Clone, Debug)]
pub struct CrashExplored {
    /// Every reachable terminal (partial) outcome.
    pub outcomes: BTreeSet<CrashOutcome>,
    /// Number of distinct (process states, crash set, memory) system
    /// states visited.
    pub states: usize,
}

/// Exhaustively explores all interleavings *and all crash patterns with
/// at most `max_crashes` crashes*: at every state the adversary may step
/// any live undecided process (through every nondeterministic branch) or
/// crash one. Covers every "crash `p` after step `k`" [`FaultPlan`] —
/// crashes only remove future steps, so branching the crash decision at
/// every scheduling point enumerates exactly the reachable partial
/// executions.
///
/// This is the crate's model checker: with `max_crashes = 0` every
/// terminal outcome is complete, and [`crate::explore`],
/// [`crate::find_violation`] and [`crate::verify_figure7`] are exactly
/// that case. The search is bounded by the budget's state and step
/// limits and its wall-clock deadline, and can be cancelled
/// cooperatively from another thread (both checked once per
/// breadth-first level).
///
/// # Errors
///
/// Structured [`ExploreError`]s for budget exhaustion, interruption,
/// stuck processes and worker panics.
///
/// # Panics
///
/// Panics if there are more than 32 processes (crash sets are bitmasks).
pub fn explore_crash<P>(
    processes: Vec<P>,
    memory: Memory,
    config: &P::Config,
    budget: &Budget,
    cancel: &CancelToken,
    max_crashes: usize,
) -> Result<CrashExplored, ExploreError>
where
    P: Process + Send + Sync,
    P::Config: Sync,
{
    let mut outcomes: BTreeSet<CrashOutcome> = BTreeSet::new();
    let states = walk(
        processes,
        memory,
        config,
        budget,
        cancel,
        max_crashes,
        |outcome, _| {
            outcomes.insert(outcome);
            ControlFlow::Continue(())
        },
    )?;
    Ok(CrashExplored { outcomes, states })
}

/// Dense `u32` ids for the distinct values one walk meets: the id ↔
/// value bimap that lets a system state be a row of integers.
struct Table<T> {
    values: Vec<T>,
    ids: HashMap<T, u32, BuildStructuralHasher>,
}

impl<T: Clone + Eq + Hash> Table<T> {
    fn new() -> Self {
        Table {
            values: Vec::new(),
            ids: HashMap::default(),
        }
    }

    /// The id of `value`, the next free one if `value` is new.
    fn id(&mut self, value: T) -> u32 {
        let Table { values, ids } = self;
        *ids.entry(value).or_insert_with_key(|value| {
            // chromata-lint: allow(P1): an id past u32::MAX needs 2^32 distinct values held in `values` and `ids` at once, at least 2^32 · (size_of::<T>() + 4) bytes; allocation fails long before
            let id = u32::try_from(values.len()).expect("fewer than 2^32 distinct values");
            values.push(value.clone());
            id
        })
    }
}

/// The search behind [`explore_crash`]: a level-synchronous
/// breadth-first traversal handing each terminal outcome, with the trace
/// link of the first schedule reaching it, to `on_terminal` in level
/// order. A `Break` from `on_terminal` ends the search early. Returns
/// the number of distinct states visited.
///
/// A state is a row of `n + 2` integers: the ids of its `n` process
/// states, the id of its memory and its crash mask. The ids come from two
/// per-walk tables, so each distinct process state and memory is stored
/// once and the visited set holds rows (SPIN's COLLAPSE compression).
/// [`Process::step`] is a pure function of the process state, the
/// config and the memory, so the walk memoizes it per (process id,
/// memory id) pair. Each level collects the pairs its states need that
/// no earlier level stepped, in first-use order, steps them as one
/// batch (in parallel when the process may use more than one CPU;
/// [`try_par_map`] preserves batch order) and interns the results in
/// batch order. It then emits successors in level order, process order
/// and branch order, each process's crash successor after its branches.
/// Outcomes, state counts, the schedule kept for each state (the first
/// in BFS order) and the order of `on_terminal` calls are therefore the
/// same with and without threads.
///
/// A worker panic surfaces as [`ExploreError::WorkerPanicked`] with the
/// schedule reaching the first state of the level that needs the
/// panicking pair. Every live undecided process of a state is stepped
/// before any of them is judged stuck, so a state in which a stuck
/// process precedes a panicking one reports the panic rather than
/// [`ExploreError::StuckProcess`]; both are protocol bugs.
pub(crate) fn walk<P, F>(
    processes: Vec<P>,
    memory: Memory,
    config: &P::Config,
    budget: &Budget,
    cancel: &CancelToken,
    max_crashes: usize,
    mut on_terminal: F,
) -> Result<usize, ExploreError>
where
    P: Process + Send + Sync,
    P::Config: Sync,
    F: FnMut(CrashOutcome, &TraceLink) -> ControlFlow<()>,
{
    assert!(processes.len() <= 32, "crash masks are 32-bit");
    let n = processes.len();
    let width = n + 2;
    let mut procs = Table::new();
    let mut mems = Table::new();
    let mut frontier: Vec<u32> = processes.into_iter().map(|p| procs.id(p)).collect();
    frontier.extend([mems.id(memory), 0]);
    // Per frontier row: its parent's index in `parents` and the event
    // leading from it (`None` only for the initial state). A trace link
    // is allocated only for a row that turns out to be a new state.
    let mut edges: Vec<(usize, Option<TraceEvent>)> = vec![(0, None)];
    let mut parents: Vec<TraceLink> = vec![None];
    let trace_of = |parents: &[TraceLink], (parent, event): (usize, Option<TraceEvent>)| {
        event.map_or_else(
            || parents[parent].clone(),
            |event| trace_push(&parents[parent], event),
        )
    };
    let mut visited = Visited::new(width);
    // (process id, memory id) → index into `transitions`, which holds the
    // id pairs of `step`'s successors in branch order.
    let mut memo: HashMap<(u32, u32), usize, BuildStructuralHasher> = HashMap::default();
    let mut transitions: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut depth = 0usize;
    while !edges.is_empty() {
        if let Err(interrupt) = budget.check(cancel) {
            return Err(ExploreError::Interrupted {
                interrupt,
                states: visited.len(),
                trace: trace_collect(&trace_of(&parents, edges[0])),
            });
        }
        // Deduplicate this level against everything seen so far.
        let mut level: Vec<u32> = Vec::new();
        let mut links: Vec<TraceLink> = Vec::new();
        for (row, &edge) in frontier.chunks_exact(width).zip(&edges) {
            if !visited.insert(row) {
                continue;
            }
            let trace = trace_of(&parents, edge);
            if visited.len() > budget.max_states {
                return Err(ExploreError::StateBudgetExceeded {
                    max_states: budget.max_states,
                    trace: trace_collect(&trace),
                });
            }
            level.extend_from_slice(row);
            links.push(trace);
        }
        // The memo slot of every (state, live process), in level and
        // process order; the pairs not stepped yet, each with the first
        // state that needs it.
        let mut slots = Vec::new();
        let mut fresh: Vec<((u32, u32), usize)> = Vec::new();
        for (k, row) in level.chunks_exact(width).enumerate() {
            for i in live(row, &procs.values) {
                let pair = (row[i], row[n]);
                let next = transitions.len() + fresh.len();
                slots.push(*memo.entry(pair).or_insert_with(|| {
                    fresh.push((pair, k));
                    next
                }));
            }
        }
        let stepped = try_par_map(&fresh, |&((p, m), _)| {
            procs.values[p as usize].step(config, &mems.values[m as usize])
        })
        .map_err(|panic| ExploreError::WorkerPanicked {
            trace: trace_collect(&links[fresh[panic.index].1]),
            message: panic.message,
        })?;
        for successors in stepped {
            transitions.push(
                successors
                    .into_iter()
                    .map(|(p, m)| (procs.id(p), mems.id(m)))
                    .collect(),
            );
        }
        frontier.clear();
        edges.clear();
        let mut slots = slots.into_iter();
        let mut any_expansion = false;
        for (k, (row, trace)) in level.chunks_exact(width).zip(&links).enumerate() {
            let crashed = row[n + 1];
            let mut live = live(row, &procs.values).peekable();
            if live.peek().is_none() {
                let finals: Vec<P> = row[..n]
                    .iter()
                    .map(|&p| procs.values[p as usize].clone())
                    .collect();
                if on_terminal(CrashOutcome::from_final(&finals, crashed), trace).is_break() {
                    return Ok(visited.len());
                }
                continue;
            }
            any_expansion = true;
            for (i, slot) in live.zip(&mut slots) {
                let successors = &transitions[slot];
                if successors.is_empty() {
                    return Err(ExploreError::StuckProcess {
                        pid: i,
                        trace: trace_collect(trace),
                    });
                }
                for (branch, &(p, m)) in successors.iter().enumerate() {
                    let at = frontier.len();
                    frontier.extend_from_slice(row);
                    frontier[at + i] = p;
                    frontier[at + n] = m;
                    edges.push((k, Some(TraceEvent::Step { process: i, branch })));
                }
                // The adversary may also crash this process here instead.
                if (crashed.count_ones() as usize) < max_crashes {
                    frontier.extend_from_slice(&row[..=n]);
                    frontier.push(crashed | 1 << i);
                    edges.push((k, Some(TraceEvent::Crash { process: i })));
                }
            }
        }
        parents = links;
        if any_expansion {
            // A non-terminal state at depth `max_steps` means some path
            // needs more than `max_steps` steps.
            if depth >= budget.max_steps {
                return Err(ExploreError::StepBoundExceeded(budget.max_steps));
            }
            depth += 1;
        }
    }
    Ok(visited.len())
}

/// The visited set: every visited row, stored back to back in one
/// vector and found through an open-addressing table of `(hash, row
/// number)` slots with linear probing (row numbers start at 1; 0 marks
/// an empty slot). The table doubles when half full and re-places its
/// slots by their stored hashes, so growth never rereads a row, and no
/// row is allocated on its own.
struct Visited {
    width: usize,
    rows: Vec<u32>,
    slots: Vec<(u32, u32)>,
}

impl Visited {
    fn new(width: usize) -> Self {
        Visited {
            width,
            rows: Vec::new(),
            slots: vec![(0, 0); 16],
        }
    }

    /// Number of rows held.
    fn len(&self) -> usize {
        self.rows.len() / self.width
    }

    /// Adds `row`, returning whether it was new.
    fn insert(&mut self, row: &[u32]) -> bool {
        let wide = structural_fingerprint(row);
        let hash = (wide ^ wide >> 32) as u32;
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while let (h, number @ 1..) = self.slots[at] {
            let start = (number as usize - 1) * self.width;
            if h == hash && self.rows[start..start + self.width] == *row {
                return false;
            }
            at = (at + 1) & mask;
        }
        self.rows.extend_from_slice(row);
        // chromata-lint: allow(P1): a row number past u32::MAX needs 2^32 stored rows of at least two u32s (32 GiB) and a table of 2^33 eight-byte slots (64 GiB); allocation fails long before
        let number = u32::try_from(self.len()).expect("fewer than 2^32 visited states");
        self.slots[at] = (hash, number);
        if 2 * self.len() > self.slots.len() {
            let mut slots = vec![(0, 0); 2 * self.slots.len()];
            let mask = slots.len() - 1;
            for &(h, number) in self.slots.iter().filter(|slot| slot.1 != 0) {
                let mut at = h as usize & mask;
                while slots[at].1 != 0 {
                    at = (at + 1) & mask;
                }
                slots[at] = (h, number);
            }
            self.slots = slots;
        }
        true
    }
}

/// The live undecided processes of a state row, in process order.
fn live<'a, P: Process>(row: &'a [u32], procs: &'a [P]) -> impl Iterator<Item = usize> + 'a {
    let n = row.len() - 2;
    (0..n)
        .filter(move |&i| row[n + 1] & (1 << i) == 0 && procs[row[i] as usize].decided().is_none())
}

/// Runs a single pseudo-random schedule with the given [`FaultPlan`]
/// injected: process `p` is crashed the moment it has taken
/// `after_steps` steps. Returns the exact [`Trace`] (steps + crash
/// events, replayable with [`replay_trace`]) alongside the partial
/// outcome.
///
/// # Errors
///
/// [`ExploreError::StepBoundExceeded`] if the run does not terminate
/// within `max_steps`; [`ExploreError::StuckProcess`] if an undecided
/// live process has no successors.
pub fn run_random_faulted<P: Process>(
    mut processes: Vec<P>,
    mut memory: Memory,
    config: &P::Config,
    seed: u64,
    max_steps: usize,
    plan: &FaultPlan,
) -> Result<(Trace, CrashOutcome), ExploreError> {
    let n = processes.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps_taken = vec![0usize; n];
    let mut crashed_mask = 0u32;
    let mut trace = Vec::new();
    // One pass more than `max_steps`: a run that terminates with its
    // last allowed step is accepted.
    for taken in 0..=max_steps {
        // Apply due crashes before picking the next step.
        for fault in plan.crashes() {
            let p = fault.process;
            if p < n
                && crashed_mask & (1 << p) == 0
                && processes[p].decided().is_none()
                && steps_taken[p] >= fault.after_steps
            {
                crashed_mask |= 1 << p;
                trace.push(TraceEvent::Crash { process: p });
            }
        }
        let pending: Vec<usize> = (0..n)
            .filter(|&i| crashed_mask & (1 << i) == 0 && processes[i].decided().is_none())
            .collect();
        if pending.is_empty() {
            return Ok((
                Trace(trace),
                CrashOutcome::from_final(&processes, crashed_mask),
            ));
        }
        if taken == max_steps {
            break;
        }
        let i = pending[rng.gen_range(0..pending.len())];
        let mut successors = processes[i].step(config, &memory);
        if successors.is_empty() {
            return Err(ExploreError::StuckProcess {
                pid: i,
                trace: Trace(trace),
            });
        }
        let k = rng.gen_range(0..successors.len());
        let (p, m) = successors.swap_remove(k);
        trace.push(TraceEvent::Step {
            process: i,
            branch: k,
        });
        processes[i] = p;
        memory = m;
        steps_taken[i] += 1;
    }
    Err(ExploreError::StepBoundExceeded(max_steps))
}

/// Replays a recorded [`Trace`] (steps and crash events) exactly,
/// returning the resulting partial outcome.
///
/// # Errors
///
/// [`ExploreError::InvalidTrace`] if an event references an unknown,
/// crashed or decided process or an out-of-range branch (the trace does
/// not belong to this system); [`ExploreError::StuckProcess`] if a
/// stepped process has no successors.
pub fn replay_trace<P: Process>(
    mut processes: Vec<P>,
    mut memory: Memory,
    config: &P::Config,
    trace: &Trace,
) -> Result<CrashOutcome, ExploreError> {
    let n = processes.len();
    let mut crashed_mask = 0u32;
    for (at, ev) in trace.0.iter().enumerate() {
        let invalid = |reason: String| ExploreError::InvalidTrace { at, reason };
        match *ev {
            TraceEvent::Crash { process } => {
                if process >= n {
                    return Err(invalid(format!("no process {process}")));
                }
                if crashed_mask & (1 << process) != 0 {
                    return Err(invalid(format!("process {process} already crashed")));
                }
                crashed_mask |= 1 << process;
            }
            TraceEvent::Step { process, branch } => {
                if process >= n {
                    return Err(invalid(format!("no process {process}")));
                }
                if crashed_mask & (1 << process) != 0 {
                    return Err(invalid(format!("trace steps crashed process {process}")));
                }
                if processes[process].decided().is_some() {
                    return Err(invalid(format!("trace steps decided process {process}")));
                }
                let mut successors = processes[process].step(config, &memory);
                if successors.is_empty() {
                    return Err(ExploreError::StuckProcess {
                        pid: process,
                        trace: Trace(trace.0[..at].to_vec()),
                    });
                }
                if branch >= successors.len() {
                    return Err(invalid(format!(
                        "branch {branch} out of range ({} successors)",
                        successors.len()
                    )));
                }
                let (p, m) = successors.swap_remove(branch);
                processes[process] = p;
                memory = m;
            }
        }
    }
    Ok(CrashOutcome::from_final(&processes, crashed_mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::tests::{toys, Toy};
    use crate::explore::{explore, run_random};
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn fault_plan_enumeration_counts() {
        // 3 processes, ≤2 crashes, crash points 0..=1:
        // 1 (free) + 3·2 (singles) + 3·2² (pairs) = 19.
        let plans = FaultPlan::enumerate(3, 2, 1);
        assert_eq!(plans.len(), 19);
        // All distinct.
        let set: BTreeSet<_> = plans.iter().cloned().collect();
        assert_eq!(set.len(), plans.len());
        // No plan crashes more than 2 processes.
        assert!(plans.iter().all(|p| p.crashes().len() <= 2));
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_crash_rejected() {
        let _ = FaultPlan::new(vec![
            CrashFault {
                process: 1,
                after_steps: 0,
            },
            CrashFault {
                process: 1,
                after_steps: 2,
            },
        ]);
    }

    #[test]
    fn sampled_plans_are_deterministic_per_seed() {
        for seed in 0..20 {
            let a = FaultPlan::sample(seed, 3, 2, 5);
            let b = FaultPlan::sample(seed, 3, 2, 5);
            assert_eq!(a, b);
            assert!(a.crashes().len() <= 2);
        }
    }

    #[test]
    fn crash_exploration_subsumes_failure_free_outcomes() {
        let (procs, mem) = toys(2);
        let free = explore(procs.clone(), mem.clone(), &(), 10_000, 100).expect("small");
        let crashy = explore_crash(
            procs,
            mem,
            &(),
            &Budget::unlimited()
                .with_max_states(100_000)
                .with_max_steps(100),
            &CancelToken::new(),
            1,
        )
        .expect("small");
        // Every failure-free outcome appears as a crash outcome with an
        // empty crash set.
        for o in &free.outcomes {
            let as_crash = CrashOutcome {
                decisions: o.iter().cloned().map(Some).collect(),
                crashed: Vec::new(),
                participating: vec![0, 1],
            };
            assert!(crashy.outcomes.contains(&as_crash), "missing {o:?}");
        }
        // And crashing adds strictly more outcomes and states.
        assert!(crashy.outcomes.len() > free.outcomes.len());
        assert!(crashy.states > free.states);
    }

    #[test]
    fn survivors_decide_under_every_crash_pattern() {
        // Toy wait-freedom: with ≤1 crash among 2 processes, the survivor
        // always decides; a process crashed before its first step is not
        // participating.
        let (procs, mem) = toys(2);
        let crashy = explore_crash(
            procs,
            mem,
            &(),
            &Budget::unlimited()
                .with_max_states(100_000)
                .with_max_steps(100),
            &CancelToken::new(),
            1,
        )
        .expect("small");
        for o in &crashy.outcomes {
            for i in 0..2 {
                if !o.crashed.contains(&i) {
                    assert!(o.decisions[i].is_some(), "survivor {i} undecided: {o:?}");
                }
            }
            for (i, v) in o.decided() {
                assert_eq!(v.color().index() as usize, i, "own color");
            }
            // Participation matches "took a step": a crashed process is
            // participating iff it advanced past phase 0 — and a survivor
            // that saw only itself implies the other never participated.
            if let Some(v) = o.crashed.first() {
                let survivor = 1 - v;
                let saw = o.decisions[survivor]
                    .as_ref()
                    .unwrap()
                    .value()
                    .as_int()
                    .unwrap();
                if !o.participating.contains(v) {
                    assert_eq!(saw, 1, "non-participant was observed: {o:?}");
                }
            }
        }
    }

    #[test]
    fn two_crashes_among_three_leave_a_deciding_survivor() {
        let (procs, mem) = toys(3);
        let crashy = explore_crash(
            procs,
            mem,
            &(),
            &Budget::unlimited()
                .with_max_states(1_000_000)
                .with_max_steps(200),
            &CancelToken::new(),
            2,
        )
        .expect("small");
        for o in &crashy.outcomes {
            assert!(o.crashed.len() <= 2);
            let deciders = o.decided().len();
            assert!(
                deciders >= 3 - o.crashed.len(),
                "some survivor undecided: {o:?}"
            );
        }
    }

    #[test]
    fn random_faulted_traces_replay_byte_for_byte() {
        let (procs, mem) = toys(3);
        for seed in 0..60 {
            let plan = FaultPlan::sample(seed, 3, 2, 3);
            let (trace, outcome) =
                run_random_faulted(procs.clone(), mem.clone(), &(), seed, 1_000, &plan)
                    .expect("terminates");
            let replayed =
                replay_trace(procs.clone(), mem.clone(), &(), &trace).expect("valid trace");
            assert_eq!(replayed, outcome, "seed {seed} plan {plan}");
            // The one-line trace format survives the round trip too.
            let reparsed: Trace = trace.to_string().parse().expect("parse");
            let replayed2 =
                replay_trace(procs.clone(), mem.clone(), &(), &reparsed).expect("valid trace");
            assert_eq!(
                format!("{replayed2:?}"),
                format!("{outcome:?}"),
                "byte-for-byte reproduction"
            );
        }
    }

    #[test]
    fn step_runs_once_per_distinct_state_and_memory() {
        /// A toy whose config records every (state, memory) pair it is
        /// stepped on, and which panics when stepped on one twice.
        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        struct Once(Toy);

        impl Process for Once {
            type Config = Mutex<HashSet<(Toy, Memory)>>;

            fn decided(&self) -> Option<&Vertex> {
                self.0.decided()
            }

            fn has_started(&self) -> bool {
                self.0.has_started()
            }

            fn step(&self, seen: &Self::Config, memory: &Memory) -> Vec<(Self, Memory)> {
                let first = seen
                    .lock()
                    .expect("no step panics while holding the lock")
                    .insert((self.0.clone(), memory.clone()));
                assert!(first, "stepped twice on {:?} with {memory}", self.0);
                self.0
                    .step(&(), memory)
                    .into_iter()
                    .map(|(t, m)| (Once(t), m))
                    .collect()
            }
        }

        // Crash branches reach the same (state, memory) pairs under
        // different crash masks; the walk must step each pair once.
        let (procs, mem) = toys(3);
        let seen = Mutex::default();
        explore_crash(
            procs.into_iter().map(Once).collect(),
            mem,
            &seen,
            &Budget::unlimited()
                .with_max_states(1_000_000)
                .with_max_steps(200),
            &CancelToken::new(),
            2,
        )
        .expect("every pair is stepped once");
    }

    #[test]
    fn random_runners_accept_a_run_ending_on_its_last_allowed_step() {
        // Every schedule of two toys takes exactly four steps.
        let (procs, mem) = toys(2);
        let explored = explore(procs.clone(), mem.clone(), &(), 100, 4).expect("4 steps suffice");
        assert_eq!(explored.states, 13);
        let none = FaultPlan::none();
        for seed in 0..20 {
            assert!(run_random(procs.clone(), mem.clone(), &(), seed, 4).is_ok());
            assert!(run_random_faulted(procs.clone(), mem.clone(), &(), seed, 4, &none).is_ok());
            assert_eq!(
                run_random(procs.clone(), mem.clone(), &(), seed, 3),
                Err(ExploreError::StepBoundExceeded(3))
            );
            assert!(matches!(
                run_random_faulted(procs.clone(), mem.clone(), &(), seed, 3, &none),
                Err(ExploreError::StepBoundExceeded(3))
            ));
        }
    }

    #[test]
    fn crash_at_zero_steps_is_a_non_participant() {
        let (procs, mem) = toys(2);
        let plan = FaultPlan::crash(1, 0);
        let (trace, outcome) = run_random_faulted(procs.clone(), mem.clone(), &(), 7, 1_000, &plan)
            .expect("terminates");
        assert_eq!(outcome.crashed, vec![1]);
        assert_eq!(outcome.participating, vec![0]);
        assert!(outcome.decisions[1].is_none());
        // Survivor saw only itself.
        assert_eq!(
            outcome.decisions[0].as_ref().unwrap().value().as_int(),
            Some(1)
        );
        assert!(trace.0.contains(&TraceEvent::Crash { process: 1 }));
        assert!(outcome.complete().is_none());
    }

    #[test]
    fn invalid_traces_are_rejected_structurally() {
        let (procs, mem) = toys(2);
        // Stepping a crashed process.
        let bad: Trace = "!0 0.0".parse().unwrap();
        match replay_trace(procs.clone(), mem.clone(), &(), &bad) {
            Err(ExploreError::InvalidTrace { at: 1, reason }) => {
                assert!(reason.contains("crashed"), "{reason}");
            }
            other => panic!("expected invalid trace, got {other:?}"),
        }
        // Out-of-range branch.
        let bad: Trace = "0.9".parse().unwrap();
        match replay_trace(procs.clone(), mem.clone(), &(), &bad) {
            Err(ExploreError::InvalidTrace { at: 0, reason }) => {
                assert!(reason.contains("out of range"), "{reason}");
            }
            other => panic!("expected invalid trace, got {other:?}"),
        }
        // Unknown process.
        let bad: Trace = "!7".parse().unwrap();
        assert!(matches!(
            replay_trace(procs, mem, &(), &bad),
            Err(ExploreError::InvalidTrace { at: 0, .. })
        ));
    }
}
