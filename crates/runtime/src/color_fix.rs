//! The Figure 7 algorithm: from a color-agnostic solution to a chromatic
//! one (paper, §5.2, Lemma 5.3).
//!
//! Each process runs the color-agnostic oracle, then fixes colors through
//! a sequence of snapshots: processes whose *core* (minimal view) already
//! contains a vertex of their color decide it (*pivots*, Claim 2); the at
//! most two non-pivots negotiate along the lexicographically smallest
//! shortest path in the link of the core vertex until they sit on a
//! common link edge.
//!
//! Every `update`/`scan` is one atomic step, so the exhaustive scheduler
//! in [`crate::explore`] verifies the algorithm over *all* interleavings
//! and all adversarial oracle behaviours.
//!
//! Two clarifications relative to the paper's pseudocode, both found by
//! running the exhaustive checker (see EXPERIMENTS.md, F7):
//!
//! 1. The participant scan used to build the link graph for the path
//!    negotiation (step (13)) is taken *after* observing the other
//!    non-pivot in `M_decisions`, so both negotiators compute the link in
//!    the same complex `Δ(τ)` (at that point all three `M_in` entries are
//!    visible to both).
//! 2. A non-pivot's anchor (steps (7b)/(10)) completes the **largest view
//!    it saw in `M_snap`**, not merely its core. Completing only the core
//!    admits a counterexample: a pivot that scanned `M_snap` before
//!    others wrote can decide an own-colored vertex of its *larger* core
//!    that a singleton-core non-pivot never accounts for (e.g. a rainbow
//!    outcome in 2-set agreement). The largest seen view is sound: for
//!    every pivot, either its `M_snap` entry precedes my scan (its view
//!    is ≤ my largest seen view) or its scan follows my write (its core ⊆
//!    my view); in both cases its decision lies in my largest seen view.

use std::collections::BTreeSet;
use std::sync::Arc;

use chromata_task::Task;
use chromata_topology::{Color, Graph, Simplex, Vertex};

use crate::cell::Cell;
use crate::explore::Process;
use crate::memory::Memory;
use crate::oracle::{oracle_register, oracle_return, ORACLE_PARTICIPANTS, ORACLE_TARGET};

/// Shared-memory object names used by the algorithm.
pub const OBJECTS: [&str; 6] = [
    "in",
    ORACLE_PARTICIPANTS,
    ORACLE_TARGET,
    "cless",
    "snap",
    "dec",
];

/// Immutable per-run configuration. It holds no caches: the model
/// checker steps each distinct (process state, memory) pair once, so a
/// link graph is built once per pair that needs it.
#[derive(Clone, Debug)]
pub struct Fig7Config {
    /// The (link-connected) task being solved; the adversarial
    /// color-agnostic oracle ([`crate::oracle_return`]) is derived from
    /// it.
    pub task: Task,
}

impl Fig7Config {
    /// Configuration for one run on `task`.
    #[must_use]
    pub fn new(task: Task) -> Self {
        Fig7Config { task }
    }

    /// The link graph `lk_{Δ(τ)}(v*)`.
    fn link_graph(&self, tau: &Simplex, pivot_vertex: &Vertex) -> Graph {
        Graph::from_complex(&self.task.delta().image_of(tau).link(pivot_vertex))
    }
}

/// Creates the initial memory for a run of the algorithm.
#[must_use]
pub fn initial_memory() -> Memory {
    Memory::with_objects(&OBJECTS, 3)
}

/// Creates the processes for the participants of `facet` (a face of the
/// strategy's input facet).
#[must_use]
pub fn processes_for(participants: &Simplex) -> Vec<Fig7> {
    participants
        .iter()
        .map(|x| Fig7 {
            id: x.color(),
            input: x.clone(),
            pc: Pc::Init,
            anchor: None,
            core: Arc::new(BTreeSet::new()),
            seen: Arc::new(BTreeSet::new()),
            other: None,
            decided: None,
        })
        .collect()
}

/// Program counter of the Figure 7 state machine; numbers refer to the
/// paper's pseudocode lines.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum Pc {
    /// (1) update `M_in[i] ← xᵢ`.
    Init,
    /// (2) register with the color-agnostic oracle.
    Oracle,
    /// (2) receive the (late-bound) oracle output.
    OracleReturn,
    /// (3) update `M_cless[i] ← yᵢ` — carries the oracle result.
    WriteCless(Vertex),
    /// (3) scan `M_cless` into the view `Vᵢ`.
    ScanCless,
    /// (4) update `M_snap[i] ← Vᵢ` — carries the view.
    WriteSnap(Arc<BTreeSet<Vertex>>),
    /// (4)–(6) scan `M_snap`, compute the core, decide if pivot.
    ScanSnap,
    /// (7a) scan `M_in` (two-vertex core).
    ScanInPair,
    /// (7c) update `M_decisions[i]`.
    WriteDecPair,
    /// (7c)–(7e) scan `M_decisions`.
    ScanDecPair,
    /// (9) scan `M_in` (singleton core).
    ScanInSingle,
    /// (11) update `M_decisions[i]`.
    WriteDecSingle,
    /// (12) scan `M_decisions`.
    ScanDecSingle,
    /// (13) re-scan `M_in` and set up the path negotiation.
    PathSetup,
    /// (14a–b) update `M_decisions[i]` with the next proposal.
    LoopWrite(Vertex),
    /// (14b–c) scan `M_decisions` and re-check the exit condition.
    LoopScan(Vertex),
}

/// The Figure 7 algorithm for one process, as an explicit state machine.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fig7 {
    id: Color,
    input: Vertex,
    pc: Pc,
    /// The anchor `vᵢ` (paper: set at most once, at (7b) or (10)).
    anchor: Option<Vertex>,
    /// The core `V*` (`Arc`-shared: every step clones the process
    /// state).
    core: Arc<BTreeSet<Vertex>>,
    /// The largest view seen in the `M_snap` scan (anchor completion
    /// target; see module docs, clarification 2).
    seen: Arc<BTreeSet<Vertex>>,
    /// The other non-pivot's slot, once observed.
    other: Option<u8>,
    decided: Option<Vertex>,
}

impl Fig7 {
    fn slot(&self) -> usize {
        self.id.index() as usize
    }

    /// Scans `M_in` into a participant simplex.
    fn scan_tau(memory: &Memory) -> Simplex {
        Simplex::from_iter(
            memory
                .present("in")
                .into_iter()
                .map(|(_, c)| c.as_vertex().expect("M_in holds vertices").clone()), // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
        )
    }

    /// The anchor: the vertex of this process's color in the largest view
    /// it saw, if any; otherwise the smallest own-colored vertex
    /// completing that view to a simplex of `Δ(τ)` (module docs,
    /// clarification 2).
    fn pick_anchor(&self, config: &Fig7Config, tau: &Simplex) -> Vertex {
        if let Some(v) = self.seen.iter().find(|v| v.color() == self.id) {
            return v.clone();
        }
        let img = config.task.delta().image_of(tau);
        img.vertices()
            .find(|v| {
                v.color() == self.id && {
                    let mut s: Vec<Vertex> = self.seen.iter().cloned().collect();
                    s.push((*v).clone());
                    img.contains(&Simplex::new(s))
                }
            })
            .unwrap_or_else(|| {
                // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                panic!(
                    "no {}-colored completion of the seen view exists in Δ({tau}) — \
                     the task is not link-connected or the oracle strategy is invalid",
                    self.id
                )
            })
            .clone()
    }

    /// The core vertex `v*` of a singleton core.
    fn core_vertex(&self) -> &Vertex {
        debug_assert_eq!(self.core.len(), 1);
        self.core.iter().next().expect("singleton core") // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
    }

    /// The other non-pivot's `M_decisions` entry, if present.
    fn other_entry(
        memory: &Memory,
        me: usize,
    ) -> Option<(u8, Vertex, Vertex, Arc<BTreeSet<Vertex>>)> {
        memory
            .present("dec")
            .into_iter()
            .filter(|(slot, _)| *slot != me)
            .map(|(slot, c)| {
                let (a, cur, core) = match c {
                    Cell::Decision {
                        anchor,
                        current,
                        core,
                    } => (anchor, current, core),
                    other => panic!("M_decisions holds decision triples, found {other}"), // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                };
                (slot as u8, a, cur, core)
            })
            .next()
    }

    /// The negotiation path: lexicographically smallest shortest path
    /// between the two anchors in the link `lk` of `v*` in `Δ(τ)`,
    /// oriented from *my* anchor.
    fn negotiation_path(
        &self,
        lk: &Graph,
        tau: &Simplex,
        my_anchor: &Vertex,
        their_anchor: &Vertex,
    ) -> Vec<Vertex> {
        let mut path = lk
            .lex_smallest_shortest_path(my_anchor, their_anchor)
            .unwrap_or_else(|| {
                // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                panic!(
                    "anchors {my_anchor} and {their_anchor} are disconnected in \
                     lk_Δ({tau})({}) — the task is not link-connected",
                    self.core_vertex()
                )
            });
        // Canonical orientation: the unordered path is shared; we store it
        // from my anchor.
        if path.first() != Some(my_anchor) {
            path.reverse();
        }
        path
    }
}

impl Process for Fig7 {
    type Config = Fig7Config;

    fn decided(&self) -> Option<&Vertex> {
        self.decided.as_ref()
    }

    fn has_started(&self) -> bool {
        // A process participates once it has announced its input in
        // `M_in` (the `Init` step); crashing before that is externally
        // indistinguishable from never showing up, so the crash-fault
        // verifier judges survivors against the remaining participants.
        self.pc != Pc::Init
    }

    #[allow(clippy::too_many_lines)]
    fn step(&self, config: &Fig7Config, memory: &Memory) -> Vec<(Self, Memory)> {
        let me = self.slot();
        match &self.pc {
            Pc::Init => {
                let mut m = memory.clone();
                m.update("in", me, Cell::Vertex(self.input.clone()));
                vec![(
                    Fig7 {
                        pc: Pc::Oracle,
                        ..self.clone()
                    },
                    m,
                )]
            }
            Pc::Oracle => {
                // (2a) register with the adversarial oracle; the output is
                // bound later, at return time (module docs of
                // [`crate::oracle`]).
                let m = oracle_register(memory, me, &self.input);
                vec![(
                    Fig7 {
                        pc: Pc::OracleReturn,
                        ..self.clone()
                    },
                    m,
                )]
            }
            Pc::OracleReturn => {
                // (2b) receive the oracle output; every adversary branch
                // is a successor.
                oracle_return(&config.task, memory)
                    .into_iter()
                    .map(|(y, m)| {
                        (
                            Fig7 {
                                pc: Pc::WriteCless(y),
                                ..self.clone()
                            },
                            m,
                        )
                    })
                    .collect()
            }
            Pc::WriteCless(y) => {
                let mut m = memory.clone();
                m.update("cless", me, Cell::Vertex(y.clone()));
                vec![(
                    Fig7 {
                        pc: Pc::ScanCless,
                        ..self.clone()
                    },
                    m,
                )]
            }
            Pc::ScanCless => {
                let view: BTreeSet<Vertex> = memory
                    .present("cless")
                    .into_iter()
                    .map(|(_, c)| c.as_vertex().expect("M_cless holds vertices").clone()) // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                    .collect();
                vec![(
                    Fig7 {
                        pc: Pc::WriteSnap(Arc::new(view)),
                        ..self.clone()
                    },
                    memory.clone(),
                )]
            }
            Pc::WriteSnap(view) => {
                let mut m = memory.clone();
                m.update("snap", me, Cell::View(view.clone()));
                vec![(
                    Fig7 {
                        pc: Pc::ScanSnap,
                        ..self.clone()
                    },
                    m,
                )]
            }
            Pc::ScanSnap => {
                // (5) the minimal non-empty view; views are comparable, so
                // minimal size = minimal by containment. Also record the
                // largest view for anchor completion (module docs).
                let views: Vec<Arc<BTreeSet<Vertex>>> = memory
                    .present("snap")
                    .into_iter()
                    .map(|(_, c)| match c {
                        Cell::View(v) => v,
                        other => panic!("M_snap holds views, found {other}"), // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                    })
                    .collect();
                let core = views
                    .iter()
                    .min_by_key(|v| (v.len(), v.iter().next().cloned()))
                    .expect("own view was written") // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                    .clone();
                let seen: Arc<BTreeSet<Vertex>> =
                    Arc::new(views.iter().flat_map(|v| v.iter().cloned()).collect());
                // (6) pivot?
                if let Some(v) = core.iter().find(|v| v.color() == self.id) {
                    return vec![(
                        Fig7 {
                            decided: Some(v.clone()),
                            core,
                            seen,
                            ..self.clone()
                        },
                        memory.clone(),
                    )];
                }
                let pc = if core.len() == 2 {
                    Pc::ScanInPair
                } else {
                    Pc::ScanInSingle
                };
                vec![(
                    Fig7 {
                        pc,
                        core,
                        seen,
                        ..self.clone()
                    },
                    memory.clone(),
                )]
            }
            Pc::ScanInPair => {
                let tau = Self::scan_tau(memory);
                let anchor = self.pick_anchor(config, &tau);
                vec![(
                    Fig7 {
                        pc: Pc::WriteDecPair,
                        anchor: Some(anchor),
                        ..self.clone()
                    },
                    memory.clone(),
                )]
            }
            Pc::WriteDecPair => {
                let anchor = self.anchor.clone().expect("set at (7b)"); // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                let mut m = memory.clone();
                m.update(
                    "dec",
                    me,
                    Cell::Decision {
                        anchor: anchor.clone(),
                        current: anchor,
                        core: self.core.clone(),
                    },
                );
                vec![(
                    Fig7 {
                        pc: Pc::ScanDecPair,
                        ..self.clone()
                    },
                    m,
                )]
            }
            Pc::ScanDecPair => match Self::other_entry(memory, me) {
                None => {
                    // (7d) alone in M_decisions: decide the anchor.
                    vec![(
                        Fig7 {
                            decided: Some(self.anchor.clone().expect("set at (7b)")), // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                            ..self.clone()
                        },
                        memory.clone(),
                    )]
                }
                Some((_, _, _, w)) => {
                    // (7e) the other core must be a singleton (two
                    // non-pivots cannot share a 2-core: their colors would
                    // both be missing from it).
                    assert_eq!(w.len(), 1, "other non-pivot core must be singleton");
                    vec![(
                        Fig7 {
                            pc: Pc::ScanInSingle,
                            core: w,
                            ..self.clone()
                        },
                        memory.clone(),
                    )]
                }
            },
            Pc::ScanInSingle => {
                let tau = Self::scan_tau(memory);
                // (10) pick the anchor only if (7) was skipped.
                let anchor = match &self.anchor {
                    Some(a) => a.clone(),
                    None => self.pick_anchor(config, &tau),
                };
                vec![(
                    Fig7 {
                        pc: Pc::WriteDecSingle,
                        anchor: Some(anchor),
                        ..self.clone()
                    },
                    memory.clone(),
                )]
            }
            Pc::WriteDecSingle => {
                let anchor = self.anchor.clone().expect("set by (10)"); // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                let mut m = memory.clone();
                m.update(
                    "dec",
                    me,
                    Cell::Decision {
                        anchor: anchor.clone(),
                        current: anchor,
                        core: self.core.clone(),
                    },
                );
                vec![(
                    Fig7 {
                        pc: Pc::ScanDecSingle,
                        ..self.clone()
                    },
                    m,
                )]
            }
            Pc::ScanDecSingle => match Self::other_entry(memory, me) {
                None => vec![(
                    Fig7 {
                        decided: Some(self.anchor.clone().expect("set by (10)")), // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                        ..self.clone()
                    },
                    memory.clone(),
                )],
                Some((j, _, _, _)) => vec![(
                    Fig7 {
                        pc: Pc::PathSetup,
                        other: Some(j),
                        ..self.clone()
                    },
                    memory.clone(),
                )],
            },
            Pc::PathSetup => {
                // (13) with the clarification from the module docs: τ is
                // scanned now, when all three M_in entries are visible.
                let tau = Self::scan_tau(memory);
                let j = self.other.expect("set at (12)") as usize; // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                let (their_anchor, their_current) = {
                    let (slot, a, cur, _) =
                        Self::other_entry(memory, me).expect("observed at (12)"); // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                    debug_assert_eq!(slot as usize, j);
                    (a, cur)
                };
                let my_anchor = self.anchor.clone().expect("set by (10)"); // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                let lk = config.link_graph(&tau, self.core_vertex());
                let path = self.negotiation_path(&lk, &tau, &my_anchor, &their_anchor);
                // (14) exit check against the freshly scanned proposal.
                if lk.has_edge(&my_anchor, &their_current) {
                    return vec![(
                        Fig7 {
                            decided: Some(my_anchor),
                            ..self.clone()
                        },
                        memory.clone(),
                    )];
                }
                let next = next_proposal(&path, &my_anchor, &their_current);
                vec![(
                    Fig7 {
                        pc: Pc::LoopWrite(next),
                        ..self.clone()
                    },
                    memory.clone(),
                )]
            }
            Pc::LoopWrite(proposal) => {
                let mut m = memory.clone();
                m.update(
                    "dec",
                    me,
                    Cell::Decision {
                        anchor: self.anchor.clone().expect("set by (10)"), // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                        current: proposal.clone(),
                        core: self.core.clone(),
                    },
                );
                vec![(
                    Fig7 {
                        pc: Pc::LoopScan(proposal.clone()),
                        ..self.clone()
                    },
                    m,
                )]
            }
            Pc::LoopScan(proposal) => {
                let (_, their_anchor, their_current, _) =
                    Self::other_entry(memory, me).expect("other non-pivot wrote before"); // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                let tau = Self::scan_tau(memory);
                let lk = config.link_graph(&tau, self.core_vertex());
                if lk.has_edge(proposal, &their_current) {
                    return vec![(
                        Fig7 {
                            decided: Some(proposal.clone()),
                            ..self.clone()
                        },
                        memory.clone(),
                    )];
                }
                let my_anchor = self.anchor.clone().expect("set by (10)"); // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
                let path = self.negotiation_path(&lk, &tau, &my_anchor, &their_anchor);
                let next = next_proposal(&path, proposal, &their_current);
                vec![(
                    Fig7 {
                        pc: Pc::LoopWrite(next),
                        ..self.clone()
                    },
                    memory.clone(),
                )]
            }
        }
    }
}

/// (14a) the next proposal: the vertex adjacent to the other's current
/// proposal on `Π`, on the side of my current position (strictly inside
/// the sub-path between the two prior proposals).
fn next_proposal(path: &[Vertex], mine: &Vertex, theirs: &Vertex) -> Vertex {
    let my_pos = path
        .iter()
        .position(|v| v == mine)
        .expect("my proposal lies on Π"); // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
    let their_pos = path
        .iter()
        .position(|v| v == theirs)
        .expect("the other proposal lies on Π"); // chromata-lint: allow(P1): protocol-state invariant of the color-fixing algorithm; step() panics are caught by try_par_map and surface as ExploreError::WorkerPanicked
    debug_assert_ne!(my_pos, their_pos, "proposals have different colors");
    if my_pos < their_pos {
        path[their_pos - 1].clone()
    } else {
        path[their_pos + 1].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, run_random};
    use chromata_task::library::{constant_task, identity_task};

    fn run_exhaustive(task: &Task, participants: &Simplex) -> Vec<Vec<Vertex>> {
        let config = Fig7Config::new(task.clone());
        let procs = processes_for(participants);
        let r = explore(procs, initial_memory(), &config, 2_000_000, 200)
            .expect("exploration within budget");
        r.outcomes.into_iter().collect()
    }

    #[test]
    fn identity_task_all_schedules_correct() {
        let t = identity_task(3);
        let sigma = t.input().facets().next().unwrap().clone();
        for outcome in run_exhaustive(&t, &sigma) {
            let decided = Simplex::new(outcome.clone());
            assert!(
                t.delta().carries(&sigma, &decided),
                "outputs {decided} escape Δ(σ)"
            );
            for (k, v) in outcome.iter().enumerate() {
                assert_eq!(v.color().index() as usize, k, "own color decided");
            }
        }
    }

    #[test]
    fn constant_task_solo_and_pairs() {
        let t = constant_task(3);
        let sigma = t.input().facets().next().unwrap().clone();
        for tau in sigma.faces() {
            for outcome in run_exhaustive(&t, &tau) {
                let decided = Simplex::new(outcome.clone());
                assert!(t.delta().carries(&tau, &decided));
            }
        }
    }

    #[test]
    fn random_schedules_match_spec() {
        let t = identity_task(3);
        let sigma = t.input().facets().next().unwrap().clone();
        let config = Fig7Config::new(t.clone());
        for seed in 0..100 {
            let outcome = run_random(
                processes_for(&sigma),
                initial_memory(),
                &config,
                seed,
                10_000,
            )
            .expect("terminates");
            assert!(t.delta().carries(&sigma, &Simplex::new(outcome)));
        }
    }
}
