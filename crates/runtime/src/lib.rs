//! Shared-memory runtime: schedulers, snapshot objects and the paper's
//! Figure 7 algorithm.
//!
//! This crate makes the operational side of *"Solvability
//! Characterization for General Three-Process Tasks"* (PODC 2025)
//! executable:
//!
//! * [`Memory`] / [`Cell`] — simulated single-writer snapshot objects
//!   with atomic `update`/`scan` (§2.1);
//! * [`explore_crash`] — the one state-memoizing model checker,
//!   enumerating **every** interleaving (and internal nondeterministic
//!   branch) of a set of [`Process`] state machines and every pattern of
//!   up to `max_crashes` injected crash faults; every failure carries a
//!   replayable one-line [`Trace`]. [`explore`] and [`find_violation`]
//!   are its failure-free (`max_crashes = 0`) case; [`replay`],
//!   [`run_random`] and [`FaultPlan`]-driven runs execute one schedule;
//! * [`oracle_register`] / [`oracle_return`] — the late-binding
//!   adversarial *color-agnostic* oracle standing in for the `A_C` of
//!   §5.2 (see DESIGN.md, substitutions);
//! * [`Fig7`] — the paper's Figure 7 algorithm as an explicit state
//!   machine; [`verify_figure7_with_crashes`] machine-checks
//!   *wait-freedom* (survivors decide within `Δ(participating)`) under
//!   every crash pattern, and [`verify_figure7`], its failure-free case,
//!   exhaustively validates Lemma 5.3;
//! * [`IteratedImmediateSnapshot`] — the Borowsky–Gafni immediate
//!   snapshot, iterated; [`empirical_protocol_complex`] (one round) and
//!   [`empirical_iterated_protocol_complex`] regenerate `Ch(σ)` and
//!   `Ch^r(σ)` from actual executions (cross-validated against the
//!   combinatorial subdivision);
//! * [`execute_decision_map`] — protocol extraction: a chromatic decision
//!   map `δ : Ch^r(I) → O` run as an actual `r`-round protocol and
//!   model-checked against the task;
//! * [`AtomicSnapshot`] — a real multi-threaded double-collect snapshot
//!   with embedded scans, stress-tested under true parallelism.
//!
//! ```
//! use chromata_runtime::verify_figure7;
//! use chromata_task::library::identity_task;
//!
//! // Exhaustively verify Lemma 5.3 on the identity task: all participant
//! // sets, all interleavings, all oracle behaviours.
//! let report = verify_figure7(&identity_task(3), 1_000_000)?;
//! assert_eq!(report.participant_sets, 7);
//! # Ok::<(), chromata_runtime::VerifyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod color_fix;
mod explore;
mod fault;
mod iterated;
mod memory;
mod oracle;
mod protocol;
mod snapshot;
mod verify;

pub use cell::Cell;
pub use chromata_topology::{Budget, CancelToken, Interrupt};
pub use color_fix::{initial_memory, processes_for, Fig7, Fig7Config, OBJECTS};
pub use explore::{
    explore, find_violation, replay, run_random, ExploreError, Explored, Outcome, Process, Trace,
    TraceEvent,
};
pub use fault::{
    explore_crash, replay_trace, run_random_faulted, CrashExplored, CrashFault, CrashOutcome,
    FaultPlan,
};
pub use iterated::{
    empirical_iterated_protocol_complex, empirical_protocol_complex, IteratedConfig,
    IteratedImmediateSnapshot, MAX_ROUNDS,
};
pub use memory::{Memory, ObjectId};
pub use oracle::{
    branch_count, oracle_register, oracle_return, ORACLE_PARTICIPANTS, ORACLE_TARGET,
};
pub use protocol::{execute_decision_map, DecisionConfig, DecisionProtocol};
pub use snapshot::AtomicSnapshot;
pub use verify::{verify_figure7, verify_figure7_with_crashes, VerificationReport, VerifyError};
