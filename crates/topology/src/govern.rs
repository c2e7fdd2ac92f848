//! Resource governance: budgets and cooperative cancellation.
//!
//! Every potentially expensive computation in the workspace (the model
//! checker's state enumeration, the ACT backtracking search, the decision
//! pipeline's tiers) accepts a [`Budget`] and a [`CancelToken`] so that
//! exhaustion and cancellation degrade into structured answers instead of
//! runaway loops or panics. The contract is *cooperative*: long-running
//! loops call [`Budget::check`] at natural checkpoints (once per BFS
//! level, every few thousand backtrack nodes) and unwind with an
//! [`Interrupt`] when the deadline has passed or the token was cancelled.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic wall-clock stopwatch for stage-level evidence.
///
/// Rule D2 confines clock reads to this module: pipeline stages that want
/// to *report* how long they took (never to *decide* anything) start a
/// `Stopwatch` here and read the elapsed duration when they finish. The
/// measured time is diagnostic metadata — it must never feed a verdict,
/// a cache key, or any other deterministic output.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Wall-clock time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// A cooperative cancellation flag, cheaply cloneable and shareable
/// across threads. Cancelling any clone cancels them all.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every holder of a clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why a governed computation was interrupted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Interrupt {
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The [`Budget`] deadline passed.
    DeadlineExceeded,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "cancelled"),
            Interrupt::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl std::error::Error for Interrupt {}

/// Resource limits for a governed computation.
///
/// The numeric limits bound distinct search structures (explored states,
/// schedule steps, ACT subdivision rounds); the deadline bounds wall-clock
/// time across all of them. [`Budget::unlimited`] imposes nothing, so
/// ungoverned entry points keep their historical behaviour.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Absolute wall-clock deadline (`None` = no time limit).
    pub deadline: Option<Instant>,
    /// Maximum distinct system states the model checker may visit.
    pub max_states: usize,
    /// Maximum schedule steps (BFS depth / random-run length).
    pub max_steps: usize,
    /// Maximum subdivision rounds for the ACT fallback search.
    pub max_act_rounds: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget imposing no limits at all.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            max_states: usize::MAX,
            max_steps: usize::MAX,
            max_act_rounds: usize::MAX,
        }
    }

    /// Replaces the deadline with "`dur` from now".
    ///
    /// A duration too large for the platform's monotonic clock (e.g.
    /// `--budget-ms 18446744073709551615`) is unrepresentable as an
    /// [`Instant`]; it is treated as "no time limit" rather than
    /// panicking — callers hand us untrusted durations (CLI flags,
    /// `serve` requests), and a deadline centuries away is
    /// indistinguishable from none.
    #[must_use]
    pub fn with_deadline_in(mut self, dur: Duration) -> Self {
        // ~100 years. Some platforms can represent an `Instant` this far
        // out (Linux: i64 seconds) and some cannot; clamp explicitly so
        // "absurdly far away means unlimited" holds everywhere, then let
        // `checked_add` catch whatever the platform still can't encode.
        const FOREVER: Duration = Duration::from_secs(100 * 365 * 24 * 60 * 60);
        self.deadline = if dur >= FOREVER {
            None
        } else {
            Instant::now().checked_add(dur)
        };
        self
    }

    /// Replaces the state limit.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Replaces the step limit.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Replaces the ACT round limit.
    #[must_use]
    pub fn with_max_act_rounds(mut self, max_act_rounds: usize) -> Self {
        self.max_act_rounds = max_act_rounds;
        self
    }

    /// Whether the deadline has passed.
    #[must_use]
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The cooperative checkpoint: errors if `cancel` was triggered or
    /// the deadline has passed.
    ///
    /// # Errors
    ///
    /// Returns the corresponding [`Interrupt`].
    pub fn check(&self, cancel: &CancelToken) -> Result<(), Interrupt> {
        if cancel.is_cancelled() {
            return Err(Interrupt::Cancelled);
        }
        if self.deadline_exceeded() {
            return Err(Interrupt::DeadlineExceeded);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_interrupts() {
        let b = Budget::unlimited();
        let t = CancelToken::new();
        assert!(b.check(&t).is_ok());
        assert!(!b.deadline_exceeded());
    }

    #[test]
    fn cancellation_is_shared_between_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
        assert_eq!(Budget::unlimited().check(&u), Err(Interrupt::Cancelled));
    }

    #[test]
    fn elapsed_deadline_interrupts() {
        let b = Budget::unlimited().with_deadline_in(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert!(b.deadline_exceeded());
        assert_eq!(
            b.check(&CancelToken::new()),
            Err(Interrupt::DeadlineExceeded)
        );
    }

    #[test]
    fn huge_deadline_means_no_time_limit_not_a_panic() {
        // Regression: `Instant::now() + dur` panics on `Instant` overflow
        // for durations like `--budget-ms u64::MAX`; the checked variant
        // treats an unrepresentable deadline as "no time limit".
        let b = Budget::unlimited().with_deadline_in(Duration::from_millis(u64::MAX));
        assert!(b.deadline.is_none(), "overflowed deadline degrades to none");
        assert!(!b.deadline_exceeded());
        assert!(b.check(&CancelToken::new()).is_ok());
        // A representable deadline still works after the fix.
        let soon = Budget::unlimited().with_deadline_in(Duration::from_secs(3600));
        assert!(soon.deadline.is_some());
        assert!(!soon.deadline_exceeded());
    }

    #[test]
    fn builders_replace_limits() {
        let b = Budget::unlimited()
            .with_max_states(10)
            .with_max_steps(20)
            .with_max_act_rounds(3);
        assert_eq!(b.max_states, 10);
        assert_eq!(b.max_steps, 20);
        assert_eq!(b.max_act_rounds, 3);
    }

    #[test]
    fn interrupt_displays() {
        assert_eq!(Interrupt::Cancelled.to_string(), "cancelled");
        assert_eq!(Interrupt::DeadlineExceeded.to_string(), "deadline exceeded");
    }

    /// Exhaustive op-level model check of `CancelToken` (loom-style; see
    /// [`crate::interleave`]): every thread holds its own clone and runs
    /// `cancel` / `is_cancelled` ops in program order. For **every**
    /// interleaving, cancellation must be *sticky* (never un-cancels) and
    /// *shared* (once any clone's `cancel` commits, every later observer
    /// on any clone sees it). `--cfg chromata_loom` raises thread count
    /// and depth.
    #[test]
    fn cancel_token_exhaustive_interleavings() {
        use crate::interleave::{for_each_interleaving, max_threads};

        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Op {
            Cancel,
            Observe,
        }
        let threads = max_threads();
        // Thread 0 cancels then observes; the rest only observe. This is
        // the worst case for visibility: observers race the cancel.
        let programs: Vec<Vec<Op>> = (0..threads)
            .map(|t| {
                if t == 0 {
                    vec![Op::Cancel, Op::Observe]
                } else {
                    vec![Op::Observe, Op::Observe]
                }
            })
            .collect();
        let counts: Vec<usize> = programs.iter().map(Vec::len).collect();
        let mut schedules = 0usize;
        for_each_interleaving(&counts, |schedule| {
            schedules += 1;
            let token = CancelToken::new();
            let clones: Vec<CancelToken> = (0..threads).map(|_| token.clone()).collect();
            let mut pc = vec![0usize; threads];
            let mut cancelled = false;
            for &t in schedule {
                let op = programs[t][pc[t]];
                pc[t] += 1;
                match op {
                    Op::Cancel => {
                        clones[t].cancel();
                        cancelled = true;
                    }
                    Op::Observe => {
                        let seen = clones[t].is_cancelled();
                        // Sticky + shared: after the cancel committed,
                        // every clone observes it; before, none does.
                        assert_eq!(seen, cancelled, "schedule {schedule:?}");
                    }
                }
            }
            assert!(token.is_cancelled());
        });
        assert!(schedules >= 6, "expected full enumeration, got {schedules}");
    }

    /// Real-thread companion to the exhaustive check: hardware scheduling
    /// cannot contradict the op-level model (cancellation is eventually
    /// visible and final).
    #[test]
    fn cancel_token_cross_thread_visibility() {
        let token = CancelToken::new();
        let observer = token.clone();
        let handle = std::thread::spawn(move || {
            while !observer.is_cancelled() {
                std::hint::spin_loop();
            }
            observer.is_cancelled()
        });
        token.cancel();
        assert!(handle.join().unwrap());
        assert!(token.is_cancelled());
    }
}
