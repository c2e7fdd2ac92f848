//! Deterministic fork-join parallelism over slices.
//!
//! [`par_map`] fans a pure function out over a slice with scoped threads
//! and returns results in input order, so callers observe exactly the
//! serial semantics. When the process may use one CPU only (the count
//! `std::thread::available_parallelism` reports, which follows the CPU
//! affinity mask, so `taskset -c 0` selects it) or the slice is small,
//! it is a plain serial map — same results, no threads.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Minimum number of items per worker before spawning threads pays off;
/// below `2 * MIN_CHUNK` items the serial path is used.
const MIN_CHUNK: usize = 8;

/// A structured record of a panic caught inside a [`try_par_map`] worker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WorkerPanic {
    /// Index (into the input slice) of the item whose invocation panicked.
    pub index: usize,
    /// The panic payload rendered as text (`String`/`&str` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on item {}: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Renders a panic payload as text.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "<non-string panic payload>".to_owned())
}

/// Applies `f` to every item of `items`, returning results in input order.
///
/// The function must be pure up to the returned value: invocation order
/// across items is unspecified when the slice is fanned out over threads,
/// but the output vector is always index-aligned with the input slice, so
/// any deterministic `f` yields a deterministic result.
///
/// A panic inside `f` is re-raised on the calling thread (via
/// [`try_par_map`]), so the historical "panics propagate" behaviour is
/// preserved for callers that don't want structured errors.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match try_par_map(items, f) {
        Ok(out) => out,
        Err(p) => resume_unwind(Box::new(p.message)),
    }
}

/// Panic-safe [`par_map`]: applies `f` to every item, catching panics in
/// the workers and converting the first one (in input order) into a
/// structured [`WorkerPanic`] instead of poisoning or aborting the fan-out.
///
/// Threads are spawned only when `available_parallelism()` is above 1
/// and the slice holds at least `2 * MIN_CHUNK` (16) items; otherwise the
/// items are mapped in order on the calling thread.
///
/// # Errors
///
/// Returns the first caught [`WorkerPanic`] in input order.
pub fn try_par_map<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let guarded = |base: usize, c: &[T]| -> Result<Vec<R>, WorkerPanic> {
        c.iter()
            .enumerate()
            .map(|(k, item)| {
                catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| WorkerPanic {
                    index: base + k,
                    message: payload_message(payload.as_ref()),
                })
            })
            .collect()
    };
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if workers == 1 || items.len() < 2 * MIN_CHUNK {
        return guarded(0, items);
    }
    let chunk = (items.len().div_ceil(workers)).max(MIN_CHUNK);
    let guarded = &guarded;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(w, c)| scope.spawn(move || guarded(w * chunk, c)))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        let mut first_panic: Option<WorkerPanic> = None;
        for h in handles {
            // Workers catch panics internally; join only fails on
            // catastrophic (non-unwinding) termination.
            // chromata-lint: allow(P1): join fails only when a worker panicked; par_map documents that propagation
            match h.join().expect("par_map worker terminated abnormally") {
                Ok(mut part) => out.append(&mut part),
                Err(p) => {
                    if first_panic.as_ref().is_none_or(|q| p.index < q.index) {
                        first_panic = Some(p);
                    }
                }
            }
        }
        match first_panic {
            None => Ok(out),
            Some(p) => Err(p),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |x| x * x);
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_and_small_inputs() {
        let none: Vec<u32> = Vec::new();
        assert_eq!(par_map(&none, |x| *x), Vec::<u32>::new());
        assert_eq!(par_map(&[7], |x| x + 1), vec![8]);
    }

    #[test]
    fn try_par_map_catches_panics_serially_and_in_parallel() {
        // Small input (serial path) and large input (threaded path on a
        // machine with more than one CPU): both must yield a structured
        // error naming the first offending index, not a propagated panic.
        for n in [4usize, 1000] {
            let items: Vec<usize> = (0..n).collect();
            let err = try_par_map(&items, |&x| {
                assert!(x != 3, "boom at {x}");
                x * 2
            })
            .unwrap_err();
            assert_eq!(err.index, 3);
            assert!(err.message.contains("boom at 3"), "{}", err.message);
            assert!(err.to_string().contains("item 3"));
        }
    }

    #[test]
    fn try_par_map_ok_matches_par_map() {
        let items: Vec<u64> = (0..500).collect();
        assert_eq!(
            try_par_map(&items, |x| x + 1).unwrap(),
            par_map(&items, |x| x + 1)
        );
    }

    #[test]
    fn par_map_still_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            par_map(&[1, 2, 3], |&x| {
                assert!(x != 2, "kaboom");
                x
            })
        });
        assert!(caught.is_err());
    }
}
