//! Immediate snapshot and its iteration: the full-information protocol
//! of §2.4.
//!
//! The paper's model assumes processes communicate by immediate
//! snapshots (§2.1). Each round here is the classic Borowsky–Gafni
//! *levels* algorithm built from update/scan operations; the one-shot
//! immediate snapshot is the one-round protocol, whose executions form
//! the standard chromatic subdivision `Ch(σ)` (§2.4, 13 facets for a
//! triangle). Round `r + 1`'s input is the view vertex produced by round
//! `r`; after `R` rounds the decided views generate — execution by
//! execution — the iterated chromatic subdivision `Ch^R(σ)`, which this
//! module regenerates *empirically* under the exhaustive scheduler and
//! cross-validates against the combinatorial construction.

use std::collections::BTreeSet;

use chromata_topology::{Color, Complex, Simplex, Value, Vertex};

use crate::cell::Cell;
use crate::explore::{explore, ExploreError, Process};
use crate::memory::Memory;

/// Maximum supported round count (object names are static).
pub const MAX_ROUNDS: usize = 4;

const LEVEL_OBJECTS: [&str; MAX_ROUNDS] = ["level0", "level1", "level2", "level3"];
const INPUT_OBJECTS: [&str; MAX_ROUNDS] = ["input0", "input1", "input2", "input3"];

/// One process of the `R`-round iterated immediate-snapshot protocol
/// (each round a Borowsky–Gafni one-shot immediate snapshot).
///
/// In each round the process descends through levels `n, n-1, …`: at
/// level `ℓ` it writes its level, scans, and returns the set of
/// processes at level `≤ ℓ` if that set has at least `ℓ` members.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IteratedImmediateSnapshot {
    id: u8,
    current: Vertex,
    rounds: usize,
    round: usize,
    n: usize,
    level: usize,
    pending_scan: bool,
    decided: Option<Vertex>,
}

/// Configuration: none.
#[derive(Clone, Debug, Default)]
pub struct IteratedConfig;

impl IteratedImmediateSnapshot {
    /// Processes for the participants of `inputs`, running `rounds`
    /// rounds among `n` potential processes.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is 0 or exceeds [`MAX_ROUNDS`].
    #[must_use]
    pub fn processes_for(inputs: &Simplex, n: usize, rounds: usize) -> Vec<Self> {
        assert!(
            (1..=MAX_ROUNDS).contains(&rounds),
            "1..={MAX_ROUNDS} rounds"
        );
        inputs
            .iter()
            .map(|x| IteratedImmediateSnapshot {
                id: x.color().index(),
                current: x.clone(),
                rounds,
                round: 0,
                n,
                level: n + 1,
                pending_scan: false,
                decided: None,
            })
            .collect()
    }

    /// Initial memory for `slots` register slots.
    #[must_use]
    pub fn initial_memory(slots: usize, rounds: usize) -> Memory {
        let names: Vec<&'static str> = LEVEL_OBJECTS[..rounds]
            .iter()
            .chain(&INPUT_OBJECTS[..rounds])
            .copied()
            .collect();
        Memory::with_objects(&names, slots)
    }
}

impl Process for IteratedImmediateSnapshot {
    type Config = IteratedConfig;

    fn decided(&self) -> Option<&Vertex> {
        self.decided.as_ref()
    }

    fn step(&self, _config: &IteratedConfig, memory: &Memory) -> Vec<(Self, Memory)> {
        let level_obj = LEVEL_OBJECTS[self.round];
        let input_obj = INPUT_OBJECTS[self.round];
        if !self.pending_scan {
            let mut m = memory.clone();
            let level = self.level - 1;
            m.update(
                input_obj,
                self.id as usize,
                Cell::Vertex(self.current.clone()),
            );
            m.update(level_obj, self.id as usize, Cell::Int(level as i64));
            return vec![(
                IteratedImmediateSnapshot {
                    level,
                    pending_scan: true,
                    ..self.clone()
                },
                m,
            )];
        }
        let at_or_below: Vec<usize> = memory
            .present(level_obj)
            .into_iter()
            .filter(|(_, c)| c.as_int().expect("levels") <= self.level as i64) // chromata-lint: allow(P1): memory-layout invariant maintained by this protocol's own writes; step() panics surface as ExploreError::WorkerPanicked
            .map(|(slot, _)| slot)
            .collect();
        if at_or_below.len() >= self.level {
            let view: BTreeSet<Vertex> = at_or_below
                .iter()
                .map(|&slot| {
                    memory
                        .read(input_obj, slot)
                        .expect("input written with level") // chromata-lint: allow(P1): memory-layout invariant maintained by this protocol's own writes; step() panics surface as ExploreError::WorkerPanicked
                        .as_vertex()
                        .expect("inputs are vertices") // chromata-lint: allow(P1): memory-layout invariant maintained by this protocol's own writes; step() panics surface as ExploreError::WorkerPanicked
                        .clone()
                })
                .collect();
            let out = Vertex::new(Color::new(self.id), Value::view(view));
            if self.round + 1 == self.rounds {
                return vec![(
                    IteratedImmediateSnapshot {
                        decided: Some(out),
                        ..self.clone()
                    },
                    memory.clone(),
                )];
            }
            return vec![(
                IteratedImmediateSnapshot {
                    current: out,
                    round: self.round + 1,
                    level: self.n + 1,
                    pending_scan: false,
                    ..self.clone()
                },
                memory.clone(),
            )];
        }
        vec![(
            IteratedImmediateSnapshot {
                pending_scan: false,
                ..self.clone()
            },
            memory.clone(),
        )]
    }
}

/// Runs all one-round immediate-snapshot executions on `inputs` and
/// returns the complex of decided view-simplices — the *empirical*
/// protocol complex `Ch(σ)`.
///
/// # Errors
///
/// Propagates exploration budget errors.
pub fn empirical_protocol_complex(inputs: &Simplex) -> Result<Complex, ExploreError> {
    empirical_iterated_protocol_complex(inputs, 1)
}

/// Enumerates every `rounds`-round iterated-immediate-snapshot execution
/// on `inputs`, returning the complex generated by the decided views —
/// the empirical `Ch^rounds(σ)`.
///
/// # Errors
///
/// Propagates exploration budget errors.
///
/// # Panics
///
/// Panics if `rounds` is out of range.
pub fn empirical_iterated_protocol_complex(
    inputs: &Simplex,
    rounds: usize,
) -> Result<Complex, ExploreError> {
    let n = inputs.colors().len();
    let slots = inputs
        .iter()
        .map(|v| v.color().index() as usize + 1)
        .max()
        .unwrap_or(0);
    let procs = IteratedImmediateSnapshot::processes_for(inputs, n, rounds);
    let explored = explore(
        procs,
        IteratedImmediateSnapshot::initial_memory(slots, rounds),
        &IteratedConfig,
        50_000_000,
        100_000,
    )?;
    Ok(Complex::from_facets(
        explored.outcomes.into_iter().map(Simplex::new),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_subdivision::{chromatic_subdivision, iterated_chromatic_subdivision};

    fn sigma(n: u8) -> Simplex {
        Simplex::from_iter((0..n).map(|i| Vertex::of(i, i64::from(i))))
    }

    #[test]
    fn two_process_executions_match_ch() {
        let s = sigma(2);
        let empirical = empirical_protocol_complex(&s).expect("small");
        assert_eq!(empirical.facet_count(), 3, "3 ordered partitions of 2");
        let combinatorial = chromatic_subdivision(&Complex::from_facets([s]));
        assert_eq!(empirical, combinatorial.complex);
    }

    #[test]
    fn three_process_executions_match_ch() {
        let s = sigma(3);
        let empirical = empirical_protocol_complex(&s).expect("within budget");
        assert_eq!(empirical.facet_count(), 13, "the 13 facets of Ch(Δ²)");
        let combinatorial = chromatic_subdivision(&Complex::from_facets([s]));
        assert_eq!(empirical, combinatorial.complex);
    }

    #[test]
    fn views_are_immediate_snapshots() {
        // Self-inclusion and comparability of the decided views.
        let s = sigma(3);
        let empirical = empirical_protocol_complex(&s).expect("within budget");
        for facet in empirical.facets() {
            for v in facet {
                let view = v.value().as_view().expect("views");
                assert!(
                    view.iter().any(|u| u.color() == v.color()),
                    "self-inclusion"
                );
            }
            // Views within one execution are totally ordered by inclusion.
            let mut views: Vec<&[Vertex]> = facet
                .iter()
                .map(|v| v.value().as_view().expect("views"))
                .collect();
            views.sort_by_key(|v| v.len());
            for w in views.windows(2) {
                let small: BTreeSet<&Vertex> = w[0].iter().collect();
                let big: BTreeSet<&Vertex> = w[1].iter().collect();
                assert!(small.is_subset(&big), "views form a chain");
            }
        }
    }

    #[test]
    fn solo_execution_sees_itself_only() {
        let solo = Simplex::vertex(Vertex::of(1, 1));
        let procs = IteratedImmediateSnapshot::processes_for(&solo, 3, 1);
        let explored = explore(
            procs,
            IteratedImmediateSnapshot::initial_memory(3, 1),
            &IteratedConfig,
            10_000,
            1000,
        )
        .expect("tiny");
        assert_eq!(explored.outcomes.len(), 1);
        let out = explored.outcomes.iter().next().unwrap();
        let view = out[0].value().as_view().unwrap();
        assert_eq!(view, &[Vertex::of(1, 1)]);
    }

    #[test]
    fn two_rounds_two_processes_match_ch2() {
        let s = sigma(2);
        let empirical = empirical_iterated_protocol_complex(&s, 2).expect("budget");
        assert_eq!(empirical.facet_count(), 9, "3² edges");
        let combinatorial = iterated_chromatic_subdivision(&Complex::from_facets([s]), 2);
        assert_eq!(empirical, combinatorial.complex);
    }

    #[test]
    fn two_rounds_three_processes_match_ch2() {
        let s = sigma(3);
        let empirical = empirical_iterated_protocol_complex(&s, 2).expect("budget");
        assert_eq!(empirical.facet_count(), 169, "13² triangles");
        let combinatorial = iterated_chromatic_subdivision(&Complex::from_facets([s]), 2);
        assert_eq!(empirical, combinatorial.complex);
    }

    #[test]
    fn three_rounds_two_processes_match_ch3() {
        let s = sigma(2);
        let empirical = empirical_iterated_protocol_complex(&s, 3).expect("budget");
        assert_eq!(empirical.facet_count(), 27);
        let combinatorial = iterated_chromatic_subdivision(&Complex::from_facets([s]), 3);
        assert_eq!(empirical, combinatorial.complex);
    }

    #[test]
    #[should_panic(expected = "rounds")]
    fn zero_rounds_rejected() {
        let _ = IteratedImmediateSnapshot::processes_for(&sigma(2), 2, 0);
    }
}
