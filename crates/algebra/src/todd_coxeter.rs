//! Bounded Todd–Coxeter coset enumeration.
//!
//! When the edge-path group of an output complex is *finite*, coset
//! enumeration over the trivial subgroup terminates and yields an exact
//! word-problem decision procedure — one of the decidable regimes used by
//! the contractibility tier of the solvability pipeline (paper, §5; the
//! general problem is undecidable, §7). The enumeration is bounded: if the
//! coset table exceeds the budget, the caller falls back to weaker tiers.
//! A closed table proves the group finite, so the word-problem tiers do
//! not call this at all when the relator lattice has rank below the
//! generator count: `G^ab` then has a ℤ summand, and no budget would do.
//!
//! chromata-lint: allow(P3): coset-table indices are bounded by the table length, which the enumeration loop grows before any row is addressed; every site is advisory-flagged by P2 for per-site review

use crate::presentation::Presentation;
use crate::word::Word;

/// Outcome of a bounded coset enumeration.
#[derive(Clone, Debug)]
pub enum Enumeration {
    /// The enumeration closed: the group is finite with the given order and
    /// complete coset table.
    Finite(CosetTable),
    /// The coset budget was exhausted (group may be infinite or just large).
    OutOfBounds,
}

/// A complete coset table over the trivial subgroup: row per coset, column
/// per generator letter; the group order is the number of live cosets.
#[derive(Clone, Debug)]
pub struct CosetTable {
    generators: usize,
    /// `rows[c][l]` = target coset of coset `c` under letter `l`
    /// (letters: `2k` = generator `k`, `2k+1` = its inverse).
    rows: Vec<Vec<usize>>,
}

impl CosetTable {
    /// The order of the group (number of cosets of the trivial subgroup).
    #[must_use]
    pub fn order(&self) -> usize {
        self.rows.len()
    }

    /// Traces a word from the identity coset; the word represents the
    /// identity element iff the trace returns to coset `0`.
    ///
    /// # Panics
    ///
    /// Panics if the word mentions a generator outside the presentation.
    #[must_use]
    pub fn trace_from_identity(&self, w: &[i32]) -> usize {
        let mut c = 0usize;
        for &x in w {
            let g = (x.unsigned_abs() as usize) - 1;
            assert!(g < self.generators, "letter {x} out of range");
            let l = 2 * g + usize::from(x < 0);
            c = self.rows[c][l];
        }
        c
    }

    /// Whether `w` represents the identity element of the group.
    #[must_use]
    pub fn is_identity(&self, w: &[i32]) -> bool {
        self.trace_from_identity(w) == 0
    }
}

/// Runs coset enumeration for the trivial subgroup of the presented group,
/// creating at most `max_cosets` cosets.
///
/// # Examples
///
/// ```
/// use chromata_algebra::{coset_enumeration, Enumeration, Presentation};
///
/// // ⟨ a | a³ ⟩ = Z/3.
/// let p = Presentation::new(1, vec![vec![1, 1, 1]]);
/// match coset_enumeration(&p, 100) {
///     Enumeration::Finite(t) => {
///         assert_eq!(t.order(), 3);
///         assert!(t.is_identity(&[1, 1, 1]));
///         assert!(!t.is_identity(&[1]));
///     }
///     Enumeration::OutOfBounds => panic!("Z/3 is tiny"),
/// }
/// ```
#[must_use]
pub fn coset_enumeration(p: &Presentation, max_cosets: usize) -> Enumeration {
    let g = p.generator_count();
    if g == 0 {
        return Enumeration::Finite(CosetTable {
            generators: 0,
            rows: vec![vec![]],
        });
    }
    let mut e = Enumerator::new(g, max_cosets);
    match e.run(p.relators()) {
        Ok(()) => Enumeration::Finite(e.into_table()),
        Err(Overflow) => Enumeration::OutOfBounds,
    }
}

struct Overflow;

struct Enumerator {
    generators: usize,
    /// table[c][l]: Option<coset>; entries may reference dead cosets and
    /// must be read through `rep`.
    table: Vec<Vec<Option<usize>>>,
    parent: Vec<usize>,
    /// Number of live cosets (those with `parent[c] == c`), kept current by
    /// `define` and `process_coincidences`.
    live: usize,
    max_cosets: usize,
    pending: Vec<(usize, usize)>,
}

impl Enumerator {
    fn new(generators: usize, max_cosets: usize) -> Self {
        Enumerator {
            generators,
            table: vec![vec![None; 2 * generators]],
            parent: vec![0],
            live: 1,
            max_cosets,
            pending: Vec::new(),
        }
    }

    fn letter(x: i32) -> usize {
        let g = (x.unsigned_abs() as usize) - 1;
        2 * g + usize::from(x < 0)
    }

    fn inv(l: usize) -> usize {
        l ^ 1
    }

    fn rep(&mut self, mut c: usize) -> usize {
        while self.parent[c] != c {
            self.parent[c] = self.parent[self.parent[c]];
            c = self.parent[c];
        }
        c
    }

    fn get(&mut self, c: usize, l: usize) -> Option<usize> {
        let c = self.rep(c);
        let t = self.table[c][l]?;
        Some(self.rep(t))
    }

    fn set(&mut self, c: usize, l: usize, t: usize) {
        let c = self.rep(c);
        let t = self.rep(t);
        match self.get(c, l) {
            None => {
                self.table[c][l] = Some(t);
                // Backward entry.
                match self.get(t, Self::inv(l)) {
                    None => self.table[t][Self::inv(l)] = Some(c),
                    Some(u) if u != c => self.pending.push((u, c)),
                    Some(_) => {}
                }
            }
            Some(u) if u != t => self.pending.push((u, t)),
            Some(_) => {}
        }
    }

    fn define(&mut self, c: usize, l: usize) -> Result<usize, Overflow> {
        if self.table.len() >= self.max_cosets {
            return Err(Overflow);
        }
        let n = self.table.len();
        self.table.push(vec![None; 2 * self.generators]);
        self.parent.push(n);
        self.live += 1;
        self.set(c, l, n);
        Ok(n)
    }

    fn process_coincidences(&mut self) {
        while let Some((a, b)) = self.pending.pop() {
            let a = self.rep(a);
            let b = self.rep(b);
            if a == b {
                continue;
            }
            let (keep, drop) = if a < b { (a, b) } else { (b, a) };
            self.parent[drop] = keep;
            self.live -= 1;
            for l in 0..2 * self.generators {
                if let Some(t) = self.table[drop][l] {
                    match self.get(keep, l) {
                        None => {
                            let t = self.rep(t);
                            self.table[keep][l] = Some(t);
                        }
                        Some(u) => {
                            let t = self.rep(t);
                            if t != u {
                                self.pending.push((t, u));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Scans relator `r` at coset `c`, filling gaps with new cosets.
    fn scan_and_fill(&mut self, c: usize, r: &Word) -> Result<(), Overflow> {
        loop {
            let c = self.rep(c);
            // Forward scan.
            let mut f = c;
            let mut i = 0usize;
            while i < r.len() {
                match self.get(f, Self::letter(r[i])) {
                    Some(t) => {
                        f = t;
                        i += 1;
                    }
                    None => break,
                }
            }
            if i == r.len() {
                if f != c {
                    self.pending.push((f, c));
                    self.process_coincidences();
                }
                return Ok(());
            }
            // Backward scan.
            let mut b = c;
            let mut j = r.len();
            while j > i {
                match self.get(b, Self::inv(Self::letter(r[j - 1]))) {
                    Some(t) => {
                        b = t;
                        j -= 1;
                    }
                    None => break,
                }
            }
            if j == i {
                if f != b {
                    self.pending.push((f, b));
                    self.process_coincidences();
                }
                return Ok(());
            }
            if j == i + 1 {
                // Deduction closes the scan.
                self.set(f, Self::letter(r[i]), b);
                self.process_coincidences();
                return Ok(());
            }
            // Fill one gap and rescan.
            self.define(f, Self::letter(r[i]))?;
            self.process_coincidences();
        }
    }

    fn run(&mut self, relators: &[Word]) -> Result<(), Overflow> {
        // Repeat passes until stable: scan every live coset against every
        // relator and fill every undefined entry. Coincidence processing
        // can invalidate earlier scans, hence the outer fixpoint loop.
        loop {
            let mut changed = false;
            let mut c = 0usize;
            while c < self.table.len() {
                if self.rep(c) != c {
                    c += 1;
                    continue;
                }
                for r in relators {
                    let before = self.live;
                    self.scan_and_fill(c, r)?;
                    debug_assert_eq!(
                        self.live,
                        self.parent
                            .iter()
                            .enumerate()
                            .filter(|&(c, &p)| p == c)
                            .count()
                    );
                    if self.live != before {
                        changed = true;
                    }
                    if self.rep(c) != c {
                        break; // this coset died; move on
                    }
                }
                if self.rep(c) == c {
                    for l in 0..2 * self.generators {
                        if self.get(c, l).is_none() {
                            self.define(c, l)?;
                            self.process_coincidences();
                            changed = true;
                        }
                    }
                }
                c += 1;
            }
            if !changed && self.is_complete() {
                return Ok(());
            }
            if !changed {
                // No structural change but incomplete: impossible, since
                // undefined entries are always filled above. Guard anyway.
                return Ok(());
            }
        }
    }

    fn is_complete(&mut self) -> bool {
        for c in 0..self.table.len() {
            if self.rep(c) != c {
                continue;
            }
            for l in 0..2 * self.generators {
                if self.get(c, l).is_none() {
                    return false;
                }
            }
        }
        true
    }

    fn into_table(mut self) -> CosetTable {
        // Compact live cosets.
        let live: Vec<usize> = (0..self.table.len())
            .filter(|&c| self.rep(c) == c)
            .collect();
        let index: std::collections::BTreeMap<usize, usize> =
            live.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let mut rows = Vec::with_capacity(live.len());
        for &c in &live {
            let mut row = Vec::with_capacity(2 * self.generators);
            for l in 0..2 * self.generators {
                let t = self.get(c, l).expect("table complete"); // chromata-lint: allow(P1): compaction runs only after the enumeration converged, so the coset table is total
                row.push(index[&t]);
            }
            rows.push(row);
        }
        CosetTable {
            generators: self.generators,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite(p: &Presentation, bound: usize) -> CosetTable {
        match coset_enumeration(p, bound) {
            Enumeration::Finite(t) => t,
            Enumeration::OutOfBounds => panic!("expected finite enumeration"),
        }
    }

    #[test]
    fn trivial_group() {
        let p = Presentation::new(1, vec![vec![1]]);
        assert_eq!(finite(&p, 100).order(), 1);
        let empty = Presentation::new(0, vec![]);
        assert_eq!(finite(&empty, 100).order(), 1);
    }

    #[test]
    fn cyclic_groups() {
        for n in 2..=7 {
            let p = Presentation::new(1, vec![vec![1; n]]);
            let t = finite(&p, 1000);
            assert_eq!(t.order(), n, "Z/{n}");
            assert!(t.is_identity(&vec![1; n]));
            assert!(!t.is_identity(&[1]));
        }
    }

    #[test]
    fn klein_four_group() {
        // ⟨ a, b | a², b², (ab)² ⟩ = Z/2 × Z/2.
        let p = Presentation::new(2, vec![vec![1, 1], vec![2, 2], vec![1, 2, 1, 2]]);
        let t = finite(&p, 1000);
        assert_eq!(t.order(), 4);
        assert!(t.is_identity(&[1, 2, 1, 2]));
        assert!(!t.is_identity(&[1, 2]));
    }

    #[test]
    fn symmetric_group_s3() {
        // ⟨ a, b | a², b², (ab)³ ⟩ = S3.
        let p = Presentation::new(2, vec![vec![1, 1], vec![2, 2], vec![1, 2, 1, 2, 1, 2]]);
        let t = finite(&p, 1000);
        assert_eq!(t.order(), 6);
        assert!(!t.is_identity(&[1, 2]));
        assert!(t.is_identity(&[1, 2, 1, 2, 1, 2]));
    }

    #[test]
    fn quaternion_group() {
        // ⟨ a, b | a⁴, a²b⁻², b⁻¹aba ⟩ = Q8.
        let p = Presentation::new(
            2,
            vec![vec![1, 1, 1, 1], vec![1, 1, -2, -2], vec![-2, 1, 2, 1]],
        );
        let t = finite(&p, 1000);
        assert_eq!(t.order(), 8);
    }

    #[test]
    fn infinite_group_hits_bound() {
        // Z = ⟨ a | ⟩ never closes.
        let p = Presentation::new(1, vec![]);
        assert!(matches!(
            coset_enumeration(&p, 64),
            Enumeration::OutOfBounds
        ));
    }

    #[test]
    fn word_tracing_in_z2() {
        let p = Presentation::new(1, vec![vec![1, 1]]);
        let t = finite(&p, 100);
        assert_eq!(t.order(), 2);
        assert!(t.is_identity(&[]));
        assert!(t.is_identity(&[1, 1]));
        assert!(t.is_identity(&[-1, -1]));
        assert!(!t.is_identity(&[1, 1, 1]));
    }
}
