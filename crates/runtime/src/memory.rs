//! Simulated shared memory: named single-writer snapshot objects.
//!
//! The paper's model (§2.1) gives each process a single-writer
//! multi-reader register per object, with atomic `update` and `scan`
//! operations. The scheduler makes each operation one atomic step, so
//! updates and scans are linearizable by construction; the model checker
//! in [`crate::explore`] enumerates the interleavings of these steps.

use std::fmt;
use std::sync::Arc;

use crate::cell::Cell;

/// A named snapshot object identifier.
pub type ObjectId = &'static str;

/// The entire shared memory: name-sorted single-writer register arrays.
///
/// A step clones the memory it writes, and the model checker hashes
/// each memory a step returns to find its id in a per-search table that
/// keeps every distinct memory once. So the register arrays are
/// `Arc`-shared: a clone is
/// one small allocation plus refcount bumps, an `update` copies only the
/// one array it touches (copy-on-write via [`Arc::make_mut`]), and the
/// stored memories share their untouched arrays. Equality, ordering and
/// hashing all see through the `Arc` to the register contents.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Memory {
    objects: Vec<(ObjectId, Arc<Vec<Option<Cell>>>)>,
}

impl Memory {
    /// Creates a memory with the given objects, each an array of `n`
    /// empty registers.
    #[must_use]
    pub fn with_objects(names: &[ObjectId], n: usize) -> Self {
        let mut objects: Vec<(ObjectId, Arc<Vec<Option<Cell>>>)> = names
            .iter()
            .map(|&name| (name, Arc::new(vec![None; n])))
            .collect();
        objects.sort_by_key(|(name, _)| *name);
        Memory { objects }
    }

    fn regs(&self, object: ObjectId) -> &Vec<Option<Cell>> {
        self.objects
            .iter()
            .find(|(name, _)| *name == object)
            .map(|(_, regs)| regs.as_ref())
            .unwrap_or_else(|| panic!("unknown object {object}")) // chromata-lint: allow(P1): registering objects before use is the Memory contract, documented under # Panics
    }

    /// Atomic update: writes `value` into register `slot` of `object`.
    ///
    /// # Panics
    ///
    /// Panics if the object or slot does not exist.
    pub fn update(&mut self, object: ObjectId, slot: usize, value: Cell) {
        let regs = self
            .objects
            .iter_mut()
            .find(|(name, _)| *name == object)
            .map(|(_, regs)| Arc::make_mut(regs))
            .unwrap_or_else(|| panic!("unknown object {object}")); // chromata-lint: allow(P1): registering objects before use is the Memory contract, documented under # Panics
        assert!(slot < regs.len(), "slot {slot} out of range for {object}");
        regs[slot] = Some(value);
    }

    /// Atomic scan: returns the contents of every register of `object`.
    ///
    /// # Panics
    ///
    /// Panics if the object does not exist.
    #[must_use]
    pub fn scan(&self, object: ObjectId) -> Vec<Option<Cell>> {
        self.regs(object).clone()
    }

    /// Atomic read of a single register.
    ///
    /// # Panics
    ///
    /// Panics if the object or slot does not exist.
    #[must_use]
    pub fn read(&self, object: ObjectId, slot: usize) -> Option<Cell> {
        let regs = self.regs(object);
        assert!(slot < regs.len(), "slot {slot} out of range for {object}");
        regs[slot].clone()
    }

    /// The non-empty registers of `object` as `(slot, cell)` pairs.
    #[must_use]
    pub fn present(&self, object: ObjectId) -> Vec<(usize, Cell)> {
        self.regs(object)
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (i, c.clone())))
            .collect()
    }
}

impl fmt::Display for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, regs) in &self.objects {
            write!(f, "{name}: [")?;
            for (k, r) in regs.iter().enumerate() {
                if k > 0 {
                    write!(f, ", ")?;
                }
                match r {
                    Some(c) => write!(f, "{c}")?,
                    None => write!(f, "⊥")?,
                }
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_topology::Vertex;

    #[test]
    fn update_scan_roundtrip() {
        let mut m = Memory::with_objects(&["in", "out"], 3);
        assert!(m.scan("in").iter().all(Option::is_none));
        m.update("in", 1, Cell::Int(7));
        assert_eq!(m.read("in", 1), Some(Cell::Int(7)));
        assert_eq!(m.read("in", 0), None);
        assert_eq!(m.present("in"), vec![(1, Cell::Int(7))]);
    }

    #[test]
    fn single_writer_overwrite() {
        let mut m = Memory::with_objects(&["x"], 1);
        m.update("x", 0, Cell::Int(1));
        m.update("x", 0, Cell::Int(2));
        assert_eq!(m.read("x", 0), Some(Cell::Int(2)));
    }

    #[test]
    #[should_panic(expected = "unknown object")]
    fn unknown_object_panics() {
        let m = Memory::with_objects(&["x"], 1);
        let _ = m.scan("y");
    }

    #[test]
    fn memory_is_ordered_for_memoization() {
        let mut a = Memory::with_objects(&["x"], 1);
        let b = a.clone();
        assert_eq!(a, b);
        a.update("x", 0, Cell::Vertex(Vertex::of(0, 0)));
        assert_ne!(a, b);
        let mut set = std::collections::BTreeSet::new();
        set.insert(a.clone());
        set.insert(b);
        set.insert(a);
        assert_eq!(set.len(), 2);
    }
}
