// Fixture: rule L2 — lock-order cycles and locks held across I/O. The
// harness feeds this file in as `crates/fixture/src/serve.rs` so it
// lands in L2's scope; the `PersistIo` trait declared here seeds the I/O
// vocabulary exactly like the real seam does.

use std::sync::{Mutex, MutexGuard, PoisonError};

pub trait PersistIo {
    fn write_tmp(&self, slot: usize, body: &str) -> bool;
}

pub struct Shared {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
    io: Box<dyn PersistIo>,
}

fn lock(m: &Mutex<u32>) -> MutexGuard<'_, u32> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// `alpha` then `beta`: one half of the order cycle. The cycle finding
// anchors at the *second* acquisition of the lexicographically first
// edge — this one.
pub fn forward(s: &Shared) -> u32 {
    let a = s.alpha.lock().unwrap_or_else(PoisonError::into_inner);
    let b = s.beta.lock().unwrap_or_else(PoisonError::into_inner); //~ L2
    *a + *b
}

// `beta` then `alpha`: the other half.
pub fn backward(s: &Shared) -> u32 {
    let b = s.beta.lock().unwrap_or_else(PoisonError::into_inner);
    let a = s.alpha.lock().unwrap_or_else(PoisonError::into_inner);
    *a + *b
}

// A guard held across the `PersistIo` seam: a stalled disk now extends
// the critical section. The finding anchors at the acquisition.
pub fn held_across(s: &Shared) -> bool {
    let a = s.alpha.lock().unwrap_or_else(PoisonError::into_inner); //~ L2
    let r = s.io.write_tmp(*a as usize, "body");
    r
}

// Dropping the guard before the I/O is the sanctioned shape: clean.
pub fn drop_first(s: &Shared) -> bool {
    let a = lock(&s.alpha);
    let slot = *a as usize;
    drop(a);
    s.io.write_tmp(slot, "body")
}

// So is scoping the guard into its own block.
pub fn scope_first(s: &Shared) -> bool {
    let slot = {
        let a = lock(&s.alpha);
        *a as usize
    };
    s.io.write_tmp(slot, "body")
}
