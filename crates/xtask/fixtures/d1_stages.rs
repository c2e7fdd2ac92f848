// Fixture: rule D1 on a stage-cache-shaped module — the verdict
// engine's cache is HashMap-backed, so this pins down
// exactly which patterns the rule flags there and which the justified
// allow grammar clears. Linted with the verdict-path role; trailing
// tilde-comments mark the expected findings.

use std::collections::HashMap; //~ D1
use std::collections::VecDeque;

// The sanctioned shape: key-addressed map + explicit FIFO queue, with a
// site-level justification on the field. A justified allow is clean.
pub struct StageCache<K, V> {
    map: HashMap<K, V>, // chromata-lint: allow(D1): key-addressed only; recovery sorts by structural fingerprint
    queue: VecDeque<K>,
}

impl<K: Clone + std::hash::Hash + Eq, V> StageCache<K, V> {
    pub fn new() -> Self {
        StageCache {
            map: HashMap::new(), // chromata-lint: allow(D1): see the field's justification
            queue: VecDeque::new(),
        }
    }

    // An unjustified hash container on the verdict path still fires.
    pub fn shadow_index(&self) -> std::collections::HashSet<u64> { //~ D1
        std::collections::HashSet::new() //~ D1
    }

    pub fn evict_oldest(&mut self) -> Option<K> {
        let k = self.queue.pop_front()?;
        self.map.remove(&k);
        Some(k)
    }
}

#[cfg(test)]
mod tests {
    // Test-gated code is out of scope: hash iteration cannot leak into
    // shipped verdicts from here.
    use std::collections::HashMap;

    #[test]
    fn torn_state_models_may_hash_freely() {
        let m: HashMap<u32, u32> = HashMap::new();
        assert!(m.is_empty());
    }
}
