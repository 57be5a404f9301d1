//! A dependency-free open-addressing hash table for the buildMap/probeMap
//! join.
//!
//! The paper's Procedures 3 and 4 hash `(d, seq)` — trajectory id and
//! sequence number — to the antecedent travel-time aggregate `a − TT`. The
//! key pair packs into one `u64`, so a flat insert-only table with
//! Fibonacci hashing and linear probing beats a general-purpose map in both
//! speed and footprint on this hot path.

/// Packs `(traj, seq)` into the table key.
#[inline]
fn pack(traj: u32, seq: u32) -> u64 {
    ((traj as u64) << 32) | seq as u64
}

const EMPTY: u64 = u64::MAX;
/// Fibonacci hashing multiplier (2⁶⁴ / φ).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Insert-only hash map from `(trajectory, sequence)` pairs to the
/// antecedent aggregate `diff = a − TT` (the probe table `M` of
/// Procedure 3).
#[derive(Clone, Debug)]
pub(crate) struct ProbeTable {
    keys: Vec<u64>,
    values: Vec<f64>,
    len: usize,
    mask: usize,
}

impl Default for ProbeTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ProbeTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        Self::with_capacity(16)
    }

    /// Creates a table pre-sized for about `cap` entries (e.g. β).
    pub(crate) fn with_capacity(cap: usize) -> Self {
        let slots = (cap * 2).next_power_of_two().max(16);
        ProbeTable {
            keys: vec![EMPTY; slots],
            values: vec![0.0; slots],
            len: 0,
            mask: slots - 1,
        }
    }

    /// Number of stored entries `|M|`.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> 32) as usize & self.mask
    }

    /// Inserts `(traj, seq) → diff`, overwriting any previous value for the
    /// same key (cannot occur in practice: a traversal has one antecedent).
    pub(crate) fn insert(&mut self, traj: u32, seq: u32, diff: f64) {
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let key = pack(traj, seq);
        debug_assert_ne!(key, EMPTY, "key space exhausted");
        let mut slot = self.slot_of(key);
        loop {
            if self.keys[slot] == EMPTY {
                self.keys[slot] = key;
                self.values[slot] = diff;
                self.len += 1;
                return;
            }
            if self.keys[slot] == key {
                self.values[slot] = diff;
                return;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Looks up the antecedent for `(traj, seq)`.
    #[inline]
    pub(crate) fn get(&self, traj: u32, seq: u32) -> Option<f64> {
        let key = pack(traj, seq);
        let mut slot = self.slot_of(key);
        loop {
            if self.keys[slot] == EMPTY {
                return None;
            }
            if self.keys[slot] == key {
                return Some(self.values[slot]);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_slots]);
        let old_values = std::mem::replace(&mut self.values, vec![0.0; new_slots]);
        self.mask = new_slots - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_values) {
            if k != EMPTY {
                let (traj, seq) = ((k >> 32) as u32, k as u32);
                self.insert(traj, seq, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = ProbeTable::new();
        t.insert(3, 0, 1.5);
        t.insert(3, 1, 2.5);
        t.insert(7, 0, 3.5);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(3, 0), Some(1.5));
        assert_eq!(t.get(3, 1), Some(2.5));
        assert_eq!(t.get(7, 0), Some(3.5));
        assert_eq!(t.get(7, 1), None);
        assert_eq!(t.get(4, 0), None);
    }

    #[test]
    fn overwrite_same_key() {
        let mut t = ProbeTable::new();
        t.insert(1, 1, 1.0);
        t.insert(1, 1, 9.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(1, 1), Some(9.0));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = ProbeTable::with_capacity(4);
        for i in 0..10_000u32 {
            t.insert(i, i % 7, i as f64);
        }
        assert_eq!(t.len(), 10_000);
        for i in (0..10_000u32).step_by(97) {
            assert_eq!(t.get(i, i % 7), Some(i as f64));
        }
    }

    #[test]
    fn distinguishes_traj_and_seq() {
        let mut t = ProbeTable::new();
        t.insert(1, 2, 1.0);
        assert_eq!(t.get(2, 1), None, "(1,2) and (2,1) are distinct keys");
    }

    proptest::proptest! {
        #[test]
        fn matches_std_hashmap(
            ops in proptest::collection::vec((0u32..100, 0u32..10, -100.0f64..100.0), 0..300)
        ) {
            let mut ours = ProbeTable::new();
            let mut reference = std::collections::HashMap::new();
            for (traj, seq, v) in ops {
                ours.insert(traj, seq, v);
                reference.insert((traj, seq), v);
            }
            proptest::prop_assert_eq!(ours.len(), reference.len());
            for ((traj, seq), v) in reference {
                proptest::prop_assert_eq!(ours.get(traj, seq), Some(v));
            }
        }
    }
}
