//! A minimal fixed-capacity bitset.
//!
//! Used as scratch space by graph traversals (deletion propagation,
//! subgraph queries, reachability) — dense node ids make a bitset both
//! smaller and faster than a hash set.

/// Fixed-capacity bitset over `usize` indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// All-zeros bitset able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Set bit `i`. Returns `true` if the bit was newly set.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        self.words[w] |= mask;
        !was
    }

    /// Clear bit `i`.
    pub fn remove(&mut self, i: usize) {
        let (w, b) = (i / 64, i % 64);
        self.words[w] &= !(1u64 << b);
    }

    /// Test bit `i`.
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.words
            .get(w)
            .is_some_and(|word| word & (1u64 << b) != 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Union in-place.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Clear all bits (keeps capacity).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Heap bytes held by the word buffer (spare capacity included).
    pub fn heap_bytes(&self) -> usize {
        crate::obs::vec_alloc_bytes(&self.words)
    }

    /// Iterate over set indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

impl crate::obs::HeapSize for BitSet {
    fn heap_breakdown(&self) -> Vec<(&'static str, usize)> {
        vec![("words", self.heap_bytes())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_novelty() {
        let mut b = BitSet::new(100);
        assert!(b.insert(5));
        assert!(!b.insert(5));
        assert!(b.contains(5));
        assert!(!b.contains(6));
    }

    #[test]
    fn count_and_iter_agree() {
        let mut b = BitSet::new(200);
        for i in [0, 63, 64, 127, 128, 199] {
            b.insert(i);
        }
        assert_eq!(b.count(), 6);
        let got: Vec<usize> = b.iter().collect();
        assert_eq!(got, vec![0, 63, 64, 127, 128, 199]);
    }

    #[test]
    fn remove_and_clear() {
        let mut b = BitSet::new(10);
        b.insert(3);
        b.remove(3);
        assert!(!b.contains(3));
        b.insert(1);
        b.insert(2);
        b.clear();
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn union() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        b.insert(65);
        a.union_with(&b);
        assert!(a.contains(1) && a.contains(65));
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let b = BitSet::new(10);
        assert!(!b.contains(1000));
    }
}
