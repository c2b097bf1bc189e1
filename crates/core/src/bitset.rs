//! A compact bitset over small integer ids, used for the analyzer's
//! dataflow sets (`L_REF`/`P_REF`/`C_REF`).

/// A fixed-capacity bitset. Its storage reaches only as far as the
/// highest word ever set, so a sparse set over many ids stays small: the
/// analyzer keeps one per call-graph node for each of its reference sets.
#[derive(Clone)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// An empty set holding ids `0..capacity`.
    pub fn new(capacity: usize) -> BitSet {
        BitSet { words: Vec::new(), capacity }
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`; returns whether it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bit {i} out of capacity {}", self.capacity);
        let (w, b) = (i / 64, i % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let added = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        added
    }

    /// Removes `i`; returns whether it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let Some(word) = self.words.get_mut(i / 64) else { return false };
        let present = *word & (1 << (i % 64)) != 0;
        *word &= !(1 << (i % 64));
        present
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        i < self.capacity && self.words.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Unions `other` in, up to this set's capacity; returns whether
    /// anything changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let n = other.words.len().min(self.capacity.div_ceil(64));
        if self.words.len() < n {
            self.words.resize(n, 0);
        }
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words[..n]) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Intersects with `other` in place (ids beyond `other`'s capacity are
    /// left alone).
    pub fn intersect_with(&mut self, other: &BitSet) {
        let covered = other.capacity.div_ceil(64);
        for (i, a) in self.words.iter_mut().enumerate().take(covered) {
            *a &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// The stored words up to the last nonzero one.
    fn significant(&self) -> &[u64] {
        let n = self.words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        &self.words[..n]
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over members ascending, visiting set bits only.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        Ones { words: self.words.iter().enumerate(), base: 0, word: 0 }
    }
}

/// The members of a [`BitSet`], ascending: each step clears the lowest set
/// bit of the current word, so empty words cost one test each.
struct Ones<'a> {
    words: std::iter::Enumerate<std::slice::Iter<'a, u64>>,
    /// Id of bit 0 of `word`.
    base: usize,
    /// The current word's members not yet yielded.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (i, &w) = self.words.next()?;
            self.base = i * 64;
            self.word = w;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &BitSet) -> bool {
        self.capacity == other.capacity && self.significant() == other.significant()
    }
}

impl Eq for BitSet {}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(100);
        assert!(s.insert(0));
        assert!(s.insert(99));
        assert!(!s.insert(99));
        assert!(s.contains(99));
        assert!(!s.contains(50));
        assert!(!s.contains(1000));
        assert_eq!(s.len(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.remove(12345));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn union_and_intersect() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        a.insert(65);
        b.insert(65);
        b.insert(2);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 65]);
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 65]);
    }

    #[test]
    fn iter_yields_set_bits_ascending_across_words() {
        // 130 bits: three words, the last one partial.
        let mut s = BitSet::new(130);
        for i in [127, 64, 0, 63, 129] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 129]);

        // An all-ones word between two empty ones.
        let mut ones = BitSet::new(200);
        for i in 64..128 {
            ones.insert(i);
        }
        assert_eq!(ones.iter().collect::<Vec<_>>(), (64..128).collect::<Vec<_>>());

        // Every id of a capacity that is not a multiple of 64, and none.
        let mut full = BitSet::new(70);
        for i in 0..70 {
            full.insert(i);
        }
        assert_eq!(full.iter().collect::<Vec<_>>(), (0..70).collect::<Vec<_>>());
        assert_eq!(BitSet::new(70).iter().next(), None);
        assert_eq!(BitSet::new(0).iter().next(), None);
    }

    #[test]
    fn storage_grows_on_demand_and_equality_ignores_it() {
        let mut a = BitSet::new(1000);
        let mut b = BitSet::new(1000);
        assert_eq!(a, b);
        assert!(!a.contains(999) && !a.remove(999));
        assert!(a.insert(999) && a.contains(999));
        assert_ne!(a, b);
        assert!(b.union_with(&a) && !b.union_with(&a));
        assert_eq!(a, b);
        // Emptied again, the set equals a never-touched one.
        assert!(a.remove(999));
        assert_eq!(a, BitSet::new(1000));
        // A union never reaches past this set's capacity.
        let mut small = BitSet::new(64);
        assert!(!small.union_with(&b));
        assert!(small.is_empty());
        // Intersecting with a set whose storage is shorter clears the rest.
        b.insert(3);
        let mut only3 = BitSet::new(1000);
        only3.insert(3);
        b.intersect_with(&only3);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn debug_format() {
        let mut s = BitSet::new(8);
        s.insert(3);
        assert_eq!(format!("{s:?}"), "{3}");
        assert!(BitSet::new(8).is_empty());
        assert_eq!(BitSet::new(8).capacity(), 8);
    }
}
