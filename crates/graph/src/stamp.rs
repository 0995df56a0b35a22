//! Versioned per-node stamps with `O(1)` reset.
//!
//! Enclosing-subgraph sampling and sweep pair enumeration each run
//! thousands of small traversals over a graph with millions of nodes;
//! clearing an `O(N)` visited array per traversal would dominate the
//! runtime. [`NodeStamps`] marks membership with a generation number
//! instead, so starting a fresh set is `O(1)`.

/// A set of node ids, each carrying one `u32` value, that empties in
/// `O(1)` (8 bytes per node).
///
/// A node is a member when its stamp equals the current epoch;
/// [`NodeStamps::begin`] advances the epoch, which empties the set.
///
/// # Examples
///
/// ```
/// use circuit_graph::NodeStamps;
///
/// let mut s = NodeStamps::new(4);
/// s.begin();
/// assert!(s.insert(2, 7));
/// assert!(!s.insert(2, 9), "already a member: the value stays");
/// assert_eq!(s.get(2), Some(7));
/// s.begin();
/// assert_eq!(s.get(2), None);
/// ```
#[derive(Debug)]
pub struct NodeStamps {
    stamp: Vec<u32>,
    value: Vec<u32>,
    /// Current generation; never 0, so a zeroed stamp is never a member.
    epoch: u32,
}

impl NodeStamps {
    /// Creates an empty set over node ids `0..num_nodes`.
    pub fn new(num_nodes: usize) -> Self {
        NodeStamps {
            stamp: vec![0; num_nodes],
            value: vec![0; num_nodes],
            epoch: 1,
        }
    }

    /// Empties the set by starting a fresh generation.
    pub fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrap-around: clear every stamp once every 2^32 generations.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Inserts `v` with `value`; returns `false` (and keeps the old
    /// value) if `v` is already a member.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn insert(&mut self, v: u32, value: u32) -> bool {
        let s = &mut self.stamp[v as usize];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            self.value[v as usize] = value;
            true
        }
    }

    /// The value of `v`, if it is a member.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn get(&self, v: u32) -> Option<u32> {
        (self.stamp[v as usize] == self.epoch).then(|| self.value[v as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_empties_the_set() {
        let mut s = NodeStamps::new(3);
        assert_eq!(s.get(0), None, "a new set is empty");
        s.begin();
        assert!(s.insert(0, 5));
        assert!(s.insert(1, 6));
        assert_eq!((s.get(0), s.get(1), s.get(2)), (Some(5), Some(6), None));
        s.begin();
        assert_eq!((s.get(0), s.get(1)), (None, None));
        assert!(s.insert(1, 8));
        assert_eq!(s.get(1), Some(8));
    }

    #[test]
    fn epoch_wrap_around_clears_stale_stamps() {
        let mut s = NodeStamps::new(2);
        s.epoch = u32::MAX;
        assert!(s.insert(0, 1));
        s.begin();
        assert_eq!(s.epoch, 1);
        assert_eq!(s.get(0), None, "a stamp from before the wrap is stale");
        assert!(s.insert(1, 2));
        s.begin();
        assert_eq!(s.get(1), None);
    }
}
