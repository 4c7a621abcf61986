//! The per-flow table both layers of the network model keep: the fluid
//! engine's flow states and the DES driver's callbacks, routes and trace
//! bookkeeping.
//!
//! Flow ids only grow, so the table is a `Vec` sorted by [`FlowId`]: an
//! insert appends, a lookup is a binary search, and iteration runs in
//! ascending id order. That order is an arithmetic contract, not a
//! convenience — the solver's weight sums, `advance`'s byte accounting and
//! the order of completion batches all follow it, and the bit-identity of
//! every simulated number rests on them (DESIGN §6d). A removal leaves a
//! tombstone; once tombstones outnumber live entries the table compacts in
//! one pass, so a removal costs amortized O(log n) however many flows live.

use crate::resource::FlowId;

/// Live flows in ascending [`FlowId`] order; see the module docs.
#[derive(Debug)]
pub(crate) struct FlowTable<T> {
    /// Strictly ascending ids; `None` marks a removed entry.
    entries: Vec<(FlowId, Option<T>)>,
    live: usize,
}

impl<T> Default for FlowTable<T> {
    fn default() -> Self {
        FlowTable {
            entries: Vec::new(),
            live: 0,
        }
    }
}

impl<T> FlowTable<T> {
    /// Number of live flows.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Add `id`, which must exceed every id inserted before it.
    pub(crate) fn insert(&mut self, id: FlowId, value: T) {
        assert!(
            self.entries.last().is_none_or(|&(last, _)| last < id),
            "flow {id:?} inserted out of order"
        );
        self.entries.push((id, Some(value)));
        self.live += 1;
    }

    /// Position of a live flow, valid until the next removal.
    pub(crate) fn slot(&self, id: FlowId) -> Option<usize> {
        let i = self.entries.binary_search_by_key(&id, |e| e.0).ok()?;
        self.entries[i].1.is_some().then_some(i)
    }

    pub(crate) fn get(&self, id: FlowId) -> Option<&T> {
        self.slot(id).and_then(|i| self.entries[i].1.as_ref())
    }

    pub(crate) fn get_mut(&mut self, id: FlowId) -> Option<&mut T> {
        self.slot(id).and_then(|i| self.entries[i].1.as_mut())
    }

    /// The live flow at `slot` (from [`Self::slot`] or [`Self::slots`]).
    pub(crate) fn at_mut(&mut self, slot: usize) -> &mut T {
        self.entries[slot]
            .1
            .as_mut()
            .expect("slot holds a live flow")
    }

    /// Remove a flow, returning its value; `None` if it is not live.
    pub(crate) fn remove(&mut self, id: FlowId) -> Option<T> {
        let i = self.slot(id)?;
        let value = self.entries[i].1.take();
        self.live -= 1;
        if self.entries.len() > 2 * self.live {
            self.entries.retain(|e| e.1.is_some());
        }
        value
    }

    /// Positions of the live flows, ascending.
    pub(crate) fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.entries.len()).filter(|&i| self.entries[i].1.is_some())
    }

    /// Live flows in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> {
        self.entries
            .iter()
            .filter_map(|(id, v)| v.as_ref().map(|v| (*id, v)))
    }

    /// Live flows in ascending id order, mutably.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (FlowId, &mut T)> {
        self.entries
            .iter_mut()
            .filter_map(|(id, v)| v.as_mut().map(|v| (*id, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(t: &FlowTable<u64>) -> Vec<u64> {
        t.iter().map(|(id, _)| id.0).collect()
    }

    #[test]
    fn removals_keep_ascending_order_through_compaction() {
        let mut t = FlowTable::default();
        for i in 0..10u64 {
            t.insert(FlowId(i * 3), i);
        }
        // Out-of-order removals from the middle, enough to compact.
        for i in [4u64, 1, 8, 6, 2, 9] {
            assert_eq!(t.remove(FlowId(i * 3)), Some(i));
            assert_eq!(t.remove(FlowId(i * 3)), None, "second removal");
        }
        assert_eq!(ids(&t), vec![0, 9, 15, 21]);
        assert_eq!(t.len(), 4);
        assert!(t.entries.len() <= 2 * t.len(), "compacted");
        t.insert(FlowId(40), 99);
        assert_eq!(t.get(FlowId(40)), Some(&99));
        assert_eq!(t.get(FlowId(1)), None, "never inserted");
        let slots: Vec<usize> = t.slots().collect();
        let at: Vec<u64> = slots.iter().map(|&s| *t.at_mut(s)).collect();
        assert_eq!(at, vec![0, 3, 5, 7, 99]);
        for (_, v) in t.iter_mut() {
            *v += 1;
        }
        assert_eq!(t.get_mut(FlowId(0)).copied(), Some(1));
        for id in [0, 9, 15, 21, 40] {
            t.remove(FlowId(id));
        }
        assert!(t.is_empty());
        assert!(t.iter().next().is_none());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn insert_below_the_last_id_panics() {
        let mut t = FlowTable::default();
        t.insert(FlowId(5), ());
        t.insert(FlowId(4), ());
    }
}
