//! Id lists in flat arrays: the graph's edges.
//!
//! An [`Adjacency`] keeps one id list per node in a single shared
//! buffer: node `i`'s list is `ids[start .. start + len]` for its span.
//! [`crate::ProvGraph`] keeps two — every node's ingredients, written as
//! nodes are added, and its dependents, derived from the ingredients in
//! one pass ([`Adjacency::transpose`]: starts plus ids, the CSR layout).
//! No node owns an edge list of its own.
//!
//! Lists stay mutable at O(change). A push to a list that does not end
//! the buffer first moves the list to the end; a removal shrinks the list
//! in place. Both leave *holes*, buffer slots no list covers, which stay
//! allocated (and counted by [`Adjacency::heap_bytes`]) for the life of
//! the arrays.

use crate::graph::node::NodeId;

/// Where one node's list sits in the shared buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn end(self) -> u32 {
        self.start + self.len
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end() as usize
    }
}

/// One id list per node, in one buffer (see the module doc).
#[derive(Debug, Clone, Default)]
pub(crate) struct Adjacency {
    spans: Vec<Span>,
    ids: Vec<NodeId>,
}

impl Adjacency {
    pub(crate) fn with_capacity(lists: usize) -> Adjacency {
        Adjacency {
            spans: Vec::with_capacity(lists),
            ids: Vec::new(),
        }
    }

    /// Number of lists (one per node).
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Node `i`'s list.
    #[inline]
    pub(crate) fn list(&self, i: usize) -> &[NodeId] {
        &self.ids[self.spans[i].range()]
    }

    /// Open an empty list for a new node, at the end of the buffer.
    pub(crate) fn push_list(&mut self) {
        let start = self.buffer_end();
        self.spans.push(Span { start, len: 0 });
    }

    /// Open a list for a new node and let `fill` append its ids straight
    /// to the buffer — how a decoder writes what it reads without a
    /// per-node allocation.
    pub(crate) fn push_list_with<E>(
        &mut self,
        fill: impl FnOnce(&mut Vec<NodeId>) -> Result<(), E>,
    ) -> Result<(), E> {
        let start = self.buffer_end();
        let filled = fill(&mut self.ids);
        // Whatever `fill` appended before an error is still node `i`'s.
        self.spans.push(Span {
            start,
            len: self.buffer_end() - start,
        });
        filled
    }

    /// Append one id to node `i`'s list.
    pub(crate) fn push(&mut self, i: usize, id: NodeId) {
        self.extend(i, &[id]);
    }

    /// Append ids to node `i`'s list, first moving the list to the end
    /// of the buffer if it is not there already.
    pub(crate) fn extend(&mut self, i: usize, ids: &[NodeId]) {
        let end = self.buffer_end();
        let span = self.spans[i];
        if span.end() != end {
            self.ids.extend_from_within(span.range());
            self.spans[i].start = end;
        }
        self.ids.extend_from_slice(ids);
        self.spans[i].len += ids.len() as u32;
    }

    /// Drop every occurrence of `id` from node `i`'s list, in place.
    pub(crate) fn remove(&mut self, i: usize, id: NodeId) {
        let span = self.spans[i];
        let list = &mut self.ids[span.range()];
        let mut kept = 0;
        for k in 0..list.len() {
            if list[k] != id {
                list[kept] = list[k];
                kept += 1;
            }
        }
        self.spans[i].len = kept as u32;
    }

    /// Empty node `i`'s list, returning what it held.
    pub(crate) fn take(&mut self, i: usize) -> Vec<NodeId> {
        let held = self.list(i).to_vec();
        self.spans[i].len = 0;
        held
    }

    /// The reverse lists, exact-size: node `p`'s list names every `i`
    /// whose list holds `p`, by ascending `i`, and each `i` as often as
    /// its list names `p` (the order edge-by-edge insertion gives when
    /// every node's list is written as the node is added).
    pub(crate) fn transpose(&self) -> Adjacency {
        let n = self.len();
        let mut spans = vec![Span::default(); n];
        for i in 0..n {
            for p in self.list(i) {
                spans[p.index()].len += 1;
            }
        }
        let mut start = 0u32;
        for span in &mut spans {
            span.start = start;
            start += std::mem::take(&mut span.len);
        }
        let mut ids = vec![NodeId(0); start as usize];
        for i in 0..n {
            for p in self.list(i) {
                let span = &mut spans[p.index()];
                ids[span.end() as usize] = NodeId(i as u32);
                span.len += 1;
            }
        }
        Adjacency { spans, ids }
    }

    /// Release spare capacity (a decoder's buffer grew by doubling).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.spans.shrink_to_fit();
        self.ids.shrink_to_fit();
    }

    /// Buffer slots no list covers.
    #[cfg(test)]
    pub(crate) fn holes(&self) -> usize {
        self.ids.len() - self.spans.iter().map(|s| s.len as usize).sum::<usize>()
    }

    /// Bytes allocated: spans plus the whole buffer, holes included.
    pub(crate) fn heap_bytes(&self) -> usize {
        crate::obs::vec_alloc_bytes(&self.spans) + crate::obs::vec_alloc_bytes(&self.ids)
    }

    fn buffer_end(&self) -> u32 {
        u32::try_from(self.ids.len()).expect("more than 2^32 edges")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId).collect()
    }

    fn lists(adj: &Adjacency) -> Vec<Vec<NodeId>> {
        (0..adj.len()).map(|i| adj.list(i).to_vec()).collect()
    }

    #[test]
    fn a_push_to_an_inner_list_moves_it_and_leaves_a_hole() {
        let mut adj = Adjacency::default();
        for _ in 0..3 {
            adj.push_list();
        }
        adj.extend(0, &ids(&[1, 2]));
        adj.push(1, NodeId(2));
        assert_eq!(adj.holes(), 0);
        adj.push(0, NodeId(1));
        assert_eq!(lists(&adj), vec![ids(&[1, 2, 1]), ids(&[2]), vec![]]);
        assert_eq!(adj.holes(), 2, "node 0's old slots");
        // Now at the end: the next push moves nothing.
        adj.push(0, NodeId(2));
        assert_eq!(adj.holes(), 2);
        adj.remove(0, NodeId(1));
        assert_eq!(adj.list(0), ids(&[2, 2]));
        assert_eq!(adj.holes(), 4);
        assert_eq!(adj.take(1), ids(&[2]));
        assert!(adj.list(1).is_empty());
        assert_eq!(adj.holes(), 5);
    }

    #[test]
    fn transpose_orders_by_source_then_list_order_and_is_exact() {
        let mut adj = Adjacency::default();
        for _ in 0..4 {
            adj.push_list();
        }
        adj.extend(2, &ids(&[0, 1, 0]));
        adj.extend(3, &ids(&[1, 2]));
        // A moved list keeps its order; the hole does not show.
        adj.push(2, NodeId(1));
        let t = adj.transpose();
        assert_eq!(
            lists(&t),
            vec![ids(&[2, 2]), ids(&[2, 2, 3]), ids(&[3]), vec![]]
        );
        assert_eq!((t.holes(), t.ids.capacity()), (0, 6));
    }

    #[test]
    fn push_list_with_spans_what_the_filler_appended() {
        let mut adj = Adjacency::default();
        adj.push_list_with(|buf| {
            buf.extend(ids(&[4, 5]));
            Ok::<_, ()>(())
        })
        .unwrap();
        let failed = adj.push_list_with(|buf| {
            buf.push(NodeId(6));
            Err("short read")
        });
        assert_eq!(failed, Err("short read"));
        assert_eq!(lists(&adj), vec![ids(&[4, 5]), ids(&[6])]);
    }
}
