//! Dependency queries (paper §4.3).
//!
//! "Queries that ask, for a pair of nodes n, n′, if the existence of n
//! depends on that of n′. This may be answered by checking for the
//! existence of n in the graph obtained by propagating the deletion of
//! n′."

use crate::graph::node::NodeId;
use crate::graph::ProvGraph;
use crate::store::GraphStore;

use super::deletion::compute_deletion;
use super::error::QueryError;

/// Does the existence of `n` depend on `n_prime`?
///
/// Implemented exactly as the paper prescribes — propagate the deletion
/// of `n_prime` (without mutating the graph) and test whether `n`
/// survives.
pub fn depends_on<S: GraphStore + ?Sized>(
    store: &S,
    n: NodeId,
    n_prime: NodeId,
) -> Result<bool, QueryError> {
    if !store.is_visible(n) {
        return Err(QueryError::NodeNotVisible(n));
    }
    let report = compute_deletion(store, n_prime)?;
    Ok(report.contains(n))
}

/// Set-version: does `n` depend on the *joint* deletion of all of
/// `n_primes`? (§4.3: "this can be further extended to sets of nodes".)
pub fn depends_on_all(
    graph: &ProvGraph,
    n: NodeId,
    n_primes: &[NodeId],
) -> Result<bool, QueryError> {
    if !graph.node(n).is_visible() {
        return Err(QueryError::NodeNotVisible(n));
    }
    // Delete each root in sequence on a scratch copy; stop early if n
    // dies.
    let mut g = graph.clone();
    for &root in n_primes {
        if !g.node(root).is_visible() {
            // Already deleted by an earlier propagation — skip.
            continue;
        }
        let report = super::deletion::propagate_deletion_inplace(&mut g, root)?;
        if report.contains(n) {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_4_5_bid_does_not_depend_on_single_car() {
        // bid ← + ← δ ← {C2, C3}: deleting C2 leaves a derivation.
        let mut g = ProvGraph::new();
        let c2 = g.add_base("C2");
        let c3 = g.add_base("C3");
        let grp = g.add_delta(&[c2, c3]);
        let bid = g.add_plus(&[grp]);
        assert!(!depends_on(&g, bid, c2).unwrap());
        assert!(!depends_on(&g, bid, c3).unwrap());
        // …but it does depend on both jointly.
        assert!(depends_on_all(&g, bid, &[c2, c3]).unwrap());
    }

    #[test]
    fn joint_derivation_depends_on_each_ingredient() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let t = g.add_times(&[a, b]);
        assert!(depends_on(&g, t, a).unwrap());
        assert!(depends_on(&g, t, b).unwrap());
    }

    #[test]
    fn no_dependency_across_components() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let b = g.add_base("b");
        let pa = g.add_plus(&[a]);
        let _pb = g.add_plus(&[b]);
        assert!(!depends_on(&g, pa, b).unwrap());
    }

    #[test]
    fn depends_on_does_not_mutate() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let t = g.add_times(&[a]);
        let before = g.visible_signature();
        let _ = depends_on(&g, t, a).unwrap();
        assert_eq!(g.visible_signature(), before);
    }

    #[test]
    fn depends_on_all_skips_cascade_deleted_roots() {
        let mut g = ProvGraph::new();
        let a = g.add_base("a");
        let t = g.add_times(&[a]);
        let u = g.add_plus(&[t]);
        // deleting a cascades through t; passing both must not error
        assert!(depends_on_all(&g, u, &[a, t]).unwrap());
    }
}
