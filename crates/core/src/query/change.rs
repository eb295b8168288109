//! A graph change decided once, applied by whichever store holds it.
//!
//! Deletion propagation and ZoomOut/ZoomIn (paper §4.1–4.2) are decided
//! against any [`crate::store::GraphStore`]:
//! [`super::deletion::compute_deletion`] yields the cone,
//! [`super::plan_zoom_out`] the zoom plan. The decision is a
//! [`GraphChange`]. The append log turns it into one tail record; the
//! resident graph applies it through [`ProvGraph::apply`].

use crate::graph::node::NodeId;
use crate::graph::ProvGraph;

use super::zoom::{apply_zoom_out, restore_zoomed, ZoomModulePlan};

/// One decided mutation. `'f` borrows an ingested fragment.
#[derive(Debug, Clone)]
pub enum GraphChange<'f> {
    /// Tombstone a `DELETE … PROPAGATE` cone, in deletion order.
    Tombstones(Vec<NodeId>),
    /// Hide the planned modules behind their composites.
    ZoomOut(Vec<ZoomModulePlan>),
    /// Restore these zoomed-out modules (validated, resolved names).
    ZoomIn(Vec<String>),
    /// Append a fragment graph past the current ids
    /// ([`ProvGraph::splice`]).
    Splice(&'f ProvGraph),
}

impl ProvGraph {
    /// Apply a change decided against this graph. Returns the ids it
    /// created: fragment nodes, zoom composites; none for tombstones
    /// and zoom-ins.
    pub fn apply(&mut self, change: GraphChange<'_>) -> Vec<NodeId> {
        match change {
            GraphChange::Tombstones(ids) => {
                for id in ids {
                    self.set_node_deleted(id, true);
                }
                Vec::new()
            }
            GraphChange::ZoomOut(plans) => apply_zoom_out(self, plans),
            GraphChange::ZoomIn(modules) => {
                restore_zoomed(self, &modules);
                Vec::new()
            }
            GraphChange::Splice(fragment) => self.splice(fragment),
        }
    }
}
