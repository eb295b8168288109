//! `WHERE` predicates compiled for one operator of one statement.
//!
//! A node's `module` and `execution` are its invocation's, so a
//! conjunction's `module` / `execution` conjuncts are decided once per
//! invocation, into a verdict table indexed by invocation id, when the
//! operator starts. Testing a node then reads its role — a column read
//! on a paged store, which faults no record — and one table entry.
//! `role` conjuncts read the same role. Only `kind` and `token`
//! conjuncts read the node's record, so the scan asks them last, of
//! the nodes every cheaper test passed.
//!
//! [`Comparison::eval`] stays the one evaluator of a comparison: it
//! fills the verdict table and tests the node-level conjuncts.

use lipstick_core::graph::InvocationInfo;
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind};

use crate::ast::{Comparison, Field, FieldValue, Predicate};

/// A predicate conjunction compiled against one store.
pub(crate) struct CompiledPredicate<'p> {
    /// The `module` / `execution` conjuncts' verdict per invocation id,
    /// when the predicate has any.
    by_invocation: Option<Vec<bool>>,
    /// Their verdict on a node that belongs to no invocation.
    no_invocation: bool,
    /// `role` conjuncts.
    role: Vec<&'p Comparison>,
    /// `kind` and `token` conjuncts: they read the node's record.
    record: Vec<&'p Comparison>,
}

impl<'p> CompiledPredicate<'p> {
    pub(crate) fn new<S: GraphStore + ?Sized>(store: &S, pred: &'p Predicate) -> Self {
        let mut per_invocation = Vec::new();
        let mut role = Vec::new();
        let mut record = Vec::new();
        for c in &pred.conjuncts {
            match c.field {
                f if f.in_record() => record.push(c),
                Field::Role => role.push(c),
                _ => per_invocation.push(c),
            }
        }
        let verdict = |info: Option<&InvocationInfo>| {
            per_invocation
                .iter()
                .all(|c| c.eval(info.map(|info| invocation_value(info, c.field))))
        };
        CompiledPredicate {
            by_invocation: (!per_invocation.is_empty()).then(|| {
                store
                    .invocations()
                    .iter()
                    .map(|i| verdict(Some(i)))
                    .collect()
            }),
            no_invocation: verdict(None),
            role,
            record,
        }
    }

    /// Does the node pass every conjunct? Fields that don't apply (e.g.
    /// `module` on a free node) make `=` false and `!=` true.
    #[inline]
    pub(crate) fn matches<S: GraphStore + ?Sized>(&self, store: &S, id: NodeId) -> bool {
        self.matches_role(store, id) && self.matches_record(store, id)
    }

    /// The conjuncts the node's role decides: `module`, `execution`
    /// and `role`. Reads nothing when there are none.
    #[inline]
    pub(crate) fn matches_role<S: GraphStore + ?Sized>(&self, store: &S, id: NodeId) -> bool {
        if self.by_invocation.is_none() && self.role.is_empty() {
            return true;
        }
        let role = store.role_of(id);
        let invocation = match (&self.by_invocation, role.invocation()) {
            (None, _) => true,
            (Some(table), Some(inv)) => table[inv.index()],
            (Some(_), None) => self.no_invocation,
        };
        invocation
            && self
                .role
                .iter()
                .all(|c| c.eval(Some(FieldValue::Str(role.name()))))
    }

    /// The conjuncts the node's record decides: `kind` and `token`.
    /// Reads nothing when there are none.
    #[inline]
    pub(crate) fn matches_record<S: GraphStore + ?Sized>(&self, store: &S, id: NodeId) -> bool {
        if self.record.is_empty() {
            return true;
        }
        // The kind may be a decoded temporary; the token borrows from
        // it for the comparisons' lifetime.
        let kind = store.kind_of(id);
        self.record.iter().all(|c| match (c.field, &*kind) {
            (Field::Kind, kind) => c.eval(Some(FieldValue::Str(kind.name()))),
            (_, NodeKind::BaseTuple { token } | NodeKind::WorkflowInput { token }) => {
                c.eval(Some(FieldValue::Str(token.as_str())))
            }
            _ => c.eval(None),
        })
    }
}

/// An invocation's value for `module` (its module's name) or, for any
/// other field, `execution`.
fn invocation_value(info: &InvocationInfo, field: Field) -> FieldValue<'_> {
    match field {
        Field::Module => FieldValue::Str(&info.module),
        _ => FieldValue::Int(u64::from(info.execution)),
    }
}
