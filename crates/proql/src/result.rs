//! Query outputs.

use std::fmt;

use lipstick_core::graph::dot::to_dot_induced;
use lipstick_core::{NodeId, ProvGraph};

/// A sorted node set plus the work the executor did to produce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSetResult {
    /// Members, ascending by id.
    pub nodes: Vec<NodeId>,
    /// Nodes the executor visited (the planner's cost unit), summed
    /// over sub-plans for set operations.
    pub visited: usize,
}

impl NodeSetResult {
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.binary_search(&id).is_ok()
    }

    /// Render the induced subgraph as Graphviz DOT.
    pub fn to_dot(&self, graph: &ProvGraph, name: &str) -> String {
        to_dot_induced(graph, name, &self.nodes)
    }

    /// Multi-line listing with node labels, capped at `limit` rows.
    pub fn render(&self, graph: &ProvGraph, limit: usize) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{} nodes (visited {})", self.len(), self.visited);
        for id in self.nodes.iter().take(limit) {
            let node = graph.node(*id);
            let _ = write!(
                out,
                "\n  {id}  {}  [{}]",
                node.kind.label(),
                node.kind.name()
            );
        }
        if self.len() > limit {
            let _ = write!(out, "\n  … {} more", self.len() - limit);
        }
        out
    }
}

impl fmt::Display for NodeSetResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} nodes (visited {}):", self.len(), self.visited)?;
        for chunk in self.nodes.chunks(16) {
            write!(f, "\n  ")?;
            for (i, id) in chunk.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{id}")?;
            }
        }
        Ok(())
    }
}

/// One value in a [`TableResult`] row. Integers and strings order
/// among themselves the way the corresponding fields compare in
/// predicates; a shaped query never mixes the two within a column
/// except for the `(none)` marker, which [`Ord`]ers after integers by
/// construction (`Int` precedes `Str` in the enum).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cell {
    Int(u64),
    Str(String),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Str(s) => f.write_str(s),
        }
    }
}

impl Cell {
    /// JSON rendering: integers bare, strings quoted and escaped.
    pub fn to_json(&self) -> String {
        match self {
            Cell::Int(n) => n.to_string(),
            Cell::Str(s) => format!("\"{}\"", json_escape(s)),
        }
    }
}

/// Rows of computed cells — what `GROUP BY` and `COUNT(…)` queries
/// return. Row order is part of the result (it reflects `ORDER BY`),
/// and `visited` reports the executor work exactly as
/// [`NodeSetResult::visited`] does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableResult {
    /// Column names, e.g. `["module", "count"]`.
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Cell>>,
    pub visited: usize,
}

impl TableResult {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TableResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} row(s) (visited {}):\n  {}",
            self.len(),
            self.visited,
            self.columns.join(" | ")
        )?;
        for row in &self.rows {
            write!(f, "\n  ")?;
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{cell}")?;
            }
        }
        Ok(())
    }
}

/// The result of one executed ProQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Node-set queries (`MATCH`, walks, `SUBGRAPH OF`, set ops).
    Nodes(NodeSetResult),
    /// Shaped queries (`GROUP BY`, `COUNT(…)`): computed rows.
    Table(TableResult),
    /// `DEPENDS`.
    Bool(bool),
    /// `WHY`, `EVAL`, `STATS`, `EXPLAIN`.
    Text(String),
    /// `DELETE … PROPAGATE`: the deleted node ids, root first.
    Deleted { nodes: Vec<NodeId> },
    /// Zoom and index statements report what they did.
    Message(String),
    /// `CHECK` / `EXPLAIN LINT`: typed static-analysis diagnostics.
    Diagnostics(crate::analyze::Diagnostics),
}

/// Re-exported for `lipstick-serve`, whose JSON replies embed the same
/// strings.
pub use lipstick_core::obs::json_escape;

fn json_id_array(nodes: &[NodeId]) -> String {
    let ids: Vec<String> = nodes.iter().map(|n| n.0.to_string()).collect();
    format!("[{}]", ids.join(","))
}

impl QueryOutput {
    /// Render as a single-line JSON value — the representation
    /// `lipstick-serve`'s HTTP shim returns. Every variant carries a
    /// `"type"` discriminator:
    ///
    /// ```text
    /// {"type":"nodes","count":3,"visited":9,"nodes":[1,4,7]}
    /// {"type":"table","columns":["module","count"],"visited":9,"rows":[["M",2]]}
    /// {"type":"bool","value":true}
    /// {"type":"text","text":"…"}
    /// {"type":"deleted","count":2,"nodes":[3,5]}
    /// {"type":"message","message":"…"}
    /// {"type":"diagnostics","errors":1,"warnings":0,"infos":0,"diagnostics":[…]}
    /// ```
    pub fn to_json(&self) -> String {
        match self {
            QueryOutput::Nodes(ns) => format!(
                r#"{{"type":"nodes","count":{},"visited":{},"nodes":{}}}"#,
                ns.len(),
                ns.visited,
                json_id_array(&ns.nodes)
            ),
            QueryOutput::Table(t) => {
                let columns: Vec<String> = t
                    .columns
                    .iter()
                    .map(|c| format!("\"{}\"", json_escape(c)))
                    .collect();
                let rows: Vec<String> = t
                    .rows
                    .iter()
                    .map(|row| {
                        let cells: Vec<String> = row.iter().map(Cell::to_json).collect();
                        format!("[{}]", cells.join(","))
                    })
                    .collect();
                format!(
                    r#"{{"type":"table","columns":[{}],"visited":{},"rows":[{}]}}"#,
                    columns.join(","),
                    t.visited,
                    rows.join(",")
                )
            }
            QueryOutput::Bool(b) => format!(r#"{{"type":"bool","value":{b}}}"#),
            QueryOutput::Text(t) => format!(r#"{{"type":"text","text":"{}"}}"#, json_escape(t)),
            QueryOutput::Deleted { nodes } => format!(
                r#"{{"type":"deleted","count":{},"nodes":{}}}"#,
                nodes.len(),
                json_id_array(nodes)
            ),
            QueryOutput::Message(m) => {
                format!(r#"{{"type":"message","message":"{}"}}"#, json_escape(m))
            }
            QueryOutput::Diagnostics(d) => d.to_json(),
        }
    }

    /// The node set, when this output carries one.
    pub fn nodes(&self) -> Option<&NodeSetResult> {
        match self {
            QueryOutput::Nodes(ns) => Some(ns),
            _ => None,
        }
    }

    /// The table, when this output carries one.
    pub fn table(&self) -> Option<&TableResult> {
        match self {
            QueryOutput::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The boolean, when this output carries one.
    pub fn bool_value(&self) -> Option<bool> {
        match self {
            QueryOutput::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The text, when this output carries some.
    pub fn text(&self) -> Option<&str> {
        match self {
            QueryOutput::Text(t) => Some(t),
            QueryOutput::Message(t) => Some(t),
            _ => None,
        }
    }

    /// The diagnostics, when this output carries them.
    pub fn diagnostics(&self) -> Option<&crate::analyze::Diagnostics> {
        match self {
            QueryOutput::Diagnostics(d) => Some(d),
            _ => None,
        }
    }
}

impl fmt::Display for QueryOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryOutput::Nodes(ns) => write!(f, "{ns}"),
            QueryOutput::Table(t) => write!(f, "{t}"),
            QueryOutput::Bool(b) => write!(f, "{b}"),
            QueryOutput::Text(t) => write!(f, "{t}"),
            QueryOutput::Deleted { nodes } => {
                write!(f, "deleted {} nodes:", nodes.len())?;
                for chunk in nodes.chunks(16) {
                    write!(f, "\n  ")?;
                    for (i, id) in chunk.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{id}")?;
                    }
                }
                Ok(())
            }
            QueryOutput::Message(m) => write!(f, "{m}"),
            QueryOutput::Diagnostics(d) => write!(f, "{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_snapshots_cover_every_variant() {
        let nodes = QueryOutput::Nodes(NodeSetResult {
            nodes: vec![NodeId(1), NodeId(4), NodeId(7)],
            visited: 9,
        });
        assert_eq!(
            nodes.to_json(),
            r#"{"type":"nodes","count":3,"visited":9,"nodes":[1,4,7]}"#
        );
        assert_eq!(
            QueryOutput::Bool(true).to_json(),
            r#"{"type":"bool","value":true}"#
        );
        assert_eq!(
            QueryOutput::Text("a \"quoted\"\nline".into()).to_json(),
            r#"{"type":"text","text":"a \"quoted\"\nline"}"#
        );
        assert_eq!(
            QueryOutput::Deleted {
                nodes: vec![NodeId(3), NodeId(5)],
            }
            .to_json(),
            r#"{"type":"deleted","count":2,"nodes":[3,5]}"#
        );
        assert_eq!(
            QueryOutput::Message("zoomed out 1 module(s)".into()).to_json(),
            r#"{"type":"message","message":"zoomed out 1 module(s)"}"#
        );
        let table = QueryOutput::Table(TableResult {
            columns: vec!["module".into(), "count".into()],
            rows: vec![
                vec![Cell::Str("Magg".into()), Cell::Int(4)],
                vec![Cell::Str("(none)".into()), Cell::Int(2)],
            ],
            visited: 9,
        });
        assert_eq!(
            table.to_json(),
            r#"{"type":"table","columns":["module","count"],"visited":9,"rows":[["Magg",4],["(none)",2]]}"#
        );
        assert_eq!(
            table.to_string(),
            "2 row(s) (visited 9):\n  module | count\n  Magg | 4\n  (none) | 2"
        );
        let diags = QueryOutput::Diagnostics(crate::analyze::Diagnostics {
            source: "MATCH nodes".into(),
            items: vec![crate::analyze::Diagnostic {
                code: "C302",
                severity: crate::analyze::Severity::Info,
                span: crate::lexer::Span::new(6, 11),
                message: "full scan".into(),
                suggestion: Some("add a WHERE predicate".into()),
            }],
        });
        assert_eq!(
            diags.to_json(),
            r#"{"type":"diagnostics","errors":0,"warnings":0,"infos":1,"diagnostics":[{"code":"C302","severity":"info","start":6,"end":11,"message":"full scan","suggestion":"add a WHERE predicate"}]}"#
        );
        let clean = QueryOutput::Diagnostics(crate::analyze::Diagnostics {
            source: "STATS".into(),
            items: vec![],
        });
        assert_eq!(
            clean.to_json(),
            r#"{"type":"diagnostics","errors":0,"warnings":0,"infos":0,"diagnostics":[]}"#
        );
        assert_eq!(clean.to_string(), "no diagnostics: statement is clean");
    }

    #[test]
    fn empty_table_is_well_formed() {
        let out = QueryOutput::Table(TableResult {
            columns: vec!["kind".into(), "count".into()],
            rows: vec![],
            visited: 3,
        });
        assert_eq!(
            out.to_json(),
            r#"{"type":"table","columns":["kind","count"],"visited":3,"rows":[]}"#
        );
        assert_eq!(out.to_string(), "0 row(s) (visited 3):\n  kind | count");
        assert!(out.table().unwrap().is_empty());
    }

    #[test]
    fn json_escape_handles_controls_and_unicode() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("tab\there"), "tab\\there");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("naïve ⟨M#1⟩"), "naïve ⟨M#1⟩");
        assert_eq!(json_escape("back\\slash \"q\""), "back\\\\slash \\\"q\\\"");
    }

    #[test]
    fn empty_node_set_renders_empty_array() {
        let out = QueryOutput::Nodes(NodeSetResult {
            nodes: vec![],
            visited: 0,
        });
        assert_eq!(
            out.to_json(),
            r#"{"type":"nodes","count":0,"visited":0,"nodes":[]}"#
        );
    }
}
