//! Typed abstract syntax for ProQL statements.

use std::cmp::Ordering;
use std::fmt;

/// How a statement names a graph node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeRef {
    /// `#42` — direct node id.
    Id(u32),
    /// `'C2'` — the token of a base-tuple or workflow-input node.
    Token(String),
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRef::Id(n) => write!(f, "#{n}"),
            NodeRef::Token(t) => write!(f, "'{t}'"),
        }
    }
}

/// Node classes selectable by `MATCH`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeClass {
    /// Every visible node.
    All,
    /// Module invocation nodes (`m`).
    Invocation,
    /// Module input nodes (`i`).
    ModuleInput,
    /// Module output nodes (`o`).
    ModuleOutput,
    /// Module state nodes (`s`).
    State,
    /// Base tuple nodes.
    Base,
    /// Provenance nodes (p-nodes).
    PNodes,
    /// Value nodes (v-nodes).
    VNodes,
}

impl NodeClass {
    /// Parse a class name (case-insensitive).
    pub fn parse(name: &str) -> Option<NodeClass> {
        Some(match name.to_ascii_lowercase().as_str() {
            "nodes" | "all" => NodeClass::All,
            "m-nodes" => NodeClass::Invocation,
            "i-nodes" => NodeClass::ModuleInput,
            "o-nodes" => NodeClass::ModuleOutput,
            "s-nodes" => NodeClass::State,
            "base-nodes" => NodeClass::Base,
            "p-nodes" => NodeClass::PNodes,
            "v-nodes" => NodeClass::VNodes,
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            NodeClass::All => "nodes",
            NodeClass::Invocation => "m-nodes",
            NodeClass::ModuleInput => "i-nodes",
            NodeClass::ModuleOutput => "o-nodes",
            NodeClass::State => "s-nodes",
            NodeClass::Base => "base-nodes",
            NodeClass::PNodes => "p-nodes",
            NodeClass::VNodes => "v-nodes",
        }
    }

    /// The single [`lipstick_core::NodeKind::name`] this class selects,
    /// when there is one — the paged planner's kind-postings
    /// opportunity. `None` for classes spanning several kinds.
    pub fn single_kind_name(&self) -> Option<&'static str> {
        match self {
            NodeClass::Invocation => Some("invocation"),
            NodeClass::ModuleInput => Some("module_input"),
            NodeClass::ModuleOutput => Some("module_output"),
            NodeClass::State => Some("state"),
            NodeClass::Base => Some("base_tuple"),
            NodeClass::All | NodeClass::PNodes | NodeClass::VNodes => None,
        }
    }
}

/// Predicate fields over nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// Owning module name (via the node's invocation).
    Module,
    /// Node kind name (`plus`, `delta`, `module_output`, …).
    Kind,
    /// Role name (`intermediate`, `state`, `free`, …).
    Role,
    /// Owning invocation's execution number.
    Execution,
    /// Base-tuple / workflow-input token (`'C2'`); inapplicable to
    /// every other node kind.
    Token,
}

impl Field {
    /// Is the field in the node's record (`kind`, `token`), rather than
    /// decided by its role (`module`, `execution`, `role`)? Only such
    /// fields make a scan decode records.
    pub fn in_record(self) -> bool {
        matches!(self, Field::Kind | Field::Token)
    }

    pub fn parse(name: &str) -> Option<Field> {
        Some(match name.to_ascii_lowercase().as_str() {
            "module" => Field::Module,
            "kind" => Field::Kind,
            "role" => Field::Role,
            "execution" => Field::Execution,
            "token" => Field::Token,
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Field::Module => "module",
            Field::Kind => "kind",
            Field::Role => "role",
            Field::Execution => "execution",
            Field::Token => "token",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// SQL-style pattern match: `%` any sequence, `_` one character.
    Like,
    NotLike,
}

impl CmpOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Like => "LIKE",
            CmpOp::NotLike => "NOT LIKE",
        }
    }
}

/// SQL `LIKE` matching: `%` matches any (possibly empty) sequence,
/// `_` matches exactly one character, everything else is literal.
/// Classic two-pointer scan with backtracking on the last `%`.
pub fn like_match(pattern: &str, s: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = s.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern pos after %, text pos)
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            // Let the last % swallow one more character.
            pi = sp;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// Literal comparison value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lit {
    Str(String),
    Int(u64),
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Str(s) => write!(f, "'{s}'"),
            Lit::Int(n) => write!(f, "{n}"),
        }
    }
}

/// One `field op value` comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comparison {
    pub field: Field,
    pub op: CmpOp,
    pub value: Lit,
}

/// A node's actual value for a predicate field, when the field applies
/// to the node.
#[derive(Debug, Clone, Copy)]
pub enum FieldValue<'a> {
    Str(&'a str),
    Int(u64),
}

impl Comparison {
    /// Evaluate against a node's actual field value. `None` means the
    /// field does not apply (e.g. `module` on a free node); then — and
    /// on a type-mismatched literal — `!=` and `NOT LIKE` hold and
    /// every other operator fails, matching the original equality-only
    /// semantics. Integers compare numerically, strings
    /// lexicographically; `LIKE` matches string fields against a
    /// `%`/`_` wildcard pattern.
    pub fn eval(&self, actual: Option<FieldValue<'_>>) -> bool {
        let like = || match (actual, &self.value) {
            (Some(FieldValue::Str(a)), Lit::Str(pattern)) => like_match(pattern, a),
            _ => false,
        };
        let ord = || match (actual, &self.value) {
            (Some(FieldValue::Str(a)), Lit::Str(want)) => Some(a.cmp(want.as_str())),
            (Some(FieldValue::Int(a)), Lit::Int(want)) => Some(a.cmp(want)),
            _ => None,
        };
        match self.op {
            CmpOp::Like => like(),
            CmpOp::NotLike => !like(),
            CmpOp::Eq => ord().is_some_and(Ordering::is_eq),
            CmpOp::Ne => ord().is_none_or(Ordering::is_ne),
            CmpOp::Lt => ord().is_some_and(Ordering::is_lt),
            CmpOp::Le => ord().is_some_and(Ordering::is_le),
            CmpOp::Gt => ord().is_some_and(Ordering::is_gt),
            CmpOp::Ge => ord().is_some_and(Ordering::is_ge),
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}",
            self.field.name(),
            self.op.symbol(),
            self.value
        )
    }
}

/// Conjunction of comparisons (`WHERE a = x AND b != y`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Predicate {
    pub conjuncts: Vec<Comparison>,
}

impl Predicate {
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// The module name demanded by a `module = '…'` equality conjunct,
    /// if present — the planner's index-scan opportunity.
    pub fn required_module(&self) -> Option<&str> {
        self.conjuncts.iter().find_map(|c| match c {
            Comparison {
                field: Field::Module,
                op: CmpOp::Eq,
                value: Lit::Str(s),
            } => Some(s.as_str()),
            _ => None,
        })
    }

    /// The kind name demanded by a `kind = '…'` equality conjunct, if
    /// present — the paged planner's kind-postings opportunity.
    pub fn required_kind(&self) -> Option<&str> {
        self.conjuncts.iter().find_map(|c| match c {
            Comparison {
                field: Field::Kind,
                op: CmpOp::Eq,
                value: Lit::Str(s),
            } => Some(s.as_str()),
            _ => None,
        })
    }

    /// Does any conjunct demand an *applicable* token — i.e. use an
    /// operator that fails on token-less nodes? Such a predicate can
    /// only match base-tuple / workflow-input nodes, which is the
    /// paged planner's token-kind-postings opportunity (`token LIKE
    /// 'C%'` narrows the scan to the two token-bearing kinds).
    pub fn requires_token(&self) -> bool {
        self.conjuncts
            .iter()
            .any(|c| c.field == Field::Token && !matches!(c.op, CmpOp::Ne | CmpOp::NotLike))
    }

    /// The pattern of a `module LIKE '…'` conjunct, if present — the
    /// paged planner matches it against the (resident) invocation
    /// table and unions the matching modules' postings.
    pub fn module_like_pattern(&self) -> Option<&str> {
        self.conjuncts.iter().find_map(|c| match c {
            Comparison {
                field: Field::Module,
                op: CmpOp::Like,
                value: Lit::Str(s),
            } => Some(s.as_str()),
            _ => None,
        })
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.conjuncts.iter().enumerate() {
            if i > 0 {
                f.write_str(" AND ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Traversal direction for `ANCESTORS` / `DESCENDANTS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkDir {
    Ancestors,
    Descendants,
}

/// A term producing a node set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetTerm {
    /// `SUBGRAPH OF ref`.
    Subgraph(NodeRef),
    /// `ANCESTORS/DESCENDANTS [OF] ref [DEPTH k] [WHERE pred]`.
    Walk {
        dir: WalkDir,
        root: NodeRef,
        depth: Option<u32>,
        filter: Predicate,
    },
    /// `MATCH class [WHERE pred]`.
    Match { class: NodeClass, filter: Predicate },
    /// Parenthesized sub-expression.
    Paren(Box<SetExpr>),
}

/// Node-set expressions composed with set operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetExpr {
    Term(SetTerm),
    Union(Box<SetExpr>, Box<SetExpr>),
    Intersect(Box<SetExpr>, Box<SetExpr>),
}

/// Semirings `EVAL … IN <name>` can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemiringName {
    Counting,
    Boolean,
    Tropical,
    Lineage,
    Why,
}

impl SemiringName {
    pub fn parse(name: &str) -> Option<SemiringName> {
        Some(match name.to_ascii_lowercase().as_str() {
            "counting" | "natural" => SemiringName::Counting,
            "boolean" | "bool" => SemiringName::Boolean,
            "tropical" | "cost" => SemiringName::Tropical,
            "lineage" | "which" => SemiringName::Lineage,
            "why" => SemiringName::Why,
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            SemiringName::Counting => "counting",
            SemiringName::Boolean => "boolean",
            SemiringName::Tropical => "tropical",
            SemiringName::Lineage => "lineage",
            SemiringName::Why => "why",
        }
    }
}

/// A computed projection over a node set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*)` — the node count, as a one-row table.
    CountStar,
    /// `COUNT(DISTINCT field)` — distinct applicable field values
    /// (nodes the field does not apply to are ignored, as SQL ignores
    /// NULLs).
    CountDistinct(Field),
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Aggregate::CountStar => f.write_str("COUNT(*)"),
            Aggregate::CountDistinct(field) => write!(f, "COUNT(DISTINCT {})", field.name()),
        }
    }
}

/// What an `ORDER BY` sorts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortKey {
    /// Node id (the default order of every node set).
    Id,
    /// The `count` column of a `GROUP BY` table.
    Count,
    /// A node field (node sets) or the grouping field (tables).
    Field(Field),
}

impl SortKey {
    pub fn name(&self) -> &'static str {
        match self {
            SortKey::Id => "id",
            SortKey::Count => "count",
            SortKey::Field(f) => f.name(),
        }
    }
}

/// `ORDER BY key [ASC|DESC]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderBy {
    pub key: SortKey,
    pub desc: bool,
}

impl fmt::Display for OrderBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ORDER BY {}", self.key.name())?;
        if self.desc {
            f.write_str(" DESC")?;
        }
        Ok(())
    }
}

/// Result-shaping clauses riding on a node-set query: an aggregate
/// projection, grouping, ordering, and a row limit. All optional; the
/// default shapes nothing (the query returns its plain node set).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Shaping {
    /// `COUNT(*)` / `COUNT(DISTINCT f)` prefix (excludes the others).
    pub agg: Option<Aggregate>,
    /// `GROUP BY field` — rows of (field value, count).
    pub group_by: Option<Field>,
    /// `ORDER BY key [ASC|DESC]`.
    pub order_by: Option<OrderBy>,
    /// `LIMIT n` — keep the first n rows/nodes of the result order.
    pub limit: Option<u64>,
}

impl Shaping {
    /// No shaping at all — the query passes its node set through.
    pub fn is_plain(&self) -> bool {
        self.agg.is_none()
            && self.group_by.is_none()
            && self.order_by.is_none()
            && self.limit.is_none()
    }

    /// The limit the planner may push into an id-ordered scan for
    /// early exit: only when nothing reshapes the set first and the
    /// requested order is the scan's native one (id ascending).
    pub fn pushdown_limit(&self) -> Option<u64> {
        if self.agg.is_some() || self.group_by.is_some() {
            return None;
        }
        match self.order_by {
            None
            | Some(OrderBy {
                key: SortKey::Id,
                desc: false,
            }) => self.limit,
            Some(_) => None,
        }
    }

    /// Lowercase one-line description for `EXPLAIN` output. Identical
    /// for the resident and paged planners — the "plan shape" the
    /// agreement tests compare.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(agg) = &self.agg {
            parts.push(agg.to_string().to_ascii_lowercase());
        }
        if let Some(g) = &self.group_by {
            parts.push(format!("group by {}", g.name()));
        }
        if let Some(o) = &self.order_by {
            parts.push(format!(
                "order by {}{}",
                o.key.name(),
                if o.desc { " desc" } else { "" }
            ));
        }
        if let Some(n) = &self.limit {
            parts.push(format!("limit {n}"));
        }
        parts.join(", ")
    }
}

/// A node-set query with optional result shaping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub expr: SetExpr,
    pub shaping: Shaping,
}

/// One parsed ProQL statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// A node-set query, possibly shaped (aggregated/grouped/ordered/
    /// limited).
    Query(Query),
    /// `WHY ref` — symbolic provenance expression of a node.
    Why(NodeRef),
    /// `DEPENDS(n, m)` — does n's existence depend on m's?
    Depends(NodeRef, NodeRef),
    /// `DELETE ref PROPAGATE` — §4.2 deletion, mutating the session.
    DeletePropagate(NodeRef),
    /// `ZOOM OUT TO m1, m2, …`.
    ZoomOut(Vec<String>),
    /// `ZOOM IN [TO m1, …]`; `None` = all currently zoomed modules.
    ZoomIn(Option<Vec<String>>),
    /// `EVAL ref IN semiring`.
    Eval(NodeRef, SemiringName),
    /// `BUILD INDEX` — build the reachability closure.
    BuildIndex,
    /// `DROP INDEX`.
    DropIndex,
    /// `EXPLAIN stmt` — plan without executing.
    Explain(Box<Statement>),
    /// `EXPLAIN ANALYZE stmt` — execute and report the plan annotated
    /// with per-operator actuals (rows, visited, reads, wall time).
    ExplainAnalyze(Box<Statement>),
    /// `CHECK stmt` — statically analyze a statement against the
    /// session schema and report typed diagnostics. The inner
    /// statement's raw source text is captured verbatim (it may not
    /// even parse) and is **never executed**.
    Check { source: String },
    /// `EXPLAIN LINT stmt` — the same analysis surfaced through the
    /// `EXPLAIN` family; diagnostics are byte-identical to `CHECK`.
    ExplainLint { source: String },
    /// `COMPACT` — merge the append backend's tail segment into a
    /// fresh sealed base segment. A no-op message on other backends.
    Compact,
    /// `STATS` — graph statistics.
    Stats,
}

impl Statement {
    /// Can this statement run against a shared, immutable session?
    ///
    /// Read-only statements (`MATCH`, walks, `SUBGRAPH OF`, `WHY`,
    /// `DEPENDS`, `EVAL`, `EXPLAIN`, `STATS`, set operations) may
    /// execute concurrently through [`crate::Session::run_read`];
    /// everything else (`DELETE PROPAGATE`, zooms, index maintenance)
    /// mutates session state and must serialize through `&mut` access.
    ///
    /// `EXPLAIN ANALYZE` counts as read-only: it executes its inner
    /// statement, so the planners reject a mutating inner outright
    /// rather than letting it slip through a shared session.
    pub fn is_read_only(&self) -> bool {
        !matches!(
            self,
            Statement::DeletePropagate(_)
                | Statement::ZoomOut(_)
                | Statement::ZoomIn(_)
                | Statement::BuildIndex
                | Statement::DropIndex
                | Statement::Compact
        )
    }
}

/// Render a module name the way the parser reads it back: bare when it
/// lexes as one identifier, quoted otherwise.
fn fmt_name(f: &mut fmt::Formatter<'_>, name: &str) -> fmt::Result {
    let mut chars = name.chars();
    let ident = match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' => {
            chars.all(|c| c.is_alphanumeric() || c == '_' || c == '-')
        }
        _ => false,
    };
    if ident {
        f.write_str(name)
    } else {
        write!(f, "'{name}'")
    }
}

fn fmt_name_list(f: &mut fmt::Formatter<'_>, names: &[String]) -> fmt::Result {
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        fmt_name(f, n)?;
    }
    Ok(())
}

impl fmt::Display for SetTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetTerm::Subgraph(r) => write!(f, "SUBGRAPH OF {r}"),
            SetTerm::Walk {
                dir,
                root,
                depth,
                filter,
            } => {
                let kw = match dir {
                    WalkDir::Ancestors => "ANCESTORS",
                    WalkDir::Descendants => "DESCENDANTS",
                };
                write!(f, "{kw} OF {root}")?;
                if let Some(d) = depth {
                    write!(f, " DEPTH {d}")?;
                }
                if !filter.is_empty() {
                    write!(f, " WHERE {filter}")?;
                }
                Ok(())
            }
            SetTerm::Match { class, filter } => {
                write!(f, "MATCH {}", class.name())?;
                if !filter.is_empty() {
                    write!(f, " WHERE {filter}")?;
                }
                Ok(())
            }
            SetTerm::Paren(inner) => write!(f, "({inner})"),
        }
    }
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Term(t) => write!(f, "{t}"),
            SetExpr::Union(a, b) => write!(f, "{a} UNION {b}"),
            SetExpr::Intersect(a, b) => write!(f, "{a} INTERSECT {b}"),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(agg) = &self.shaping.agg {
            write!(f, "{agg} ")?;
        }
        write!(f, "{}", self.expr)?;
        if let Some(g) = &self.shaping.group_by {
            write!(f, " GROUP BY {}", g.name())?;
        }
        if let Some(o) = &self.shaping.order_by {
            write!(f, " {o}")?;
        }
        if let Some(n) = &self.shaping.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

/// The canonical pretty-printer: upper-case keywords, single spaces,
/// quoted string literals. `parse(stmt.to_string())` round-trips to an
/// equal `Statement` (property-tested in `tests/integration.rs`), so
/// the rendering doubles as a normalization key — equivalent spellings
/// of one statement share a single cache entry in `lipstick-serve`.
impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Query(q) => write!(f, "{q}"),
            Statement::Why(r) => write!(f, "WHY {r}"),
            Statement::Depends(n, m) => write!(f, "DEPENDS({n}, {m})"),
            Statement::DeletePropagate(r) => write!(f, "DELETE {r} PROPAGATE"),
            Statement::ZoomOut(names) => {
                f.write_str("ZOOM OUT TO ")?;
                fmt_name_list(f, names)
            }
            Statement::ZoomIn(None) => f.write_str("ZOOM IN"),
            Statement::ZoomIn(Some(names)) => {
                f.write_str("ZOOM IN TO ")?;
                fmt_name_list(f, names)
            }
            Statement::Eval(r, s) => write!(f, "EVAL {r} IN {}", s.name()),
            Statement::BuildIndex => f.write_str("BUILD INDEX"),
            Statement::DropIndex => f.write_str("DROP INDEX"),
            Statement::Explain(inner) => write!(f, "EXPLAIN {inner}"),
            Statement::ExplainAnalyze(inner) => write!(f, "EXPLAIN ANALYZE {inner}"),
            // The analyzed source prints verbatim: it was captured at
            // token boundaries, so re-parsing recaptures it unchanged
            // and the round-trip property holds even for inner text
            // the parser itself would reject.
            Statement::Check { source } => write!(f, "CHECK {source}"),
            Statement::ExplainLint { source } => write!(f, "EXPLAIN LINT {source}"),
            Statement::Compact => f.write_str("COMPACT"),
            Statement::Stats => f.write_str("STATS"),
        }
    }
}

#[cfg(test)]
mod like_tests {
    use super::like_match;

    #[test]
    fn like_wildcards() {
        assert!(like_match("C%", "C2"));
        assert!(like_match("C%", "C"));
        assert!(!like_match("C%", "xC"));
        assert!(like_match("%2", "C2"));
        assert!(like_match("%", ""));
        assert!(like_match("C_", "C2"));
        assert!(!like_match("C_", "C22"));
        assert!(like_match("a%b%c", "a-x-b-y-c"));
        assert!(!like_match("a%b%c", "a-c"));
        assert!(like_match("Mdealer_", "Mdealer1"));
        assert!(like_match("exact", "exact"));
        assert!(!like_match("exact", "exactly"));
        assert!(like_match("%%", "anything"));
    }
}
