//! Static analysis for ProQL statements: the engine behind `CHECK` and
//! `EXPLAIN LINT`.
//!
//! [`analyze`] runs between parse and plan and **never executes** the
//! statement under analysis. It produces typed [`Diagnostic`] values —
//! error code, severity, byte [`Span`] into the original source,
//! message, optional did-you-mean suggestion — covering:
//!
//! - lexical and syntax errors (`E001`/`E002`), with the position the
//!   parser stopped at;
//! - name resolution against the session schema: node classes, fields,
//!   semirings (`E003`–`E005`), node ids (`E101`), module / kind / role
//!   names (`W201`–`W204`), each with a nearest-name suggestion;
//! - type checking: comparisons whose literal type cannot match the
//!   field (`W210` always-false, `W211` always-true);
//! - satisfiability: token predicates on token-less classes (`W212`),
//!   contradictory equalities (`W213`), empty `execution` ranges
//!   (`W214`), `kind` conjuncts contradicting the `MATCH` class
//!   (`W215`), duplicate conjuncts (`W216`);
//! - cost lints reusing the planner's node-count estimates: unbounded
//!   walks (`C301`) and unselective full scans (`C302`);
//! - informational notes: wildcard-free `LIKE` (`I401`), trivial `EVAL`
//!   of a base node (`I402`), `LIMIT 0` (`I403`), `DEPTH 0` (`I404`),
//!   and mutating statements under `CHECK` (`I405`).
//!
//! Every span comes from the one parse of the statement:
//! [`parse_with_sites`] records, as it reads, where each construct the
//! analyzer reports on sits — each comparison's field and value, each
//! `MATCH` class, walk keyword, `DEPTH` and `LIMIT` integer, and `#id`
//! — and the analyzer reads those sites, never the tokens.
//!
//! Determinism is load-bearing: the one executor must render
//! byte-identical diagnostics for the same source over the same graph
//! on every kind of session — resident, paged and append — and through
//! both serve protocols (locked down by `tests/differential.rs`). The
//! analyzer therefore consults only [`GraphStore`] facts that agree
//! across stores — `node_count`, `visible_count`, `is_visible`,
//! `kind_of`, and the (always resident) invocation table — and never
//! session state like reach-index presence.

use std::cell::OnceCell;
use std::fmt;

use lipstick_core::graph::InvocationInfo;
use lipstick_core::store::GraphStore;
use lipstick_core::{NodeId, NodeKind};

use crate::ast::{
    like_match, CmpOp, Comparison, Field, Lit, NodeClass, NodeRef, Statement, WalkDir,
};
use crate::error::ProqlError;
use crate::lexer::Span;
use crate::parser::{parse_with_sites, ConjunctSite, Sites};
use crate::result::json_escape;

/// Diagnostic severity, ordered from worst to mildest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The statement cannot execute meaningfully.
    Error,
    /// The statement executes but almost certainly not as intended.
    Warning,
    /// Worth knowing; nothing is wrong.
    Info,
}

impl Severity {
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One typed diagnostic: code, severity, byte span into the analyzed
/// source, message, and an optional suggestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable error code (`E002`, `W213`, …) — see the README's
    /// error-code table.
    pub code: &'static str,
    pub severity: Severity,
    /// Byte range into the analyzed statement's source text.
    pub span: Span,
    pub message: String,
    /// A `did you mean …`-style hint, when the analyzer has one.
    pub suggestion: Option<String>,
}

/// The analyzer's complete output for one statement: the source it
/// analyzed plus every diagnostic, ordered by span then code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostics {
    pub source: String,
    pub items: Vec<Diagnostic>,
}

impl Diagnostics {
    pub fn is_clean(&self) -> bool {
        self.items.is_empty()
    }

    fn count(&self, s: Severity) -> usize {
        self.items.iter().filter(|d| d.severity == s).count()
    }

    /// JSON rendering used by the HTTP shim: the typed fields survive
    /// the wire, so remote tooling can re-render spans locally.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"type\":\"diagnostics\"");
        out.push_str(&format!(
            ",\"errors\":{},\"warnings\":{},\"infos\":{}",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        ));
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"start\":{},\"end\":{},\"message\":\"{}\"",
                d.code,
                d.severity,
                d.span.start,
                d.span.end,
                json_escape(&d.message)
            ));
            match &d.suggestion {
                Some(s) => out.push_str(&format!(",\"suggestion\":\"{}\"}}", json_escape(s))),
                None => out.push_str(",\"suggestion\":null}"),
            }
        }
        out.push_str("]}");
        out
    }
}

/// The canonical textual rendering: per-diagnostic header, `-->`
/// location with the byte span, the offending source line with a caret
/// underline, an optional `= help:` suggestion, and a summary line.
/// Byte-identical across every backend and protocol.
impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.items.is_empty() {
            return write!(f, "no diagnostics: statement is clean");
        }
        for d in &self.items {
            writeln!(f, "{}[{}]: {}", d.severity, d.code, d.message)?;
            let (line_no, line_start, line) = line_of(&self.source, d.span.start);
            writeln!(
                f,
                "  --> {}:{} (bytes {})",
                line_no,
                self.source[line_start..d.span.start.min(self.source.len())]
                    .chars()
                    .count()
                    + 1,
                d.span
            )?;
            let prefix_cols = self.source[line_start..d.span.start.min(line_start + line.len())]
                .chars()
                .count();
            let span_end = d.span.end.min(line_start + line.len());
            let caret_cols = if d.span.start < span_end {
                self.source[d.span.start..span_end].chars().count().max(1)
            } else {
                1
            };
            writeln!(f, "{:>4} | {}", line_no, line)?;
            writeln!(
                f,
                "     | {}{}",
                " ".repeat(prefix_cols),
                "^".repeat(caret_cols)
            )?;
            if let Some(s) = &d.suggestion {
                writeln!(f, "     = help: {s}")?;
            }
        }
        write!(
            f,
            "{} diagnostic(s): {} error(s), {} warning(s), {} info",
            self.items.len(),
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        )
    }
}

/// The (1-based line number, line start byte offset, line text) of the
/// line containing byte offset `at`.
fn line_of(src: &str, at: usize) -> (usize, usize, &str) {
    let at = at.min(src.len());
    let mut line_no = 1;
    let mut start = 0;
    for (i, b) in src.bytes().enumerate() {
        if i >= at {
            break;
        }
        if b == b'\n' {
            line_no += 1;
            start = i + 1;
        }
    }
    let end = src[start..].find('\n').map_or(src.len(), |rel| start + rel);
    (line_no, start, &src[start..end])
}

/// Every kind name a node can carry ([`NodeKind::name`]), sorted.
const ALL_KINDS: &[&str] = &NodeKind::NAMES;

/// Every role name ([`lipstick_core::Role::name`]), sorted.
const ALL_ROLES: &[&str] = &[
    "free",
    "intermediate",
    "invocation",
    "module_input",
    "module_output",
    "state",
    "workflow_input",
    "zoom",
];

const ALL_CLASSES: &[&str] = &[
    "base-nodes",
    "i-nodes",
    "m-nodes",
    "nodes",
    "o-nodes",
    "p-nodes",
    "s-nodes",
    "v-nodes",
];

const ALL_FIELDS: &[&str] = &["execution", "kind", "module", "role", "token"];

const ALL_SEMIRINGS: &[&str] = &[
    "bool", "boolean", "cost", "counting", "lineage", "natural", "tropical", "which", "why",
];

/// Levenshtein edit distance over chars — small inputs, classic DP.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The nearest candidate within an edit-distance budget, rendered as a
/// `did you mean '…'?` hint. Ties break lexicographically so backends
/// cannot disagree.
fn did_you_mean<'a, I>(input: &str, candidates: I) -> Option<String>
where
    I: IntoIterator<Item = &'a str>,
{
    let input_lc = input.to_ascii_lowercase();
    let budget = (input_lc.chars().count() / 3).max(1) + 1;
    let mut best: Option<(usize, &str)> = None;
    for cand in candidates {
        let d = edit_distance(&input_lc, &cand.to_ascii_lowercase());
        if d == 0 || d > budget {
            continue;
        }
        best = match best {
            Some((bd, bc)) if (bd, bc) <= (d, cand) => Some((bd, bc)),
            _ => Some((d, cand)),
        };
    }
    best.map(|(_, c)| format!("did you mean '{c}'?"))
}

/// Statically analyze one statement's source text against the store's
/// schema. Never executes, never plans, never panics: ill-formed input
/// comes back as diagnostics, not errors.
pub fn analyze<S: GraphStore + ?Sized>(store: &S, source: &str) -> Diagnostics {
    let mut a = Analyzer {
        invocations: store.invocations(),
        modules: OnceCell::new(),
        executions: OnceCell::new(),
        visible: store.visible_count(),
        node_count: store.node_count(),
        source,
        items: Vec::new(),
    };
    a.run(store);
    let mut items = a.items;
    items.sort_by(|x, y| {
        (x.span.start, x.span.end, x.code).cmp(&(y.span.start, y.span.end, y.code))
    });
    Diagnostics {
        source: source.to_string(),
        items,
    }
}

struct Analyzer<'s> {
    /// The store's invocation table, the schema module and execution
    /// literals resolve against.
    invocations: &'s [InvocationInfo],
    /// Its distinct module names and executions, sorted — built only
    /// when a statement names a module or execution literal to check.
    modules: OnceCell<Vec<&'s str>>,
    executions: OnceCell<Vec<u32>>,
    visible: usize,
    node_count: usize,
    source: &'s str,
    items: Vec<Diagnostic>,
}

impl<'s> Analyzer<'s> {
    fn modules(&self) -> &[&'s str] {
        self.modules.get_or_init(|| {
            let mut modules: Vec<&str> =
                self.invocations.iter().map(|i| i.module.as_str()).collect();
            modules.sort_unstable();
            modules.dedup();
            modules
        })
    }

    fn executions(&self) -> &[u32] {
        self.executions.get_or_init(|| {
            let mut executions: Vec<u32> = self.invocations.iter().map(|i| i.execution).collect();
            executions.sort_unstable();
            executions.dedup();
            executions
        })
    }

    fn whole_span(&self) -> Span {
        Span::new(0, self.source.len())
    }

    fn push(
        &mut self,
        code: &'static str,
        severity: Severity,
        span: Span,
        message: String,
        suggestion: Option<String>,
    ) {
        self.items.push(Diagnostic {
            code,
            severity,
            span,
            message,
            suggestion,
        });
    }

    fn run<S: GraphStore + ?Sized>(&mut self, store: &S) {
        let (err, span) = match parse_with_sites(self.source) {
            Ok((stmt, sites)) => return self.statement(store, &stmt, &sites),
            Err(failed) => failed,
        };
        let (code, message, suggestion) = match &err {
            ProqlError::Lex { message, .. } => ("E001", message.clone(), None),
            ProqlError::UnknownClass(name) => (
                "E003",
                err.to_string(),
                did_you_mean(name, ALL_CLASSES.iter().copied()),
            ),
            ProqlError::UnknownField(name) => (
                "E004",
                err.to_string(),
                did_you_mean(name, ALL_FIELDS.iter().copied()),
            ),
            ProqlError::UnknownSemiring(name) => (
                "E005",
                err.to_string(),
                did_you_mean(name, ALL_SEMIRINGS.iter().copied()),
            ),
            _ => ("E002", err.to_string(), None),
        };
        self.push(code, Severity::Error, span, message, suggestion);
    }

    /// Node-id references resolve identically everywhere: bounds and
    /// visibility are index-level on every backend. Checked once per
    /// statement, however many `EXPLAIN` levels wrap it.
    fn statement<S: GraphStore + ?Sized>(&mut self, store: &S, stmt: &Statement, sites: &Sites) {
        for &(id, span) in &sites.ids {
            if id as usize >= self.node_count {
                self.push(
                    "E101",
                    Severity::Error,
                    span,
                    format!(
                        "unknown node reference #{id}: graph has {} node(s)",
                        self.node_count
                    ),
                    None,
                );
            } else if !store.is_visible(NodeId(id)) {
                self.push(
                    "E101",
                    Severity::Error,
                    span,
                    format!("node #{id} is not visible (deleted or zoomed away)"),
                    None,
                );
            }
        }
        self.statement_form(store, stmt, sites);
    }

    /// The checks a statement's form asks for, at each `EXPLAIN` level.
    fn statement_form<S: GraphStore + ?Sized>(
        &mut self,
        store: &S,
        stmt: &Statement,
        sites: &Sites,
    ) {
        if !stmt.is_read_only() {
            self.push(
                "I405",
                Severity::Info,
                self.whole_span(),
                "statement mutates the session; CHECK only analyzed it, nothing executed".into(),
                None,
            );
        }
        match stmt {
            Statement::Query(_) => self.query(sites),
            Statement::Eval(NodeRef::Id(id), _)
                if (*id as usize) < self.node_count && store.is_visible(NodeId(*id)) =>
            {
                let kind = store.kind_of(NodeId(*id));
                if matches!(
                    *kind,
                    NodeKind::BaseTuple { .. } | NodeKind::WorkflowInput { .. }
                ) {
                    let span = sites.ids.first().map_or(self.whole_span(), |&(_, s)| s);
                    self.push(
                        "I402",
                        Severity::Info,
                        span,
                        format!(
                            "EVAL of a {} node is trivial: its provenance is itself",
                            kind.name()
                        ),
                        None,
                    );
                }
            }
            Statement::Explain(inner) | Statement::ExplainAnalyze(inner) => {
                self.statement_form(store, inner, sites)
            }
            _ => {}
        }
    }

    fn query(&mut self, sites: &Sites) {
        // Predicate-level checks, grouped per predicate with the
        // owning MATCH class (when there is one).
        for (owner, conjuncts) in &sites.predicates {
            self.predicate(*owner, conjuncts);
        }

        // Cost lints: unselective scans and unbounded walks.
        for &(class, narrowed, span) in &sites.classes {
            if class == NodeClass::All && !narrowed {
                self.push(
                    "C302",
                    Severity::Info,
                    span,
                    format!(
                        "MATCH nodes with no WHERE predicate scans all {} visible node(s)",
                        self.visible
                    ),
                    Some("add a WHERE predicate or a narrower class to bound the scan".into()),
                );
            }
        }
        for &(dir, depth, span) in &sites.walks {
            if depth.is_none() {
                let kw = match dir {
                    WalkDir::Ancestors => "ANCESTORS",
                    WalkDir::Descendants => "DESCENDANTS",
                };
                self.push(
                    "C301",
                    Severity::Warning,
                    span,
                    format!(
                        "unbounded {kw} walk may traverse the whole cone (up to {} visible \
                         node(s))",
                        self.visible
                    ),
                    Some(
                        "bound it with DEPTH n, or BUILD INDEX to serve it from the closure".into(),
                    ),
                );
            }
        }
        for &(_, depth, _) in &sites.walks {
            if let Some((0, span)) = depth {
                self.push(
                    "I404",
                    Severity::Info,
                    span,
                    "DEPTH 0 collects nothing beyond the root".into(),
                    None,
                );
            }
        }
        if let Some((0, span)) = sites.limit {
            self.push(
                "I403",
                Severity::Info,
                span,
                "LIMIT 0 returns no rows".into(),
                None,
            );
        }
    }

    /// All checks of one `WHERE` clause: each conjunct with the spans
    /// of its field and value.
    fn predicate(&mut self, owner: Option<NodeClass>, conjuncts: &[ConjunctSite]) {
        let mut eq_seen: Vec<(Field, &Lit, Span)> = Vec::new();
        let mut exec_lo: u64 = 0;
        let mut exec_hi: u64 = u64::MAX;
        let mut exec_last: Option<Span> = None;
        for (idx, &(ref c, field_span, value_span)) in conjuncts.iter().enumerate() {
            let whole = field_span.to(value_span);

            // W216: an exact duplicate of an earlier conjunct.
            if conjuncts[..idx].iter().any(|(earlier, ..)| earlier == c) {
                self.push(
                    "W216",
                    Severity::Warning,
                    whole,
                    format!("duplicate conjunct '{c}' has no effect"),
                    None,
                );
                continue;
            }

            // Type checking: a literal the field can never carry makes
            // the comparison constant (§ Comparison::eval semantics).
            let type_ok = match (c.field, &c.value) {
                (Field::Execution, Lit::Int(_)) => true,
                (Field::Execution, Lit::Str(_)) => false,
                (_, Lit::Str(_)) => true,
                (_, Lit::Int(_)) => false,
            };
            if !type_ok {
                let (want, got) = match c.field {
                    Field::Execution => ("an integer", "a string"),
                    _ => ("a string", "an integer"),
                };
                if matches!(c.op, CmpOp::Ne | CmpOp::NotLike) {
                    self.push(
                        "W211",
                        Severity::Warning,
                        whole,
                        format!(
                            "'{c}' is always true: {} takes {want}, not {got}",
                            c.field.name()
                        ),
                        None,
                    );
                } else {
                    self.push(
                        "W210",
                        Severity::Warning,
                        whole,
                        format!(
                            "'{c}' can never match: {} takes {want}, not {got}",
                            c.field.name()
                        ),
                        None,
                    );
                }
                continue;
            }

            // Schema-name resolution per field.
            match (c.field, &c.value) {
                (Field::Module, Lit::Str(s)) => self.module_name(c, s, value_span),
                (Field::Kind, Lit::Str(s)) => {
                    self.vocab_name(c, s, value_span, "kind", "W202", ALL_KINDS)
                }
                (Field::Role, Lit::Str(s)) => {
                    self.vocab_name(c, s, value_span, "role", "W203", ALL_ROLES)
                }
                (Field::Execution, Lit::Int(n))
                    if c.op == CmpOp::Eq
                        && !self.executions().iter().any(|&e| u64::from(e) == *n) =>
                {
                    let message = format!(
                        "no invocation has execution {n} (executions recorded: {})",
                        render_executions(self.executions())
                    );
                    self.push("W204", Severity::Warning, value_span, message, None);
                }
                _ => {}
            }

            // I401: a LIKE pattern with no wildcards is equality in
            // disguise.
            if let (CmpOp::Like | CmpOp::NotLike, Lit::Str(p)) = (c.op, &c.value) {
                if !p.contains('%') && !p.contains('_') {
                    let op = if c.op == CmpOp::Like { "=" } else { "!=" };
                    self.push(
                        "I401",
                        Severity::Info,
                        value_span,
                        "pattern has no '%' or '_' wildcard; LIKE behaves like equality".into(),
                        Some(format!("write {} {op} '{p}'", c.field.name())),
                    );
                }
            }

            // W212: demanding an applicable token from a token-less
            // class can never match.
            if c.field == Field::Token
                && !matches!(c.op, CmpOp::Ne | CmpOp::NotLike)
                && matches!(
                    owner,
                    Some(
                        NodeClass::Invocation
                            | NodeClass::ModuleInput
                            | NodeClass::ModuleOutput
                            | NodeClass::State
                    )
                )
            {
                let class = owner.map_or("", |o| o.name());
                self.push(
                    "W212",
                    Severity::Warning,
                    whole,
                    format!("{class} carry no token; '{c}' can never match"),
                    None,
                );
            }

            // W215: a kind equality that contradicts the MATCH class.
            if let (Field::Kind, Lit::Str(s)) = (c.field, &c.value) {
                if let Some(only) = owner.and_then(|o| o.single_kind_name()) {
                    if c.op == CmpOp::Eq && s != only && ALL_KINDS.contains(&s.as_str()) {
                        self.push(
                            "W215",
                            Severity::Warning,
                            whole,
                            format!(
                                "MATCH {} only selects kind '{only}'; 'kind = '{s}'' can never \
                                 match",
                                owner.map_or("", |o| o.name())
                            ),
                            None,
                        );
                    } else if c.op == CmpOp::Ne && s == only {
                        self.push(
                            "W215",
                            Severity::Warning,
                            whole,
                            format!(
                                "MATCH {} only selects kind '{only}'; excluding it matches \
                                 nothing",
                                owner.map_or("", |o| o.name())
                            ),
                            None,
                        );
                    }
                }
            }

            // W213: contradictory equalities on one field.
            if c.op == CmpOp::Eq {
                if let Some((_, prior, _)) = eq_seen
                    .iter()
                    .find(|(f, v, _)| *f == c.field && *v != &c.value)
                {
                    self.push(
                        "W213",
                        Severity::Warning,
                        whole,
                        format!(
                            "'{c}' contradicts the earlier {} = {prior}; the predicate can \
                             never match",
                            c.field.name()
                        ),
                        None,
                    );
                }
                eq_seen.push((c.field, &c.value, whole));
            }

            // W214: accumulate execution bounds to detect empty ranges.
            if let (Field::Execution, Lit::Int(n)) = (c.field, &c.value) {
                match c.op {
                    CmpOp::Eq => {
                        exec_lo = exec_lo.max(*n);
                        exec_hi = exec_hi.min(*n);
                    }
                    CmpOp::Gt => exec_lo = exec_lo.max(n.saturating_add(1)),
                    CmpOp::Ge => exec_lo = exec_lo.max(*n),
                    CmpOp::Lt => exec_hi = exec_hi.min(n.checked_sub(1).unwrap_or(0).min(*n)),
                    CmpOp::Le => exec_hi = exec_hi.min(*n),
                    _ => {}
                }
                if matches!(
                    c.op,
                    CmpOp::Eq | CmpOp::Gt | CmpOp::Ge | CmpOp::Lt | CmpOp::Le
                ) {
                    exec_last = Some(whole);
                }
                // `execution < 0` has an empty range on its own.
                if c.op == CmpOp::Lt && *n == 0 {
                    exec_hi = 0;
                    exec_lo = 1;
                }
            }
        }
        if exec_lo > exec_hi {
            if let Some(span) = exec_last {
                self.push(
                    "W214",
                    Severity::Warning,
                    span,
                    "the execution bounds leave an empty range; the predicate can never match"
                        .into(),
                    None,
                );
            }
        }
    }

    /// W201: module names resolve against the invocation table (the one
    /// piece of session schema that is always resident on every
    /// backend).
    fn module_name(&mut self, c: &Comparison, s: &str, span: Span) {
        match c.op {
            CmpOp::Eq | CmpOp::Ne if !self.modules().contains(&s) => {
                let sugg = did_you_mean(s, self.modules().iter().copied());
                let always = if c.op == CmpOp::Ne {
                    "; '!=' against it is always true"
                } else {
                    "; the comparison can never match"
                };
                self.push(
                    "W201",
                    Severity::Warning,
                    span,
                    format!("no module named '{s}'{always}"),
                    sugg,
                );
            }
            CmpOp::Like if !self.modules().iter().any(|m| like_match(s, m)) => {
                self.push(
                    "W201",
                    Severity::Warning,
                    span,
                    format!("pattern '{s}' matches none of the session's modules"),
                    None,
                );
            }
            _ => {}
        }
    }

    /// W202/W203: kind and role names come from a closed vocabulary.
    fn vocab_name(
        &mut self,
        c: &Comparison,
        s: &str,
        span: Span,
        what: &str,
        code: &'static str,
        universe: &[&'static str],
    ) {
        let known = universe.contains(&s);
        match c.op {
            CmpOp::Eq if !known => {
                self.push(
                    code,
                    Severity::Warning,
                    span,
                    format!("no node {what} named '{s}'; the comparison can never match"),
                    did_you_mean(s, universe.iter().copied()),
                );
            }
            CmpOp::Ne if !known => {
                self.push(
                    code,
                    Severity::Warning,
                    span,
                    format!("no node {what} named '{s}'; '!=' against it is always true"),
                    did_you_mean(s, universe.iter().copied()),
                );
            }
            CmpOp::Like if !universe.iter().any(|k| like_match(s, k)) => {
                self.push(
                    code,
                    Severity::Warning,
                    span,
                    format!("pattern '{s}' matches no node {what}"),
                    None,
                );
            }
            _ => {}
        }
    }
}

fn render_executions(execs: &[u32]) -> String {
    if execs.is_empty() {
        return "none".into();
    }
    execs
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_levels_report_a_node_once() {
        let mut g = lipstick_core::ProvGraph::new();
        g.add_base("a");
        for src in [
            "SUBGRAPH OF #999999",
            "EXPLAIN SUBGRAPH OF #999999",
            "EXPLAIN ANALYZE SUBGRAPH OF #999999",
        ] {
            let d = analyze(&g, src);
            let e101 = d.items.iter().filter(|i| i.code == "E101").count();
            assert_eq!(e101, 1, "{src}: {:?}", d.items);
        }
    }

    #[test]
    fn stray_semicolons_are_not_errors() {
        let g = lipstick_core::ProvGraph::new();
        for src in ["MATCH nodes;;", "; MATCH nodes"] {
            let d = analyze(&g, src);
            assert!(
                d.items.iter().all(|i| i.code != "E002"),
                "{src}: {:?}",
                d.items
            );
        }
        let d = analyze(&g, "MATCH nodes; STATS");
        assert_eq!(d.items.len(), 1, "{:?}", d.items);
        assert_eq!(d.items[0].code, "E002");
        assert_eq!(
            d.items[0].message,
            "parse error: expected one statement, found 2"
        );
    }

    #[test]
    fn edit_distance_and_suggestions() {
        assert_eq!(edit_distance("delta", "delta"), 0);
        assert_eq!(edit_distance("detla", "delta"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(
            did_you_mean("detla", ALL_KINDS.iter().copied()),
            Some("did you mean 'delta'?".into())
        );
        assert_eq!(
            did_you_mean("modul", ALL_FIELDS.iter().copied()),
            Some("did you mean 'module'?".into())
        );
        // Nothing close enough: no suggestion.
        assert_eq!(did_you_mean("zzzzzzzz", ALL_KINDS.iter().copied()), None);
        // The input itself is never suggested back.
        assert_eq!(did_you_mean("delta", ["delta"]), None);
    }

    #[test]
    fn line_of_finds_lines() {
        let src = "abc\ndef\nghi";
        assert_eq!(line_of(src, 0), (1, 0, "abc"));
        assert_eq!(line_of(src, 5), (2, 4, "def"));
        assert_eq!(line_of(src, 10), (3, 8, "ghi"));
        assert_eq!(line_of(src, 99), (3, 8, "ghi"));
    }
}
