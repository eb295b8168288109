//! Recursive-descent parser: token stream → [`Statement`]s.
//!
//! Keywords are matched case-insensitively against identifiers, so
//! `match m-nodes where module = 'x'` and the upper-case spelling are
//! the same script.
//!
//! The parser is the only code that reads statement text. For the
//! static analyzer ([`crate::analyze`]) it also records, as it reads,
//! where each construct the analyzer reports on sits in the source
//! ([`Sites`]); [`parse_script`] and [`parse_statement`] record
//! nothing.

use crate::ast::*;
use crate::error::{ProqlError, Result};
use crate::lexer::{lex_spanned, Span, SpannedTok, Tok};

/// A `WHERE` conjunct with the spans of its field and its value.
pub(crate) type ConjunctSite = (Comparison, Span, Span);

/// An integer and the span of its text.
pub(crate) type IntSite<N> = (N, Span);

/// The byte spans of the constructs the analyzer reports on, in source
/// order, as one parse read them.
#[derive(Debug, Default)]
pub(crate) struct Sites {
    /// Each `#id` node reference.
    pub ids: Vec<(u32, Span)>,
    /// Each `WHERE` clause: the `MATCH` class it narrows (`None` on a
    /// walk), and each conjunct with the spans of its field and value.
    pub predicates: Vec<(Option<NodeClass>, Vec<ConjunctSite>)>,
    /// Each `MATCH` class, whether a `WHERE` narrows it, and the span
    /// of its name.
    pub classes: Vec<(NodeClass, bool, Span)>,
    /// Each walk: its direction, its `DEPTH` bound with the bound's
    /// span, and the span of its `ANCESTORS`/`DESCENDANTS` keyword.
    pub walks: Vec<(WalkDir, Option<IntSite<u32>>, Span)>,
    /// The `LIMIT` count and its span.
    pub limit: Option<IntSite<u64>>,
}

/// Parse a whole script: statements separated/terminated by `;`.
pub fn parse_script(input: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(input, lex_spanned(input)?, None);
    Ok(p.script()?.into_iter().map(|(stmt, _)| stmt).collect())
}

/// Parse exactly one statement (stray `;` allowed).
pub fn parse_statement(input: &str) -> Result<Statement> {
    let mut p = Parser::new(input, lex_spanned(input)?, None);
    only_statement(p.script()?, input).map_err(|(err, _)| err)
}

/// Lex and parse exactly one statement, accepting exactly the texts
/// [`parse_statement`] accepts, and record its [`Sites`]. On failure,
/// the error comes with the byte [`Span`] where reading stopped: the
/// offending character of a lex error, the identifier an `Unknown*`
/// error names, the token parsing failed on, or the first token of a
/// second statement.
pub(crate) fn parse_with_sites(
    src: &str,
) -> std::result::Result<(Statement, Sites), (ProqlError, Span)> {
    let toks = lex_spanned(src).map_err(|err| {
        let span = match &err {
            ProqlError::Lex { pos, .. } => {
                let width = src.get(*pos..).and_then(|rest| rest.chars().next());
                Span::new(*pos, *pos + width.map_or(0, char::len_utf8))
            }
            _ => Span::new(0, src.len()),
        };
        (err, span)
    })?;
    let mut p = Parser::new(src, toks, Some(Sites::default()));
    let stmts = p.script().map_err(|err| {
        let span = p.error_span(&err);
        (err, span)
    })?;
    let stmt = only_statement(stmts, src)?;
    Ok((stmt, p.sites.unwrap_or_default()))
}

/// The one statement of a script, or the error for none or several —
/// pointing at the end of the text, or at the second statement.
fn only_statement(
    mut stmts: Vec<(Statement, Span)>,
    src: &str,
) -> std::result::Result<Statement, (ProqlError, Span)> {
    match stmts.len() {
        1 => Ok(stmts.remove(0).0),
        0 => Err((
            ProqlError::Parse("empty statement".into()),
            Span::point(src.len()),
        )),
        n => Err((
            ProqlError::Parse(format!("expected one statement, found {n}")),
            stmts[1].1,
        )),
    }
}

struct Parser<'s> {
    src: &'s str,
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Where the analyzed constructs sit, when the caller asked.
    sites: Option<Sites>,
}

impl<'s> Parser<'s> {
    fn new(src: &'s str, toks: Vec<SpannedTok>, sites: Option<Sites>) -> Parser<'s> {
        Parser {
            src,
            toks,
            pos: 0,
            sites,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Statements separated or terminated by `;`, empty ones skipped,
    /// to the end of the input — each with its first token's span.
    fn script(&mut self) -> Result<Vec<(Statement, Span)>> {
        let mut out = Vec::new();
        while !self.at_end() {
            if self.eat_symbol(&Tok::Semi) {
                continue; // empty statement
            }
            let at = self.span_at(self.pos);
            out.push((self.statement()?, at));
            if !self.eat_symbol(&Tok::Semi) {
                self.expect_end()?;
            }
        }
        Ok(out)
    }

    /// Fail unless every token has been read.
    fn expect_end(&self) -> Result<()> {
        match self.at_end() {
            true => Ok(()),
            false => Err(ProqlError::Parse(format!(
                "expected ';' between statements, found {}",
                self.peek_desc()
            ))),
        }
    }

    /// Note a site, when the caller asked for them.
    fn record(&mut self, note: impl FnOnce(&mut Sites)) {
        if let Some(sites) = &mut self.sites {
            note(sites);
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    /// The span of the token at `i`, or a zero-width span at the end
    /// of the consumed input when `i` runs off the token stream.
    fn span_at(&self, i: usize) -> Span {
        match self.toks.get(i) {
            Some(t) => t.span,
            None => Span::point(self.toks.last().map_or(self.src.len(), |t| t.span.end)),
        }
    }

    /// The span of the token read last.
    fn last_span(&self) -> Span {
        self.span_at(self.pos.saturating_sub(1))
    }

    /// Best-effort span for a parse error raised at the current
    /// position. `Unknown*` errors are raised just *after* consuming
    /// the offending identifier; everything else fails on the
    /// not-yet-consumed token.
    fn error_span(&self, err: &ProqlError) -> Span {
        match err {
            ProqlError::UnknownSemiring(_)
            | ProqlError::UnknownClass(_)
            | ProqlError::UnknownField(_) => self.last_span(),
            _ => self.span_at(self.pos),
        }
    }

    fn peek_desc(&self) -> String {
        match self.peek() {
            Some(t) => format!("'{t}'"),
            None => "end of input".into(),
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume the next token if it is the given symbol.
    fn eat_symbol(&mut self, sym: &Tok) -> bool {
        if self.peek() == Some(sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consume the next token if it is the given keyword
    /// (case-insensitive identifier match).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(ProqlError::Parse(format!(
                "expected {kw}, found {}",
                self.peek_desc()
            )))
        }
    }

    fn expect_symbol(&mut self, sym: Tok) -> Result<()> {
        if self.eat_symbol(&sym) {
            Ok(())
        } else {
            Err(ProqlError::Parse(format!(
                "expected '{sym}', found {}",
                self.peek_desc()
            )))
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("EXPLAIN") {
            if self.eat_kw("ANALYZE") {
                let inner = self.statement()?;
                return Ok(Statement::ExplainAnalyze(Box::new(inner)));
            }
            if self.eat_kw("LINT") {
                let source = self.capture_source("EXPLAIN LINT")?;
                return Ok(Statement::ExplainLint { source });
            }
            let inner = self.statement()?;
            return Ok(Statement::Explain(Box::new(inner)));
        }
        if self.eat_kw("CHECK") {
            let source = self.capture_source("CHECK")?;
            return Ok(Statement::Check { source });
        }
        if self.eat_kw("WHY") {
            return Ok(Statement::Why(self.node_ref()?));
        }
        if self.eat_kw("DEPENDS") {
            self.expect_symbol(Tok::LParen)?;
            let n = self.node_ref()?;
            self.expect_symbol(Tok::Comma)?;
            let m = self.node_ref()?;
            self.expect_symbol(Tok::RParen)?;
            return Ok(Statement::Depends(n, m));
        }
        if self.eat_kw("DELETE") {
            let target = self.node_ref()?;
            self.expect_kw("PROPAGATE")?;
            return Ok(Statement::DeletePropagate(target));
        }
        if self.eat_kw("ZOOM") {
            if self.eat_kw("OUT") {
                self.expect_kw("TO")?;
                return Ok(Statement::ZoomOut(self.name_list()?));
            }
            self.expect_kw("IN")?;
            if self.eat_kw("TO") {
                return Ok(Statement::ZoomIn(Some(self.name_list()?)));
            }
            return Ok(Statement::ZoomIn(None));
        }
        if self.eat_kw("EVAL") {
            let target = self.node_ref()?;
            self.expect_kw("IN")?;
            let name = self.ident("semiring name")?;
            let semiring = SemiringName::parse(&name)
                .ok_or_else(|| ProqlError::UnknownSemiring(name.clone()))?;
            return Ok(Statement::Eval(target, semiring));
        }
        if self.eat_kw("BUILD") {
            self.expect_kw("INDEX")?;
            return Ok(Statement::BuildIndex);
        }
        if self.eat_kw("DROP") {
            self.expect_kw("INDEX")?;
            return Ok(Statement::DropIndex);
        }
        if self.eat_kw("COMPACT") {
            return Ok(Statement::Compact);
        }
        if self.eat_kw("STATS") {
            return Ok(Statement::Stats);
        }
        // Everything else is a node-set query, optionally shaped:
        // [COUNT(…)] set_expr [GROUP BY f] [ORDER BY k [ASC|DESC]]
        // [LIMIT n].
        let agg = self.opt_aggregate()?;
        let expr = self.set_expr()?;
        let shaping = self.shaping_tail(agg)?;
        Ok(Statement::Query(Query { expr, shaping }))
    }

    /// Capture the raw source text of the statement under analysis:
    /// every token up to the next `;` (or end of input), sliced from
    /// the original source by span. The text is *not* parsed here —
    /// `CHECK`/`EXPLAIN LINT` accept statements the parser rejects, so
    /// the analyzer can report syntax diagnostics with spans instead
    /// of failing the whole script.
    fn capture_source(&mut self, kw: &str) -> Result<String> {
        let start_pos = self.pos;
        while self.pos < self.toks.len() && self.toks[self.pos].tok != Tok::Semi {
            self.pos += 1;
        }
        if self.pos == start_pos {
            return Err(ProqlError::Parse(format!(
                "{kw} requires a statement to analyze"
            )));
        }
        let start = self.toks[start_pos].span.start;
        let end = self.toks[self.pos - 1].span.end;
        Ok(self.src[start..end].to_string())
    }

    /// `COUNT(*)` / `COUNT(DISTINCT field)` projection prefix.
    fn opt_aggregate(&mut self) -> Result<Option<Aggregate>> {
        if !self.eat_kw("COUNT") {
            return Ok(None);
        }
        self.expect_symbol(Tok::LParen)?;
        let agg = if self.eat_symbol(&Tok::Star) {
            Aggregate::CountStar
        } else {
            self.expect_kw("DISTINCT")?;
            let name = self.ident("aggregate field")?;
            let field =
                Field::parse(&name).ok_or_else(|| ProqlError::UnknownField(name.clone()))?;
            Aggregate::CountDistinct(field)
        };
        self.expect_symbol(Tok::RParen)?;
        Ok(Some(agg))
    }

    /// The optional shaping clauses after a set expression, plus the
    /// combination rules that keep shaped statements well-formed.
    fn shaping_tail(&mut self, agg: Option<Aggregate>) -> Result<Shaping> {
        let mut group_by = None;
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            let name = self.ident("grouping field")?;
            group_by =
                Some(Field::parse(&name).ok_or_else(|| ProqlError::UnknownField(name.clone()))?);
        }
        let mut order_by = None;
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            let name = self.ident("ordering key")?;
            let key = match name.to_ascii_lowercase().as_str() {
                "id" => SortKey::Id,
                "count" => SortKey::Count,
                _ => SortKey::Field(Field::parse(&name).ok_or_else(|| {
                    ProqlError::Parse(format!(
                        "unknown ordering key '{name}' (expected id, count, module, kind, role, \
                         execution, or token)"
                    ))
                })?),
            };
            let desc = if self.eat_kw("DESC") {
                true
            } else {
                let _ = self.eat_kw("ASC"); // the default, spelled out
                false
            };
            order_by = Some(OrderBy { key, desc });
        }
        let mut limit = None;
        if self.eat_kw("LIMIT") {
            match self.bump() {
                Some(Tok::Int(n)) => {
                    let span = self.last_span();
                    self.record(|s| s.limit = Some((n, span)));
                    limit = Some(n);
                }
                other => {
                    return Err(ProqlError::Parse(format!(
                        "expected integer after LIMIT, found {}",
                        other.map_or_else(|| "end of input".into(), |t| format!("'{t}'"))
                    )))
                }
            }
        }
        let shaping = Shaping {
            agg,
            group_by,
            order_by,
            limit,
        };
        crate::shape::validate(&shaping)?;
        Ok(shaping)
    }

    /// `term (UNION term | INTERSECT term)*`, left-associative.
    fn set_expr(&mut self) -> Result<SetExpr> {
        let mut lhs = SetExpr::Term(self.set_term()?);
        loop {
            if self.eat_kw("UNION") {
                let rhs = self.set_term()?;
                lhs = SetExpr::Union(Box::new(lhs), Box::new(SetExpr::Term(rhs)));
            } else if self.eat_kw("INTERSECT") {
                let rhs = self.set_term()?;
                lhs = SetExpr::Intersect(Box::new(lhs), Box::new(SetExpr::Term(rhs)));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn set_term(&mut self) -> Result<SetTerm> {
        if self.eat_symbol(&Tok::LParen) {
            let inner = self.set_expr()?;
            self.expect_symbol(Tok::RParen)?;
            return Ok(SetTerm::Paren(Box::new(inner)));
        }
        if self.eat_kw("SUBGRAPH") {
            self.expect_kw("OF")?;
            return Ok(SetTerm::Subgraph(self.node_ref()?));
        }
        if self.eat_kw("ANCESTORS") {
            return self.walk_tail(WalkDir::Ancestors);
        }
        if self.eat_kw("DESCENDANTS") {
            return self.walk_tail(WalkDir::Descendants);
        }
        if self.eat_kw("MATCH") {
            let name = self.ident("node class")?;
            let span = self.last_span();
            let class =
                NodeClass::parse(&name).ok_or_else(|| ProqlError::UnknownClass(name.clone()))?;
            let filter = self.opt_where(Some(class))?;
            self.record(|s| s.classes.push((class, !filter.is_empty(), span)));
            return Ok(SetTerm::Match { class, filter });
        }
        Err(ProqlError::Parse(format!(
            "expected a statement or node-set term (SUBGRAPH, ANCESTORS, DESCENDANTS, MATCH, …), \
             found {}",
            self.peek_desc()
        )))
    }

    /// `[OF] ref [DEPTH k] [WHERE pred]` after ANCESTORS/DESCENDANTS.
    fn walk_tail(&mut self, dir: WalkDir) -> Result<SetTerm> {
        let keyword = self.last_span();
        let _ = self.eat_kw("OF"); // optional
        let root = self.node_ref()?;
        let depth = if self.eat_kw("DEPTH") {
            match self.bump() {
                Some(Tok::Int(n)) => Some((
                    u32::try_from(n)
                        .map_err(|_| ProqlError::Parse(format!("depth {n} out of range")))?,
                    self.last_span(),
                )),
                other => {
                    return Err(ProqlError::Parse(format!(
                        "expected integer after DEPTH, found {}",
                        other.map_or_else(|| "end of input".into(), |t| format!("'{t}'"))
                    )))
                }
            }
        } else {
            None
        };
        let filter = self.opt_where(None)?;
        self.record(|s| s.walks.push((dir, depth, keyword)));
        Ok(SetTerm::Walk {
            dir,
            root,
            depth: depth.map(|(n, _)| n),
            filter,
        })
    }

    /// `[WHERE cmp (AND cmp)*]`, narrowing `owner`'s `MATCH` or a walk.
    fn opt_where(&mut self, owner: Option<NodeClass>) -> Result<Predicate> {
        if !self.eat_kw("WHERE") {
            return Ok(Predicate::default());
        }
        self.record(|s| s.predicates.push((owner, Vec::new())));
        let mut conjuncts = Vec::new();
        loop {
            let field = self.span_at(self.pos);
            let c = self.comparison()?;
            let value = self.last_span();
            self.record(|s| {
                if let Some((_, sites)) = s.predicates.last_mut() {
                    sites.push((c.clone(), field, value));
                }
            });
            conjuncts.push(c);
            if !self.eat_kw("AND") {
                return Ok(Predicate { conjuncts });
            }
        }
    }

    fn comparison(&mut self) -> Result<Comparison> {
        let name = self.ident("predicate field")?;
        let field = Field::parse(&name).ok_or_else(|| ProqlError::UnknownField(name.clone()))?;
        if self.eat_kw("LIKE") {
            return self.like_value(field, CmpOp::Like);
        }
        if self.eat_kw("NOT") {
            self.expect_kw("LIKE")?;
            return self.like_value(field, CmpOp::NotLike);
        }
        let op = match self.bump() {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            other => {
                return Err(ProqlError::Parse(format!(
                    "expected a comparison operator ('=', '!=', '<', '<=', '>', '>=') after {}, \
                     found {}",
                    field.name(),
                    other.map_or_else(|| "end of input".into(), |t| format!("'{t}'"))
                )))
            }
        };
        let value = match self.bump() {
            Some(Tok::Str(s)) => Lit::Str(s),
            Some(Tok::Int(n)) => Lit::Int(n),
            // Bare identifiers compare as strings: kind = delta.
            Some(Tok::Ident(s)) => Lit::Str(s),
            other => {
                return Err(ProqlError::Parse(format!(
                    "expected a literal value, found {}",
                    other.map_or_else(|| "end of input".into(), |t| format!("'{t}'"))
                )))
            }
        };
        Ok(Comparison { field, op, value })
    }

    /// The quoted `%`/`_` pattern a `LIKE` comparison requires.
    fn like_value(&mut self, field: Field, op: CmpOp) -> Result<Comparison> {
        match self.bump() {
            Some(Tok::Str(s)) => Ok(Comparison {
                field,
                op,
                value: Lit::Str(s),
            }),
            other => Err(ProqlError::Parse(format!(
                "expected a quoted pattern after LIKE, found {}",
                other.map_or_else(|| "end of input".into(), |t| format!("'{t}'"))
            ))),
        }
    }

    fn node_ref(&mut self) -> Result<NodeRef> {
        match self.bump() {
            Some(Tok::NodeId(n)) => {
                let span = self.last_span();
                self.record(|s| s.ids.push((n, span)));
                Ok(NodeRef::Id(n))
            }
            Some(Tok::Str(s)) => Ok(NodeRef::Token(s)),
            other => Err(ProqlError::Parse(format!(
                "expected a node reference (#id or 'token'), found {}",
                other.map_or_else(|| "end of input".into(), |t| format!("'{t}'"))
            ))),
        }
    }

    /// Comma-separated module names (identifiers or strings).
    fn name_list(&mut self) -> Result<Vec<String>> {
        let mut names = vec![self.name()?];
        while self.eat_symbol(&Tok::Comma) {
            names.push(self.name()?);
        }
        Ok(names)
    }

    fn name(&mut self) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) | Some(Tok::Str(s)) => Ok(s),
            other => Err(ProqlError::Parse(format!(
                "expected a module name, found {}",
                other.map_or_else(|| "end of input".into(), |t| format!("'{t}'"))
            ))),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(ProqlError::Parse(format!(
                "expected {what}, found {}",
                other.map_or_else(|| "end of input".into(), |t| format!("'{t}'"))
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_statement_form() {
        let script = "
            SUBGRAPH OF #42;
            WHY 'C2';
            DEPENDS(#42, 'C2');
            DELETE 'C2' PROPAGATE;
            ZOOM OUT TO Mdealer1, Magg;
            ZOOM IN;
            ZOOM IN TO Mdealer1;
            EVAL #42 IN counting;
            MATCH m-nodes WHERE module = 'Mdealer1';
            ANCESTORS OF #42 DEPTH 3;
            DESCENDANTS 'C2' WHERE kind = module_output;
            MATCH base-nodes INTERSECT ANCESTORS OF #42;
            BUILD INDEX;
            DROP INDEX;
            EXPLAIN DEPENDS(#1, #2);
            COMPACT;
            STATS;
        ";
        let stmts = parse_script(script).unwrap();
        assert_eq!(stmts.len(), 17);
        assert!(matches!(stmts[0], Statement::Query(_)));
        assert!(matches!(stmts[1], Statement::Why(NodeRef::Token(_))));
        assert!(matches!(stmts[2], Statement::Depends(..)));
        assert!(matches!(stmts[3], Statement::DeletePropagate(_)));
        assert_eq!(
            stmts[4],
            Statement::ZoomOut(vec!["Mdealer1".into(), "Magg".into()])
        );
        assert_eq!(stmts[5], Statement::ZoomIn(None));
        assert_eq!(stmts[6], Statement::ZoomIn(Some(vec!["Mdealer1".into()])));
        assert!(matches!(
            stmts[7],
            Statement::Eval(_, SemiringName::Counting)
        ));
        assert!(matches!(stmts[13], Statement::DropIndex));
        assert!(matches!(stmts[14], Statement::Explain(_)));
        assert!(matches!(stmts[15], Statement::Compact));
        assert!(!stmts[15].is_read_only());
        assert!(matches!(stmts[16], Statement::Stats));
    }

    #[test]
    fn match_predicates_parse() {
        let s = parse_statement("MATCH nodes WHERE module = 'M' AND kind != delta").unwrap();
        let Statement::Query(Query {
            expr: SetExpr::Term(SetTerm::Match { class, filter }),
            ..
        }) = s
        else {
            panic!("wrong shape");
        };
        assert_eq!(class, NodeClass::All);
        assert_eq!(filter.conjuncts.len(), 2);
        assert_eq!(filter.required_module(), Some("M"));
    }

    #[test]
    fn ordered_comparisons_parse() {
        let s = parse_statement(
            "MATCH nodes WHERE execution < 5 AND execution >= 2 AND kind <= 'delta' AND \
             execution > 0",
        )
        .unwrap();
        let Statement::Query(Query {
            expr: SetExpr::Term(SetTerm::Match { filter, .. }),
            ..
        }) = s
        else {
            panic!("wrong shape");
        };
        let ops: Vec<CmpOp> = filter.conjuncts.iter().map(|c| c.op).collect();
        assert_eq!(ops, vec![CmpOp::Lt, CmpOp::Ge, CmpOp::Le, CmpOp::Gt]);
        assert_eq!(
            filter.to_string(),
            "execution < 5 AND execution >= 2 AND kind <= 'delta' AND execution > 0"
        );
    }

    #[test]
    fn comparison_eval_semantics() {
        use crate::ast::FieldValue;
        let cmp = |op, value| Comparison {
            field: Field::Execution,
            op,
            value,
        };
        let lt5 = cmp(CmpOp::Lt, Lit::Int(5));
        assert!(lt5.eval(Some(FieldValue::Int(4))));
        assert!(!lt5.eval(Some(FieldValue::Int(5))));
        assert!(!lt5.eval(None), "inapplicable field fails ordered ops");
        // Type mismatch: only != holds, as with equality-only semantics.
        assert!(!lt5.eval(Some(FieldValue::Str("x"))));
        assert!(cmp(CmpOp::Ne, Lit::Int(5)).eval(None));
        let ge = cmp(CmpOp::Ge, Lit::Int(2));
        assert!(ge.eval(Some(FieldValue::Int(2))));
        assert!(!ge.eval(Some(FieldValue::Int(1))));
        // Strings order lexicographically.
        let kind_le = Comparison {
            field: Field::Kind,
            op: CmpOp::Le,
            value: Lit::Str("delta".into()),
        };
        assert!(kind_le.eval(Some(FieldValue::Str("base_tuple"))));
        assert!(!kind_le.eval(Some(FieldValue::Str("times"))));
    }

    #[test]
    fn set_ops_are_left_associative() {
        let s =
            parse_statement("MATCH nodes UNION MATCH base-nodes INTERSECT MATCH v-nodes").unwrap();
        // ((nodes UNION base) INTERSECT v)
        let Statement::Query(Query {
            expr: SetExpr::Intersect(lhs, _),
            ..
        }) = s
        else {
            panic!("expected top-level INTERSECT, got {s:?}");
        };
        assert!(matches!(*lhs, SetExpr::Union(..)));
    }

    #[test]
    fn parens_group_set_ops() {
        let s = parse_statement("MATCH nodes UNION (MATCH base-nodes INTERSECT MATCH v-nodes)")
            .unwrap();
        let Statement::Query(Query {
            expr: SetExpr::Union(_, rhs),
            ..
        }) = s
        else {
            panic!("expected top-level UNION");
        };
        assert!(matches!(*rhs, SetExpr::Term(SetTerm::Paren(_))));
    }

    #[test]
    fn depth_and_filter_on_walks() {
        let s = parse_statement("ANCESTORS OF #7 DEPTH 2 WHERE kind = 'base_tuple'").unwrap();
        let Statement::Query(Query {
            expr:
                SetExpr::Term(SetTerm::Walk {
                    dir, depth, filter, ..
                }),
            ..
        }) = s
        else {
            panic!("wrong shape");
        };
        assert_eq!(dir, WalkDir::Ancestors);
        assert_eq!(depth, Some(2));
        assert_eq!(filter.conjuncts.len(), 1);
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(parse_statement("").is_err());
        assert!(parse_statement("DELETE #1").is_err(), "missing PROPAGATE");
        assert!(parse_statement("ZOOM OUT").is_err(), "missing TO list");
        assert!(parse_statement("EVAL #1 IN nonsense").is_err());
        assert!(parse_statement("MATCH q-nodes").is_err());
        assert!(parse_statement("MATCH nodes WHERE size = 3").is_err());
        assert!(parse_statement("SUBGRAPH OF #1 SUBGRAPH OF #2").is_err());
    }

    #[test]
    fn like_predicates_parse_and_require_patterns() {
        let s = parse_statement("MATCH base-nodes WHERE token LIKE 'C%'").unwrap();
        let Statement::Query(Query {
            expr: SetExpr::Term(SetTerm::Match { filter, .. }),
            ..
        }) = s
        else {
            panic!("wrong shape");
        };
        assert_eq!(filter.conjuncts[0].op, CmpOp::Like);
        assert!(filter.requires_token());
        assert_eq!(filter.to_string(), "token LIKE 'C%'");

        let s = parse_statement("MATCH nodes WHERE module NOT LIKE 'M_dealer%'").unwrap();
        let Statement::Query(Query {
            expr: SetExpr::Term(SetTerm::Match { filter, .. }),
            ..
        }) = s
        else {
            panic!("wrong shape");
        };
        assert_eq!(filter.conjuncts[0].op, CmpOp::NotLike);
        assert!(
            !filter.requires_token(),
            "NOT LIKE matches token-less nodes"
        );

        assert!(parse_statement("MATCH nodes WHERE token LIKE 3").is_err());
        assert!(parse_statement("MATCH nodes WHERE token NOT 'C%'").is_err());
        assert!(parse_statement("MATCH nodes WHERE token LIKE").is_err());
    }

    #[test]
    fn shaping_clauses_parse() {
        let s = parse_statement(
            "MATCH o-nodes WHERE module LIKE 'M%' GROUP BY module ORDER BY count DESC LIMIT 3",
        )
        .unwrap();
        let Statement::Query(Query { shaping, .. }) = &s else {
            panic!("wrong shape");
        };
        assert_eq!(shaping.group_by, Some(Field::Module));
        assert_eq!(
            shaping.order_by,
            Some(OrderBy {
                key: SortKey::Count,
                desc: true
            })
        );
        assert_eq!(shaping.limit, Some(3));
        assert_eq!(shaping.pushdown_limit(), None, "grouping blocks pushdown");

        let s = parse_statement("MATCH nodes ORDER BY execution ASC LIMIT 10").unwrap();
        let Statement::Query(Query { shaping, .. }) = &s else {
            panic!("wrong shape");
        };
        assert_eq!(
            shaping.order_by,
            Some(OrderBy {
                key: SortKey::Field(Field::Execution),
                desc: false
            })
        );
        assert_eq!(
            shaping.pushdown_limit(),
            None,
            "field order blocks pushdown"
        );

        let s = parse_statement("MATCH nodes LIMIT 0").unwrap();
        let Statement::Query(Query { shaping, .. }) = &s else {
            panic!("wrong shape");
        };
        assert_eq!(shaping.pushdown_limit(), Some(0));

        let s = parse_statement("COUNT(*) MATCH base-nodes").unwrap();
        let Statement::Query(Query { shaping, .. }) = &s else {
            panic!("wrong shape");
        };
        assert_eq!(shaping.agg, Some(Aggregate::CountStar));

        let s = parse_statement("COUNT(DISTINCT module) MATCH o-nodes").unwrap();
        let Statement::Query(Query { shaping, .. }) = &s else {
            panic!("wrong shape");
        };
        assert_eq!(shaping.agg, Some(Aggregate::CountDistinct(Field::Module)));

        // Shaping composes with set operations and EXPLAIN.
        let s = parse_statement(
            "EXPLAIN MATCH base-nodes UNION MATCH m-nodes ORDER BY id DESC LIMIT 5",
        )
        .unwrap();
        assert!(matches!(s, Statement::Explain(_)));
    }

    #[test]
    fn ill_formed_shaping_is_rejected() {
        assert!(parse_statement("COUNT(*) MATCH nodes GROUP BY module").is_err());
        assert!(parse_statement("COUNT(*) MATCH nodes LIMIT 3").is_err());
        assert!(parse_statement("COUNT(*) MATCH nodes ORDER BY id").is_err());
        assert!(parse_statement("MATCH nodes ORDER BY count").is_err());
        assert!(parse_statement("MATCH nodes GROUP BY module ORDER BY kind").is_err());
        assert!(parse_statement("MATCH nodes GROUP BY module ORDER BY id").is_err());
        assert!(parse_statement("MATCH nodes GROUP BY size").is_err());
        assert!(parse_statement("MATCH nodes ORDER BY size").is_err());
        assert!(parse_statement("MATCH nodes LIMIT").is_err());
        assert!(parse_statement("MATCH nodes LIMIT 'three'").is_err());
        assert!(parse_statement("COUNT(module) MATCH nodes").is_err());
    }

    #[test]
    fn check_captures_source_verbatim_without_parsing_it() {
        // Well-formed inner statement.
        let s = parse_statement("CHECK MATCH m-nodes WHERE module = 'Mdealer1'").unwrap();
        assert_eq!(
            s,
            Statement::Check {
                source: "MATCH m-nodes WHERE module = 'Mdealer1'".into()
            }
        );
        // Display round-trips through the parser.
        assert_eq!(parse_statement(&s.to_string()).unwrap(), s);
        assert!(s.is_read_only());

        // Ill-formed inner statements still parse as CHECK: the
        // analyzer reports the syntax diagnostic, not the parser.
        let s = parse_statement("CHECK MATCH q-nodes WHERE").unwrap();
        assert_eq!(
            s,
            Statement::Check {
                source: "MATCH q-nodes WHERE".into()
            }
        );

        // Capture stops at the statement separator.
        let stmts = parse_script("CHECK MATCH nodes; STATS;").unwrap();
        assert_eq!(stmts.len(), 2);
        assert_eq!(
            stmts[0],
            Statement::Check {
                source: "MATCH nodes".into()
            }
        );
        assert!(matches!(stmts[1], Statement::Stats));

        assert!(parse_statement("CHECK").is_err(), "needs a statement");
        assert!(parse_statement("CHECK ;").is_err());
    }

    #[test]
    fn explain_lint_parses_like_check() {
        let s = parse_statement("EXPLAIN LINT ANCESTORS OF #7").unwrap();
        assert_eq!(
            s,
            Statement::ExplainLint {
                source: "ANCESTORS OF #7".into()
            }
        );
        assert_eq!(parse_statement(&s.to_string()).unwrap(), s);
        assert!(s.is_read_only());
        assert!(parse_statement("EXPLAIN LINT").is_err());
        // EXPLAIN ANALYZE / plain EXPLAIN still parse their inner
        // statement eagerly.
        assert!(matches!(
            parse_statement("EXPLAIN STATS").unwrap(),
            Statement::Explain(_)
        ));
    }

    #[test]
    fn spanned_parse_reports_error_positions() {
        let src = "MATCH q-nodes";
        let (err, span) = parse_with_sites(src).unwrap_err();
        assert!(matches!(err, ProqlError::UnknownClass(_)));
        assert_eq!(&src[span.start..span.end], "q-nodes");

        let src = "MATCH nodes WHERE size = 3";
        let (err, span) = parse_with_sites(src).unwrap_err();
        assert!(matches!(err, ProqlError::UnknownField(_)));
        assert_eq!(&src[span.start..span.end], "size");

        // Errors at end-of-input get a zero-width span at the end.
        let src = "MATCH nodes WHERE";
        let (_, span) = parse_with_sites(src).unwrap_err();
        assert_eq!((span.start, span.end), (src.len(), src.len()));
    }

    /// The text a recorded span covers.
    fn text(src: &str, span: Span) -> &str {
        &src[span.start..span.end]
    }

    /// `CHECK` reads statement text as `run` does: stray `;` are
    /// empty statements, and two statements are one too many.
    #[test]
    fn spanned_parse_accepts_exactly_what_run_accepts() {
        for src in ["MATCH nodes;;", "; MATCH nodes", ";;MATCH nodes;"] {
            let (stmt, _) = parse_with_sites(src).unwrap();
            assert_eq!(stmt, parse_statement(src).unwrap(), "{src}");
        }
        let src = "MATCH nodes; STATS";
        let (err, span) = parse_with_sites(src).unwrap_err();
        assert_eq!(
            err.to_string(),
            parse_statement(src).unwrap_err().to_string()
        );
        assert!(
            err.to_string().contains("expected one statement, found 2"),
            "{err}"
        );
        assert_eq!(text(src, span), "STATS");
        for src in ["", ";", " ;; "] {
            let (err, span) = parse_with_sites(src).unwrap_err();
            assert!(
                err.to_string().contains("empty statement"),
                "{src:?}: {err}"
            );
            assert_eq!(span, Span::point(src.len()));
        }
    }

    #[test]
    fn recorded_sites_follow_source_order() {
        let src =
            "MATCH m-nodes WHERE module = 'a' AND kind != delta UNION ANCESTORS OF #3 DEPTH 2";
        let (_, s) = parse_with_sites(src).unwrap();
        assert_eq!(s.predicates.len(), 1);
        let (owner, conjuncts) = &s.predicates[0];
        assert_eq!(*owner, Some(NodeClass::Invocation));
        let spans: Vec<(&str, &str)> = conjuncts
            .iter()
            .map(|(_, field, value)| (text(src, *field), text(src, *value)))
            .collect();
        assert_eq!(spans, [("module", "'a'"), ("kind", "delta")]);
        assert_eq!(s.classes.len(), 1);
        assert_eq!(text(src, s.classes[0].2), "m-nodes");
        assert_eq!(s.walks.len(), 1);
        let (dir, depth, keyword) = s.walks[0];
        assert_eq!(dir, WalkDir::Ancestors);
        assert_eq!(text(src, keyword), "ANCESTORS");
        assert_eq!(depth.map(|(n, span)| (n, text(src, span))), Some((2, "2")));
        assert_eq!(s.ids.len(), 1);
        assert_eq!((s.ids[0].0, text(src, s.ids[0].1)), (3, "#3"));
    }

    #[test]
    fn bare_ident_values_do_not_fake_keyword_sites() {
        // `ancestors` here is a comparison *value*, not a walk keyword.
        let (_, s) = parse_with_sites("MATCH nodes WHERE module = ancestors").unwrap();
        assert_eq!(s.predicates.len(), 1);
        assert_eq!(s.predicates[0].1.len(), 1);
        assert!(s.walks.is_empty());
    }

    #[test]
    fn canonical_display_round_trips_spellings() {
        // Distinct spellings of one statement normalize to one string.
        let spellings = [
            "match BASE-NODES where token like 'C%' order by execution desc limit 2",
            "MATCH base-nodes WHERE token LIKE 'C%' ORDER BY execution DESC LIMIT 2",
        ];
        let canon: Vec<String> = spellings
            .iter()
            .map(|s| parse_statement(s).unwrap().to_string())
            .collect();
        assert_eq!(canon[0], canon[1]);
        assert_eq!(
            canon[0],
            "MATCH base-nodes WHERE token LIKE 'C%' ORDER BY execution DESC LIMIT 2"
        );
        // And the canonical form parses back to the same statement.
        let stmt = parse_statement(spellings[0]).unwrap();
        assert_eq!(parse_statement(&canon[0]).unwrap(), stmt);
    }
}
