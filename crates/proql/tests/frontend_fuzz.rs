//! Seeded mutation fuzzing of the ProQL front end: the lexer, the
//! parser, the analyzer behind `CHECK` / `EXPLAIN LINT`, and the two
//! renderings of its diagnostics.
//!
//! Each case draws a random WorkflowGen graph and a few generated
//! statements, takes each in three forms (bare, under `CHECK`, under
//! `EXPLAIN LINT`), and applies `MUTATIONS` rounds of bit flips, byte
//! overwrites, truncations and spliced large numbers to each form,
//! read back as UTF-8 with replacement characters. On every input:
//! nothing panics; every token span and every diagnostic span lies
//! inside the text and on char boundaries; and an input that parses
//! reads back as itself from its canonical rendering (parse∘display is
//! a fixpoint). The budget is `PROPTEST_CASES` cases, pinned in CI.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use common::{case_budget, random_graph};
use lipstick_core::ProvGraph;
use lipstick_proql::analyze::analyze;
use lipstick_proql::ast::Statement;
use lipstick_proql::lexer::{lex_spanned, Span};
use lipstick_proql::parser::parse_statement;
use lipstick_proql::testgen::{self, Vocab};
use rand::{mutate, rngs::StdRng, SeedableRng};

/// Generated statements per case.
const STATEMENTS: usize = 4;

/// Mutated inputs per statement form.
const MUTATIONS: usize = 16;

/// Assert `span` lies inside `text` and on its char boundaries.
fn assert_in_bounds(text: &str, span: Span, what: &str) {
    assert!(
        span.start <= span.end
            && span.end <= text.len()
            && text.is_char_boundary(span.start)
            && text.is_char_boundary(span.end),
        "{what} span {span} is not a char range of {text:?}"
    );
}

/// Analyze `source` and render the diagnostics both ways.
fn check_analysis(graph: &ProvGraph, source: &str) {
    let diagnostics = analyze(graph, source);
    for d in &diagnostics.items {
        assert_in_bounds(source, d.span, d.code);
    }
    let _ = diagnostics.to_string();
    let _ = diagnostics.to_json();
}

/// Every front-end property on one input.
fn check_input(graph: &ProvGraph, text: &str) {
    if let Ok(toks) = lex_spanned(text) {
        for t in &toks {
            assert_in_bounds(text, t.span, "token");
        }
    }
    check_analysis(graph, text);
    let Ok(stmt) = parse_statement(text) else {
        return;
    };
    let canonical = stmt.to_string();
    match parse_statement(&canonical) {
        Ok(reparsed) => assert_eq!(reparsed, stmt, "{text:?} reads back differently"),
        Err(e) => panic!("{text:?} renders as {canonical:?}, which fails to parse: {e}"),
    }
    // What CHECK and EXPLAIN LINT hand the analyzer.
    if let Statement::Check { source } | Statement::ExplainLint { source } = &stmt {
        check_analysis(graph, source);
    }
}

/// [`check_input`], naming the input when anything in it panics.
fn survive(graph: &ProvGraph, text: &str) {
    if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check_input(graph, text))) {
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("a non-string payload");
        panic!("the front end panicked on {text:?}: {message}");
    }
}

#[test]
fn mutated_statements_never_panic_and_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xf0e7_5eed_0042_0001);
    for _ in 0..case_budget() {
        let graph = random_graph(&mut rng);
        let vocab = Vocab::from_graph(&graph);
        for _ in 0..STATEMENTS {
            let text = testgen::statement(&vocab, &mut rng).to_string();
            for form in [
                format!("CHECK {text}"),
                format!("EXPLAIN LINT {text}"),
                text,
            ] {
                survive(&graph, &form);
                for _ in 0..MUTATIONS {
                    let mutant = mutate(form.as_bytes(), &mut rng);
                    survive(&graph, &String::from_utf8_lossy(&mutant));
                }
            }
        }
    }
}
