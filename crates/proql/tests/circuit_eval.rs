//! `WHY` and `EVAL` on cones that defeat expansion: long chains whose
//! expression nests deeply, and diamond chains whose derivations double
//! at every level. Each statement makes one pass over the visible cone,
//! so the semirings that stay small answer at once, the symbolic answers
//! refuse with a typed error, and nothing recurses on the worker's stack
//! — every deep case runs on a thread with the default 2 MiB stack that
//! `lipstick-serve` workers get.

use std::time::{Duration, Instant};

use lipstick_core::query::QueryError;
use lipstick_core::{NodeId, NodeKind, ProvGraph, Role};
use lipstick_proql::{ProqlError, Session};

/// Run `f` on a thread with a 2 MiB stack.
fn on_default_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no stack overflow")
}

fn answer(session: &Session, statement: &str) -> String {
    match session.run_read(statement) {
        Ok(out) => out.to_string(),
        Err(e) => panic!("{statement}: {e}"),
    }
}

/// `x₀ = a`, then `levels` nodes built by `step` from the previous one.
fn chain(
    levels: usize,
    step: impl Fn(&mut ProvGraph, usize, NodeId) -> NodeId,
) -> (Session, NodeId) {
    let mut g = ProvGraph::new();
    let mut x = g.add_base("a");
    for i in 0..levels {
        x = step(&mut g, i, x);
    }
    (Session::new(g), x)
}

/// `xᵢ = xᵢ₋₁·aᵢ + xᵢ₋₁·bᵢ`: 2ⁱ derivations over 5i + 1 nodes.
fn diamond_chain(levels: usize) -> (Session, NodeId) {
    chain(levels, |g, i, x| {
        let a = g.add_base(&format!("a{i}"));
        let b = g.add_base(&format!("b{i}"));
        let xa = g.add_times(&[x, a]);
        let xb = g.add_times(&[x, b]);
        g.add_plus(&[xa, xb])
    })
}

/// `xᵢ = xᵢ₋₁·aᵢ + bᵢ`: the expression nests two levels deeper per
/// step.
fn alternating_chain(levels: usize) -> (Session, NodeId) {
    chain(levels, |g, i, x| {
        let a = g.add_base(&format!("a{i}"));
        let b = g.add_base(&format!("b{i}"));
        let xa = g.add_times(&[x, a]);
        g.add_plus(&[xa, b])
    })
}

fn assert_too_large(session: &Session, statement: &str) {
    match session.run_read(statement) {
        Err(e @ ProqlError::TooLarge { .. }) => {
            let message = e.to_string();
            for semiring in ["counting", "boolean", "tropical", "lineage"] {
                assert!(message.contains(semiring), "{message}");
            }
        }
        other => panic!("{statement}: expected the size bound, got {other:?}"),
    }
}

/// A 100,000-node `+` chain over one token: `WHY` answers `a`, and
/// `EVAL` answers in every semiring.
#[test]
fn a_deep_plus_chain_answers_on_a_default_stack() {
    on_default_stack(|| {
        let (session, x) = chain(100_000, |g, _, x| g.add_plus(&[x]));
        let n = x.0;
        assert_eq!(
            answer(&session, &format!("WHY #{n}")),
            format!("{x}: a\n  = a (expanded N[X] polynomial)")
        );
        for (semiring, value) in [
            ("counting", "1 derivation(s)"),
            ("boolean", "true"),
            ("tropical", "1"),
            ("lineage", "{a}"),
            ("why", "{{a}}"),
        ] {
            let text = answer(&session, &format!("EVAL #{n} IN {semiring}"));
            assert!(text.ends_with(&format!(": {value}")), "{text}");
        }
    });
}

/// A 5,000-level alternating chain: `EVAL` answers in counting,
/// boolean, tropical and lineage; `WHY` passes the bounds and refuses,
/// while a node just inside them still prints.
#[test]
fn a_deep_alternating_chain_never_aborts() {
    on_default_stack(|| {
        let (session, x) = alternating_chain(5_000);
        let n = x.0;
        assert_eq!(
            answer(&session, &format!("EVAL #{n} IN counting")),
            format!("{x} in counting: 5001 derivation(s)")
        );
        assert_eq!(
            answer(&session, &format!("EVAL #{n} IN boolean")),
            format!("{x} in boolean: true")
        );
        assert_eq!(
            answer(&session, &format!("EVAL #{n} IN tropical")),
            format!("{x} in tropical (unit costs): 1")
        );
        let lineage = answer(&session, &format!("EVAL #{n} IN lineage"));
        assert_eq!(
            lineage.matches(", ").count(),
            10_000,
            "a, a0…a4999, b0…b4999"
        );
        assert_too_large(&session, &format!("WHY #{n}"));
        assert_too_large(&session, &format!("EVAL #{n} IN why"));
        // Level 253 nests 507 deep and expands to 32,639 monomials and
        // factors, just inside the bounds: its expression and polynomial
        // print, and drop, on this stack. Level 254 passes the bound.
        assert_too_large(&session, &format!("WHY #{}", 4 * 254));
        let text = answer(&session, &format!("WHY #{}", 4 * 253));
        assert!(text.starts_with("N1012: ("), "{text}");
        assert!(text.contains("(expanded N[X] polynomial)"));
    });
}

/// `WHY` prints an expression nested right up to the depth bound on a
/// default stack, and refuses one level more; why-provenance builds no
/// expression, so the depth bound does not refuse it.
#[test]
fn nesting_up_to_the_bound_prints_on_a_default_stack() {
    on_default_stack(|| {
        let (session, _) = chain(600, |g, _, x| g.add_delta(&[x]));
        let text = answer(&session, "WHY #511");
        assert_eq!(
            text,
            format!("N511: {}a{}", "δ(".repeat(511), ")".repeat(511))
        );
        assert_too_large(&session, "WHY #512");
        assert_eq!(answer(&session, "EVAL #599 IN why"), "N599 in why: {{a}}");
    });
}

/// A 40-level diamond chain has 2⁴⁰ derivations over 201 nodes:
/// counting and boolean answer in well under a second, the symbolic
/// answers refuse.
#[test]
fn a_diamond_chain_counts_without_expanding() {
    let (session, x) = diamond_chain(40);
    let n = x.0;
    for (semiring, expected) in [
        (
            "counting",
            format!("{x} in counting: 1099511627776 derivation(s)"),
        ),
        ("boolean", format!("{x} in boolean: true")),
    ] {
        let start = Instant::now();
        assert_eq!(
            answer(&session, &format!("EVAL #{n} IN {semiring}")),
            expected
        );
        assert!(start.elapsed() < Duration::from_secs(1), "{semiring}");
    }
    assert_too_large(&session, &format!("WHY #{n}"));
    assert_too_large(&session, &format!("EVAL #{n} IN why"));
}

/// Past 2⁶⁴ derivations the count saturates and says so.
#[test]
fn a_saturated_count_reads_as_a_lower_bound() {
    let (session, x) = diamond_chain(70);
    assert_eq!(
        answer(&session, &format!("EVAL #{} IN counting", x.0)),
        format!("{x} in counting: at least 18446744073709551615 derivation(s)")
    );
}

/// A hand-built graph may hold an invocation node whose role names no
/// invocation: `WHY` and `EVAL` answer a typed error, not a panic.
#[test]
fn an_invocation_node_naming_no_invocation_is_an_error() {
    let mut g = ProvGraph::new();
    let a = g.add_base("a");
    let m = g.add_node(NodeKind::Invocation, Role::Free);
    let t = g.add_times(&[a, m]);
    let session = Session::new(g);
    for statement in [
        format!("WHY #{}", t.0),
        format!("EVAL #{} IN counting", t.0),
    ] {
        match session.run_read(&statement) {
            Err(ProqlError::Query(QueryError::Malformed(node, _))) => assert_eq!(node, m),
            other => panic!("{statement}: {other:?}"),
        }
    }
}
