//! `WHY` and `EVAL` on cones that defeat expansion: long chains whose
//! expression nests deeply, and diamond chains whose derivations double
//! at every level. Each statement makes one pass over the visible cone,
//! so the semirings that stay small answer at once, `WHY` prints the
//! circuit — a line for each composite read twice or nested too deep to
//! inline — with its expanded N\[X\] line replaced by a note past the
//! size bound, `EVAL … IN why` refuses there with a typed error, and
//! nothing recurses on the worker's stack: every deep case runs on a
//! thread with the default 2 MiB stack that `lipstick-serve` workers
//! get.

use std::time::{Duration, Instant};

use lipstick_core::obs::TraceCtx;
use lipstick_core::query::circuit::{MAX_DEPTH, MAX_SIZE};
use lipstick_core::query::{shared_lines, QueryError};
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
fn chain_graph(
    levels: usize,
    step: impl Fn(&mut ProvGraph, usize, NodeId) -> NodeId,
) -> (ProvGraph, NodeId) {
    let mut g = ProvGraph::new();
    let mut x = g.add_base("a");
    for i in 0..levels {
        x = step(&mut g, i, x);
    }
    (g, x)
}

fn chain(
    levels: usize,
    step: impl Fn(&mut ProvGraph, usize, NodeId) -> NodeId,
) -> (Session, NodeId) {
    let (g, x) = chain_graph(levels, step);
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
fn alternating_step(g: &mut ProvGraph, i: usize, x: NodeId) -> NodeId {
    let a = g.add_base(&format!("a{i}"));
    let b = g.add_base(&format!("b{i}"));
    let xa = g.add_times(&[x, a]);
    g.add_plus(&[xa, b])
}

/// The note `WHY` prints in place of an expansion past the bound.
fn note() -> String {
    format!(
        "  (expanded N[X] polynomial not printed: it would pass {MAX_SIZE} monomials and tokens)"
    )
}

fn assert_too_large(session: &Session, statement: &str) {
    match session.run_read(statement) {
        Err(e @ ProqlError::TooLarge { limit: MAX_SIZE }) => {
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
/// boolean, tropical and lineage. `WHY` answers in lines that each nest
/// at most `MAX_DEPTH` deep, then the note: its expansion passes the
/// bound, which also refuses why-provenance. Level 253 expands to
/// 32,639 monomials and factors, just inside the bound, and still
/// prints its polynomial.
#[test]
fn a_deep_alternating_chain_never_aborts() {
    on_default_stack(|| {
        let (session, x) = chain(5_000, alternating_step);
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
        assert_too_large(&session, &format!("EVAL #{n} IN why"));

        let (g, _) = chain_graph(5_000, alternating_step);
        let lines = shared_lines(&g, x, TraceCtx::disabled()).expect("answers");
        assert!(
            lines.len() > 5_000 * 2 / MAX_DEPTH as usize,
            "{}",
            lines.len()
        );
        for (id, line) in &lines {
            assert!(line.depth() <= MAX_DEPTH, "{id}: {}", line.depth());
        }
        let text = answer(&session, &format!("WHY #{n}"));
        let printed: Vec<&str> = text.lines().collect();
        assert_eq!(printed.len(), lines.len() + 1);
        for (line, (id, expr)) in printed.iter().zip(&lines) {
            assert_eq!(*line, format!("{id}: {expr}"));
        }
        assert_eq!(printed[lines.len()], note());

        let text = answer(&session, &format!("WHY #{}", 4 * 253));
        assert!(text.starts_with("N1012: ("), "{text}");
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with("(expanded N[X] polynomial)"));
        let text = answer(&session, &format!("WHY #{}", 4 * 254));
        assert!(text.ends_with(&format!("\n{}", note())), "{text}");
    });
}

/// `WHY` prints an expression nested right up to the depth bound as one
/// line on a default stack; one level more splits it into two lines,
/// the root's reading the reference `#511`. Why-provenance builds no
/// expression, so depth does not refuse it.
#[test]
fn nesting_up_to_the_bound_prints_on_a_default_stack() {
    on_default_stack(|| {
        let (session, _) = chain(600, |g, _, x| g.add_delta(&[x]));
        let text = answer(&session, "WHY #511");
        assert_eq!(
            text,
            format!("N511: {}a{}", "δ(".repeat(511), ")".repeat(511))
        );
        assert_eq!(
            answer(&session, "WHY #512"),
            format!("N512: δ(#511)\n{text}")
        );
        assert_eq!(answer(&session, "EVAL #599 IN why"), "N599 in why: {{a}}");
    });
}

/// A 40-level diamond chain has 2⁴⁰ derivations over 201 nodes:
/// counting and boolean answer in well under a second. `WHY` answers
/// with the circuit: the root's line and one for each of x₁…x₃₉, which
/// both products of the next level read, then the note in place of the
/// expansion; a named node's reference pastes back as `WHY #id`.
/// Why-provenance refuses.
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
    let text = answer(&session, &format!("WHY #{n}"));
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 41, "{text}");
    let level = |i: u32| NodeId(5 * i);
    assert_eq!(lines[0], format!("{x}: #{0}·a39 + #{0}·b39", level(39).0));
    assert_eq!(lines[1], format!("{}: a·a0 + a·b0", level(1)));
    for i in 2..40 {
        let prev = level(i - 1).0;
        assert_eq!(
            lines[i as usize],
            format!("{}: #{prev}·a{} + #{prev}·b{}", level(i), i - 1, i - 1)
        );
    }
    assert_eq!(lines[40], note());
    let named = answer(&session, &format!("WHY #{}", level(2).0));
    assert_eq!(
        named,
        format!(
            "{}: #5·a1 + #5·b1\nN5: a·a0 + a·b0\n  = {} (expanded N[X] polynomial)",
            level(2),
            "a·a0·a1 + a·a0·b1 + a·a1·b0 + a·b0·b1"
        )
    );
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
