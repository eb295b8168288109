//! Repo automation, invoked as `cargo run -p xtask -- <command>`.
//!
//! The only command today is `lint`: a zero-dependency source checker
//! enforcing invariants clippy has no lint for —
//!
//! 1. **Panic-free serve paths.** No `.unwrap()`, `.expect(…)`, or
//!    `panic!(…)` in `crates/serve/src/**` outside `#[cfg(test)]`
//!    modules: every statement a peer sends travels `proto.rs` →
//!    `server.rs`, and a panic there kills a worker serving *other*
//!    connections too. Malformed bytes must surface as typed
//!    `ProtoError` values instead. (`unwrap_or`/`unwrap_or_else` and
//!    friends remain fine — they don't panic.)
//! 2. **Cast-free storage codec.** No bare `as` numeric casts in
//!    `crates/storage/src/{codec,reader,varint}.rs`: a silently
//!    truncating cast in the codec corrupts logs instead of reporting
//!    them corrupt. Widths change via `From`/`TryFrom`, which either
//!    cannot fail or fail loudly.
//! 3. **Panic-free observability** (`crates/core/src/obs.rs`).
//! 4. **One IO seam.** No direct `std::fs` / `File::` / `OpenOptions`
//!    use in `crates/storage/src/**` non-test code outside `io.rs`, nor
//!    in `crates/proql/src/**` non-test code: every file operation must
//!    route through the `StorageIo` trait, or the fault-injection
//!    harness silently stops covering that call site.
//! 5. **Panic-free ProQL front end, planner, plans, read executor,
//!    result shaping, reach index, ZoomOut planner, circuit evaluator
//!    and store accessors** (`crates/proql/src/{lexer,parser,analyze,
//!    ast}.rs`, `crates/proql/src/{planner,plan,exec,shape}.rs`,
//!    `crates/core/src/query/{reach,zoom,circuit}.rs`,
//!    `crates/core/src/store.rs` — every store's read path). The front
//!    end reads every request's text, so malformed text must come back
//!    as a parse error or a diagnostic. A plan is data: it can be
//!    replayed against a store or an index state other than the one it
//!    was made for, so a strategy the store cannot serve must fall back
//!    (full scan, BFS, propagation), never `expect` the plan's world;
//!    the index, which both call on every indexed walk, `WHY` and
//!    `DEPENDS`, answers an id it holds no row for with an empty row.
//! 6. **Panic-free storage decoders** (`crates/storage/src/{reader,
//!    varint,codec,footer,tail,log}.rs`). They read bytes from disk, and
//!    corrupt bytes must come back as `StorageError::Corrupt`. Every read
//!    goes through the fallible `Reader`, so there is nothing to
//!    `expect`. (`paged.rs` is deliberately out: its `expect_record`
//!    panic is how an infallible `GraphStore` accessor reports late
//!    corruption, and ProQL contains it. `append.rs` is out because its
//!    `#[cfg(test)]` oracle sits mid-file, where this scanner stops.)
//! 7. **Panic-free workflow execution** (`crates/workflow/src/exec.rs`).
//!    A module invocation can fail — a UDF error, a missing output — and
//!    that failure must come back as a `WfError` with the workflow state
//!    and the tracker left runnable for the next execution, not unwind
//!    through a half-committed execution.
//! 8. **One seeded generator.** No splitmix64 constant, in any case or
//!    digit grouping, in `crates/`, `tests/` or `examples/` (comments
//!    included) outside `crates/compat/rand`: every seeded draw goes
//!    through its pinned `StdRng` or `mix`. (`bench_spine/` keeps its
//!    own generator and is not scanned.)
//!
//! The scanner strips comments, strings, and char literals first (so
//! prose mentioning `panic!` doesn't trip it) and ignores everything
//! from a `#[cfg(test)]` line to end of file — test modules sit last
//! in every file in this workspace, and tests may assert with panics.
//!
//! CI runs `cargo run -p xtask -- lint`; exit status 1 means
//! violations were printed, one per line, as `path:line: message`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Violation {
    line: usize,
    message: String,
}

/// Replace comment bodies, string contents, and char literals with
/// spaces, preserving line structure so reported line numbers match the
/// original file. Handles nested `/* */`, raw strings (`r"…"`,
/// `r#"…"#`), escapes, and tells lifetimes (`'a`) from char literals.
fn strip_comments_and_strings(src: &str) -> String {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '/' if bytes.get(i + 1) == Some(&'/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                out.push_str("  ");
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        depth += 1;
                        out.push_str("  ");
                        i += 2;
                    } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        out.push_str("  ");
                        i += 2;
                    } else {
                        out.push(if bytes[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                }
            }
            'r' if matches!(bytes.get(i + 1), Some('"') | Some('#')) => {
                // Raw string: count the hashes, skip to the matching
                // closer.
                let mut j = i + 1;
                let mut hashes = 0;
                while bytes.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) != Some(&'"') {
                    out.push(c);
                    i += 1;
                    continue;
                }
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
                'raw: while i < bytes.len() {
                    if bytes[i] == '"' {
                        let mut k = 0;
                        while k < hashes && bytes.get(i + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                out.push(' ');
                            }
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    out.push(if bytes[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            '"' => {
                out.push(' ');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == '\\' {
                        out.push_str("  ");
                        i += 2;
                        continue;
                    }
                    if bytes[i] == '"' {
                        out.push(' ');
                        i += 1;
                        break;
                    }
                    out.push(if bytes[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            '\'' => {
                // Char literal iff it closes within a few chars
                // (`'x'`, `'\n'`, `'\u{1f}'`); otherwise a lifetime.
                let close = (i + 2..(i + 12).min(bytes.len())).find(|&j| {
                    bytes[j] == '\''
                        && !(bytes[i + 1] == '\\' && j == i + 2 && bytes[j - 1] == '\\')
                });
                let is_char = bytes.get(i + 1) == Some(&'\\') || close == Some(i + 2);
                if is_char {
                    if let Some(j) = close {
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                }
                out.push(c);
                i += 1;
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// Integer and float type names a bare `as` cast can target.
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The panic-ban rule: no panicking calls outside test code. `context`
/// names the protected path and the right alternative in the printed
/// message, so serve and core::obs report in their own terms.
fn check_no_panics(src: &str, context: &str) -> Vec<Violation> {
    let stripped = strip_comments_and_strings(src);
    let mut out = Vec::new();
    for (n, line) in stripped.lines().enumerate() {
        if line.contains("#[cfg(test)]") {
            // Test modules sit at the bottom of every file here;
            // everything below may panic at will.
            break;
        }
        for (pat, what) in [
            (".unwrap()", "unwrap()"),
            (".expect(", "expect()"),
            ("panic!", "panic!()"),
            ("unreachable!", "unreachable!()"),
            ("todo!", "todo!()"),
        ] {
            if line.contains(pat) {
                out.push(Violation {
                    line: n + 1,
                    message: format!("{what} {context}"),
                });
            }
        }
    }
    out
}

/// Rule 1's message context: why panics are banned in serve sources.
const SERVE_CONTEXT: &str = "on a serve request path (return a typed ProtoError instead)";

/// Rule 3's message context: why panics are banned in `core::obs`.
const OBS_CONTEXT: &str =
    "in core::obs non-test code (observability must never take the process down; \
     recover poisoned locks with into_inner)";

/// Rule 5's message context: why panics are banned in the ProQL front
/// end, planner and read executor.
const PLAN_CONTEXT: &str =
    "in the ProQL planner/executor or front end (malformed text must come back as an error or a \
     diagnostic; a plan may meet a store or index state it was not made for, so fall back to \
     the scan, BFS or propagation that is always correct)";

/// Rule 6's message context: why panics are banned in storage decoders.
const DECODE_CONTEXT: &str =
    "in a storage decoder (corrupt bytes must come back as StorageError::Corrupt; read \
     through the fallible Reader)";

/// Rule 7's message context: why panics are banned in workflow
/// execution.
const WORKFLOW_CONTEXT: &str =
    "in workflow execution (a failed invocation must come back as a WfError and leave the \
     state runnable)";

/// Files under rule 7 (no panicking calls), from the workspace root.
const WORKFLOW_FILES: &[&str] = &["crates/workflow/src/exec.rs"];

/// Storage files under rule 2 (no bare numeric casts).
const CAST_FREE_FILES: &[&str] = &["codec.rs", "footer.rs", "reader.rs", "varint.rs"];

/// Files under rule 5 (no panicking calls), from the workspace root.
const PLAN_FILES: &[&str] = &[
    "crates/proql/src/lexer.rs",
    "crates/proql/src/parser.rs",
    "crates/proql/src/analyze.rs",
    "crates/proql/src/ast.rs",
    "crates/proql/src/planner.rs",
    "crates/proql/src/plan.rs",
    "crates/proql/src/exec.rs",
    "crates/proql/src/filter.rs",
    "crates/proql/src/shape.rs",
    "crates/proql/src/result.rs",
    "crates/proql/src/error.rs",
    "crates/core/src/query/reach.rs",
    "crates/core/src/query/zoom.rs",
    "crates/core/src/query/circuit.rs",
    "crates/core/src/store.rs",
];

/// Storage files under rule 6 (no panicking calls).
const DECODER_FILES: &[&str] = &[
    "reader.rs",
    "varint.rs",
    "codec.rs",
    "footer.rs",
    "tail.rs",
    "log.rs",
];

/// The codec rule: no bare `as` numeric casts.
fn check_no_numeric_casts(src: &str) -> Vec<Violation> {
    let stripped = strip_comments_and_strings(src);
    let mut out = Vec::new();
    for (n, line) in stripped.lines().enumerate() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        let words: Vec<&str> = line
            .split(|c: char| !is_ident_char(c))
            .filter(|w| !w.is_empty())
            .collect();
        for pair in words.windows(2) {
            if pair[0] == "as" && NUMERIC_TYPES.contains(&pair[1]) {
                out.push(Violation {
                    line: n + 1,
                    message: format!(
                        "bare `as {}` cast in the storage codec (use From/TryFrom; casts \
                         truncate silently)",
                        pair[1]
                    ),
                });
            }
        }
    }
    out
}

/// Rule 4: no filesystem calls in storage and ProQL sources outside
/// the `StorageIo` passthrough module. One violation per line (a single
/// `std::fs::File::open` would otherwise report three times).
fn check_no_direct_fs(src: &str) -> Vec<Violation> {
    let stripped = strip_comments_and_strings(src);
    let mut out = Vec::new();
    for (n, line) in stripped.lines().enumerate() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        let hit = ["std::fs", "fs::", "File::", "OpenOptions"]
            .into_iter()
            .find(|pat| {
                line.match_indices(*pat)
                    .any(|(i, _)| !line[..i].chars().next_back().is_some_and(is_ident_char))
            });
        if let Some(pat) = hit {
            out.push(Violation {
                line: n + 1,
                message: format!(
                    "direct filesystem access `{pat}` (route file IO through the \
                     StorageIo trait in crates/storage/src/io.rs so the fault-injection \
                     harness covers this call site)"
                ),
            });
        }
    }
    out
}

/// splitmix64's increment and multipliers, lower-case and ungrouped
/// (spelled in halves so this file does not trip its own rule).
const SPLITMIX_CONSTANTS: [&str; 3] = [
    concat!("9e3779b9", "7f4a7c15"),
    concat!("bf58476d", "1ce4e5b9"),
    concat!("94d049bb", "133111eb"),
];

/// Rule 8: no splitmix64 constant, whatever its case or `_` grouping.
/// Test modules count: they are where hand-copied generators lived.
fn check_no_splitmix(src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for (n, line) in src.lines().enumerate() {
        let flat = line.replace('_', "").to_ascii_lowercase();
        if let Some(k) = SPLITMIX_CONSTANTS.iter().find(|k| flat.contains(*k)) {
            out.push(Violation {
                line: n + 1,
                message: format!(
                    "splitmix64 constant 0x{k} outside crates/compat/rand (draw from \
                     rand::rngs::StdRng or hash with rand::mix)"
                ),
            });
        }
    }
    out
}

/// Every `.rs` file under `dir`, recursively and sorted, without
/// entering `skip` or a `target` directory.
fn rust_files(dir: &Path, skip: &[PathBuf]) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if !skip.contains(&path) && path.file_name().is_none_or(|f| f != "target") {
                out.extend(rust_files(&path, skip)?);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// The workspace root, two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Run every lint over the repo. Returns the rendered violations.
fn run_lint(root: &Path) -> std::io::Result<Vec<String>> {
    let mut findings = Vec::new();

    // Rule 1: the whole serve crate's sources.
    for path in rust_files(&root.join("crates/serve/src"), &[])? {
        let src = std::fs::read_to_string(&path)?;
        for v in check_no_panics(&src, SERVE_CONTEXT) {
            findings.push(format!("{}:{}: {}", path.display(), v.line, v.message));
        }
    }

    // Rule 2: the storage codec, the reads it is built on, and the
    // footer parse.
    for file in CAST_FREE_FILES {
        let path = root.join("crates/storage/src").join(file);
        let src = std::fs::read_to_string(&path)?;
        for v in check_no_numeric_casts(&src) {
            findings.push(format!("{}:{}: {}", path.display(), v.line, v.message));
        }
    }

    // Rule 3: the observability module every layer calls into. A panic
    // in a metrics or memory-accounting helper would convert "record a
    // number" into "kill the worker", so the serve-path ban applies.
    let obs = root.join("crates/core/src/obs.rs");
    let src = std::fs::read_to_string(&obs)?;
    for v in check_no_panics(&src, OBS_CONTEXT) {
        findings.push(format!("{}:{}: {}", obs.display(), v.line, v.message));
    }

    // Rule 4: storage and ProQL sources route file IO through
    // storage's io.rs (the `StorageIo` passthrough module — the one
    // place allowed to touch the real filesystem).
    let io_rs = root.join("crates/storage/src/io.rs");
    for path in rust_files(&root.join("crates/storage/src"), &[])?
        .into_iter()
        .chain(rust_files(&root.join("crates/proql/src"), &[])?)
    {
        if path == io_rs {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        for v in check_no_direct_fs(&src) {
            findings.push(format!("{}:{}: {}", path.display(), v.line, v.message));
        }
    }

    // Rule 5: the ProQL front end, the one planner, its plans, the one
    // read executor, its result shaping, the reply and error renderers,
    // and the reach index, ZoomOut planner, circuit evaluator and store
    // accessors they call.
    for file in PLAN_FILES {
        let path = root.join(file);
        let src = std::fs::read_to_string(&path)?;
        for v in check_no_panics(&src, PLAN_CONTEXT) {
            findings.push(format!("{}:{}: {}", path.display(), v.line, v.message));
        }
    }

    // Rule 6: the storage decoders.
    for file in DECODER_FILES {
        let path = root.join("crates/storage/src").join(file);
        let src = std::fs::read_to_string(&path)?;
        for v in check_no_panics(&src, DECODE_CONTEXT) {
            findings.push(format!("{}:{}: {}", path.display(), v.line, v.message));
        }
    }

    // Rule 7: workflow execution.
    for file in WORKFLOW_FILES {
        let path = root.join(file);
        let src = std::fs::read_to_string(&path)?;
        for v in check_no_panics(&src, WORKFLOW_CONTEXT) {
            findings.push(format!("{}:{}: {}", path.display(), v.line, v.message));
        }
    }

    // Rule 8: the seeded generator lives in compat `rand` only.
    let skip = [root.join("crates/compat/rand")];
    for dir in ["crates", "tests", "examples"] {
        for path in rust_files(&root.join(dir), &skip)? {
            let src = std::fs::read_to_string(&path)?;
            for v in check_no_splitmix(&src) {
                findings.push(format!("{}:{}: {}", path.display(), v.line, v.message));
            }
        }
    }

    Ok(findings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match run_lint(&workspace_root()) {
            Ok(findings) if findings.is_empty() => {
                println!("xtask lint: clean");
                ExitCode::SUCCESS
            }
            Ok(findings) => {
                for f in &findings {
                    eprintln!("{f}");
                }
                eprintln!("xtask lint: {} violation(s)", findings.len());
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("xtask lint: cannot read sources: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_panics_are_caught() {
        let bad = "fn handle() {\n    let x = foo().unwrap();\n    bar().expect(\"x\");\n    \
                   panic!(\"boom\");\n}\n";
        let vs = check_no_panics(bad, SERVE_CONTEXT);
        assert_eq!(vs.len(), 3);
        assert_eq!(vs[0].line, 2);
        assert!(vs[0].message.contains("unwrap"));
        assert_eq!(vs[1].line, 3);
        assert!(vs[1].message.contains("expect"));
        assert_eq!(vs[2].line, 4);
        assert!(vs[2].message.contains("panic!"));
    }

    #[test]
    fn seeded_plan_store_disagreement_panics_are_caught() {
        let bad = "fn walk(reach: Option<&ReachIndex>) {\n    let index = \
                   reach.expect(\"planned with a reach index\");\n    let ids = \
                   store.module_postings(m).unwrap();\n}\n";
        let vs = check_no_panics(bad, PLAN_CONTEXT);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert_eq!(vs[0].line, 2);
        assert!(vs[0].message.contains("expect()"));
        assert!(vs[0].message.contains("ProQL planner/executor"));
        assert_eq!(vs[1].line, 3);
        // The fallbacks the rule asks for pass it.
        let ok = "fn fold() {\n    let out = acc.unwrap_or_default();\n    let ids = \
                  key.candidates(store).map_or(0, |ids| ids.len());\n}\n";
        assert_eq!(check_no_panics(ok, PLAN_CONTEXT), Vec::new());
    }

    /// Every rule-5 file is covered — the ProQL lexer, parser, analyzer
    /// and AST, the plans, the result shaping, the reply and error
    /// renderers every serve-path answer goes through, the reach index, the
    /// ZoomOut planner, the circuit evaluator behind `WHY`/`EVAL` and the
    /// store accessors included: a row lookup that `expect`s instead of
    /// answering an empty row is caught on the seeded line.
    #[test]
    fn seeded_plan_file_violations_are_caught() {
        for file in [
            "crates/proql/src/lexer.rs",
            "crates/proql/src/parser.rs",
            "crates/proql/src/analyze.rs",
            "crates/proql/src/ast.rs",
            "crates/core/src/query/reach.rs",
            "crates/core/src/query/zoom.rs",
            "crates/core/src/query/circuit.rs",
            "crates/core/src/store.rs",
            "crates/proql/src/plan.rs",
            "crates/proql/src/shape.rs",
            "crates/proql/src/result.rs",
            "crates/proql/src/error.rs",
        ] {
            assert!(PLAN_FILES.contains(&file), "{file}");
        }
        for file in PLAN_FILES {
            let src = std::fs::read_to_string(workspace_root().join(file)).expect("readable");
            let bad = format!(
                "fn row(rows: &[Box<[NodeId]>], v: NodeId) -> &[NodeId] {{ \
                 rows.get(v.index()).expect(\"row\") }}\n{src}"
            );
            let vs = check_no_panics(&bad, PLAN_CONTEXT);
            assert_eq!(vs.len(), 1, "{file}: {vs:?}");
            assert_eq!(vs[0].line, 1, "{file}");
        }
    }

    #[test]
    fn non_panicking_variants_and_test_code_are_allowed() {
        let ok = "fn handle() {\n    let x = foo().unwrap_or(0);\n    let y = \
                  foo().unwrap_or_else(|| 1);\n    let z = foo().unwrap_or_default();\n}\n\
                  #[cfg(test)]\nmod tests {\n    fn t() { foo().unwrap(); panic!(\"fine\"); }\n}\n";
        assert_eq!(check_no_panics(ok, SERVE_CONTEXT), Vec::new());
    }

    #[test]
    fn panics_in_comments_and_strings_are_ignored() {
        let ok = "// a doc line saying .unwrap() is forbidden\n/* and panic!( too,\n   even \
                  .expect( here */\nfn f() { let s = \".unwrap()\"; let c = '\\''; }\n";
        assert_eq!(check_no_panics(ok, SERVE_CONTEXT), Vec::new());
    }

    #[test]
    fn seeded_numeric_casts_are_caught() {
        let bad = "fn enc(n: usize) {\n    put(n as u64);\n    let x = k as i32;\n}\n";
        let vs = check_no_numeric_casts(bad);
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].line, 2);
        assert!(vs[0].message.contains("as u64"));
        assert_eq!(vs[1].line, 3);
    }

    #[test]
    fn cast_free_conversions_and_prose_are_allowed() {
        let ok = "fn enc(n: usize) {\n    put(u64::try_from(n).unwrap_or(u64::MAX));\n    let s = \
                  v.as_str();\n    // a comment about `n as u64` casts\n    let t: u64 = \
                  u64::from(k);\n}\n";
        assert_eq!(check_no_numeric_casts(ok), Vec::new());
    }

    #[test]
    fn raw_strings_and_lifetimes_survive_stripping() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet r = r#\"panic!(\"in raw\")\"#;\n";
        assert_eq!(check_no_panics(src, SERVE_CONTEXT), Vec::new());
        let stripped = strip_comments_and_strings(src);
        assert!(stripped.contains("fn f<'a>"));
        assert!(!stripped.contains("in raw"));
    }

    #[test]
    fn seeded_direct_fs_access_is_caught_once_per_line() {
        let bad = "use std::fs::{self, File};\nfn w(p: &Path) {\n    let f = \
                   File::create(p);\n    fs::rename(a, b);\n    OpenOptions::new();\n}\n";
        let vs = check_no_direct_fs(bad);
        assert_eq!(vs.len(), 4, "{vs:?}");
        assert_eq!(vs[0].line, 1);
        assert!(vs[0].message.contains("std::fs"));
        assert_eq!(vs[2].line, 4);
    }

    /// ProQL reaches files only through the storage crate: a direct
    /// read seeded into the session is caught on its line, and the
    /// committed session is clean.
    #[test]
    fn seeded_proql_fs_access_is_caught() {
        let path = workspace_root().join("crates/proql/src/session.rs");
        let src = std::fs::read_to_string(path).expect("proql source readable");
        assert_eq!(check_no_direct_fs(&src), Vec::new());
        let bad = format!("fn open(p: &Path) {{ let data = std::fs::read(p); }}\n{src}");
        let vs = check_no_direct_fs(&bad);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 1);
        assert!(vs[0].message.contains("StorageIo"));
    }

    #[test]
    fn storage_io_seam_and_test_modules_are_allowed() {
        // Routed IO, idents that merely end in "fs", prose, and
        // anything under #[cfg(test)] must all pass.
        let ok = "fn commit(&mut self) {\n    self.io.append(&self.tail_path, &frame)?;\n    \
                  let offs::Kind = x;\n    // prose about std::fs and File::open\n}\n\
                  #[cfg(test)]\nmod tests {\n    use std::fs;\n    fn t() { \
                  fs::remove_file(p).ok(); }\n}\n";
        assert_eq!(check_no_direct_fs(ok), Vec::new());
    }

    /// Each storage file the rules cover is clean as committed, and a
    /// violation seeded into it is caught on the seeded line — the
    /// decode-path shapes the rules exist for: a fixed-width read
    /// through `expect`, and a length narrowed with `as`.
    #[test]
    fn seeded_storage_decoder_violations_are_caught() {
        let dir = workspace_root().join("crates/storage/src");
        let seed = |file: &str, line: &str| {
            let src = std::fs::read_to_string(dir.join(file)).expect("storage source readable");
            format!("{line}\n{src}")
        };
        for file in DECODER_FILES {
            let bad = seed(
                file,
                "fn f(t: &[u8]) -> u64 { u64::from_le_bytes(t[..8].try_into().expect(\"8\")) }",
            );
            let vs = check_no_panics(&bad, DECODE_CONTEXT);
            assert_eq!(vs.len(), 1, "{file}: {vs:?}");
            assert_eq!(vs[0].line, 1, "{file}");
            assert!(vs[0].message.contains("storage decoder"), "{file}");
        }
        for file in CAST_FREE_FILES {
            let bad = seed(file, "fn f(r: &Reader) -> u64 { r.remaining() as u64 }");
            let vs = check_no_numeric_casts(&bad);
            assert_eq!(vs.len(), 1, "{file}: {vs:?}");
            assert_eq!(vs[0].line, 1, "{file}");
        }
        // `unwrap_or` in a writer is fine; `unreachable!` in a decoder
        // is not.
        let ok = "fn put_len(n: usize) -> u64 { u64::try_from(n).unwrap_or(u64::MAX) }\n";
        assert_eq!(check_no_panics(ok, DECODE_CONTEXT), Vec::new());
        let bad = "fn tag(t: u8) -> u8 { match t { 1 => 1, _ => unreachable!() } }\n";
        assert_eq!(check_no_panics(bad, DECODE_CONTEXT).len(), 1);
    }

    /// Every rule-7 file is covered: the shapes the rule exists for — an
    /// `expect` on a relation the script bound and on an edge's output —
    /// are caught on the seeded lines.
    #[test]
    fn seeded_workflow_exec_violations_are_caught() {
        for file in WORKFLOW_FILES {
            let src = std::fs::read_to_string(workspace_root().join(file)).expect("readable");
            let bad = format!(
                "fn commit(env: &mut Env) {{ env.take(rel).expect(\"bound\"); }}\n\
                 fn route(out: &Outputs) {{ out.get(rel).unwrap(); }}\n{src}"
            );
            let vs = check_no_panics(&bad, WORKFLOW_CONTEXT);
            assert_eq!(vs.len(), 2, "{file}: {vs:?}");
            assert_eq!((vs[0].line, vs[1].line), (1, 2), "{file}");
            assert!(vs[0].message.contains("WfError"), "{file}");
        }
    }

    /// Each constant is caught whatever its case and grouping, in a
    /// test module's comment too, and the walk skips only the
    /// generator's own crate.
    #[test]
    fn seeded_splitmix_copies_are_caught() {
        let [inc, mul1, mul2] = SPLITMIX_CONSTANTS;
        let (a, b) = inc.split_at(8);
        let bad = format!(
            "fn next() {{\n    s.wrapping_add(0x{}_{}_{}_{});\n    z.wrapping_mul(0x{});\n}}\n\
             #[cfg(test)]\nmod tests {{ /* 0x{mul2} */ }}\n",
            &a[..4],
            &a[4..],
            &b[..4],
            &b[4..],
            mul1.to_ascii_uppercase()
        );
        let vs = check_no_splitmix(&bad);
        let lines: Vec<usize> = vs.iter().map(|v| v.line).collect();
        assert_eq!(lines, [2, 3, 6], "{vs:?}");
        assert!(vs[0].message.contains("rand::mix"));
        // A prefix of a constant is not the constant.
        assert_eq!(check_no_splitmix(&format!("mix(x ^ 0x{a})")), Vec::new());

        let root = workspace_root();
        let rand_dir = root.join("crates/compat/rand");
        let scanned = rust_files(&root.join("crates"), std::slice::from_ref(&rand_dir))
            .expect("crates readable");
        assert!(!scanned.contains(&rand_dir.join("src/lib.rs")));
        assert!(scanned.contains(&root.join("crates/storage/tests/common/mod.rs")));
    }

    /// The real repo must currently be clean — this is the same check
    /// CI runs, so a panicking call can't land in serve without a
    /// failing test pointing at the exact line.
    #[test]
    fn the_repo_itself_is_clean() {
        let findings = run_lint(&workspace_root()).expect("workspace sources readable");
        assert!(
            findings.is_empty(),
            "xtask lint violations:\n{}",
            findings.join("\n")
        );
    }
}
