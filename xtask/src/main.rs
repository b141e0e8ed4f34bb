//! `xtask` — repo maintenance tasks, run as `cargo run -p xtask -- <task>`.
//!
//! Tasks:
//!
//! * `lint-static` (default): walk every first-party `.rs` file (the
//!   `crates/`, `tests/`, `examples/` and `xtask/` trees — `third_party/`
//!   mirrors external crates and is exempt) and assert three source
//!   disciplines that `rustc`/`clippy` cannot check:
//!
//!   1. every `unsafe` block, fn, impl or trait carries a `// SAFETY:`
//!      comment — trailing on the same line or in the contiguous comment
//!      block immediately above — explaining why the invariants hold;
//!   2. every `SeqCst` use site carries a per-site ordering comment (a
//!      comment mentioning `SeqCst` on the line or in the block above)
//!      justifying why the strongest ordering is needed — the simulator's
//!      whole point is modelling *weaker* persist orderings, so an
//!      unexplained `SeqCst` is either load-bearing (document it) or
//!      cargo-culted (weaken it);
//!   3. the library crates ([`LIBRARY_CRATES`] — everything the benchmark
//!      measures) read the process environment only for the checker arming
//!      switch in [`LIBRARY_ENV_KNOBS`]: a behaviour switch read inside a
//!      library changes what every harness measures without any of them
//!      saying so. Harness knobs belong in `bench` and in the standalone
//!      `dfbench` package.
//!
//! Exits non-zero listing every violating `file:line`. CI runs this as the
//! `lint-static` step.

use std::path::{Path, PathBuf};

/// First-party source roots, relative to the repo root.
const ROOTS: [&str; 4] = ["crates", "tests", "examples", "xtask"];

/// The crates under `crates/` that are libraries of the system itself (as
/// opposed to harnesses around it).
const LIBRARY_CRATES: [&str; 7] =
    ["pmem", "rcas", "capsules", "core", "queues", "structs", "service"];

/// The only environment variable a library crate may read: it arms the
/// persist-order checker, it does not change what the checked code does.
const LIBRARY_ENV_KNOBS: [&str; 1] = ["\"DF_HB\""];

fn main() {
    let task = std::env::args().nth(1).unwrap_or_else(|| "lint-static".into());
    match task.as_str() {
        "lint-static" => lint_static(),
        other => {
            eprintln!("xtask: unknown task {other:?} (available: lint-static)");
            std::process::exit(2);
        }
    }
}

fn lint_static() {
    let root = repo_root();
    let mut files = Vec::new();
    for r in ROOTS {
        collect_rs(&root.join(r), &mut files);
    }
    files.sort();
    let mut violations = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
        lint_file(&root, file, &text, &mut violations);
    }
    if violations.is_empty() {
        println!("lint-static: {} files clean", files.len());
        return;
    }
    for v in &violations {
        eprintln!("{v}");
    }
    eprintln!("lint-static: {} violation(s)", violations.len());
    std::process::exit(1);
}

/// The repo root: the directory holding the workspace `Cargo.toml`, found by
/// walking up from this crate's manifest dir (so the lint works from any CWD).
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .expect("xtask sits one level below the workspace root")
        .to_path_buf()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// One source line split into its code and comment halves. String-literal
/// contents are blanked out of `code` so a literal mentioning the linted
/// tokens (this file's own test inputs, say) is not a use site, and a `//`
/// inside a literal does not start a comment. Line-based: multi-line and raw
/// strings, and block comments, are approximated — none of them hide an
/// `unsafe` or `SeqCst` site in this codebase, and a false positive is fixed
/// by a comment the site should carry anyway.
struct LineView<'a> {
    code: String,
    comment: Option<&'a str>,
}

fn split_line(line: &str) -> LineView<'_> {
    let bytes = line.as_bytes();
    let mut code = Vec::with_capacity(bytes.len());
    let mut in_string = false;
    let mut escaped = false;
    let mut comment_at = None;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            code.push(b' ');
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
        } else if b == b'"' {
            in_string = true;
            code.push(b' ');
        } else if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            comment_at = Some(i);
            break;
        } else {
            code.push(b);
        }
    }
    LineView {
        // Blanked bytes are ASCII spaces; everything kept was valid UTF-8,
        // except multi-byte sequences inside literals which were blanked
        // byte-for-byte — so the buffer is valid UTF-8 throughout.
        code: String::from_utf8_lossy(&code).into_owned(),
        comment: comment_at.map(|i| &line[i..]),
    }
}

/// Does the contiguous run of comment / attribute / empty lines ending just
/// above `idx` (or the trailing comment of the line itself) satisfy `pred`?
fn annotated(lines: &[&str], idx: usize, pred: impl Fn(&str) -> bool) -> bool {
    if split_line(lines[idx]).comment.is_some_and(&pred) {
        return true;
    }
    for prev in lines[..idx].iter().rev() {
        let t = prev.trim();
        if t.is_empty() || t.starts_with("#[") {
            continue;
        }
        if t.starts_with("//") {
            if pred(t) {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

/// `unsafe` tokens that introduce code needing a safety argument (as opposed
/// to the word appearing inside a comment, doc text or identifier).
fn code_has_unsafe(code: &str) -> bool {
    ["unsafe {", "unsafe fn", "unsafe impl", "unsafe trait", "unsafe extern"]
        .iter()
        .any(|tok| code.contains(tok))
}

fn lint_file(root: &Path, file: &Path, text: &str, violations: &mut Vec<String>) {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let library = LIBRARY_CRATES.iter().any(|c| rel.starts_with(Path::new("crates").join(c)));
    let rel = rel.display();
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let view = split_line(line);
        if code_has_unsafe(&view.code)
            && !annotated(&lines, i, |c| c.contains("SAFETY:"))
        {
            violations.push(format!(
                "{rel}:{}: `unsafe` without a `// SAFETY:` comment",
                i + 1
            ));
        }
        if view.code.contains("SeqCst")
            && !annotated(&lines, i, |c| c.contains("SeqCst"))
        {
            violations.push(format!(
                "{rel}:{}: `SeqCst` without a per-site ordering comment",
                i + 1
            ));
        }
        // The knob name is a string literal on the call's own line (blanked
        // out of `view.code`, so look at the raw line).
        if library
            && view.code.contains("env::var")
            && !LIBRARY_ENV_KNOBS.iter().any(|knob| line.contains(knob))
        {
            violations.push(format!(
                "{rel}:{}: a library crate reads the environment (allowed: {})",
                i + 1,
                LIBRARY_ENV_KNOBS.join(", ")
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(text: &str) -> Vec<String> {
        let mut v = Vec::new();
        lint_file(Path::new("/r"), Path::new("/r/f.rs"), text, &mut v);
        v
    }

    #[test]
    fn bare_unsafe_block_is_flagged() {
        let v = lint("fn f() {\n    unsafe { g() }\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("f.rs:2"), "{v:?}");
    }

    #[test]
    fn safety_comment_above_or_trailing_passes() {
        assert!(lint("// SAFETY: g is fine\nunsafe { g() }\n").is_empty());
        assert!(lint("unsafe { g() } // SAFETY: g is fine\n").is_empty());
        // A comment block with the tag on an earlier line still counts.
        assert!(lint("// SAFETY: long argument\n// continued here\nunsafe { g() }\n").is_empty());
    }

    #[test]
    fn attributes_between_comment_and_site_are_transparent() {
        assert!(lint("// SAFETY: checked\n#[inline]\nunsafe fn g() {}\n").is_empty());
    }

    #[test]
    fn bare_seqcst_is_flagged_and_commented_seqcst_passes() {
        assert_eq!(lint("a.store(1, Ordering::SeqCst);\n").len(), 1);
        assert!(lint("// SeqCst: arms race with crash delivery\na.store(1, Ordering::SeqCst);\n")
            .is_empty());
    }

    #[test]
    fn mentions_inside_comments_and_docs_are_ignored() {
        assert!(lint("// the simulator never needs unsafe { } here\n").is_empty());
        assert!(lint("/// compiles SeqCst stores to xchg\nfn f() {}\n").is_empty());
    }

    #[test]
    fn library_crates_may_read_only_the_checker_arming_knobs() {
        let lint_at = |path: &str, text: &str| {
            let mut v = Vec::new();
            lint_file(Path::new("/r"), Path::new(path), text, &mut v);
            v
        };
        let switch = "let on = std::env::var_os(\"DF_ADAPTIVE\").is_some();\n";
        let v = lint_at("/r/crates/capsules/src/contention.rs", switch);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("contention.rs:1") && v[0].contains("DF_HB"), "{v:?}");
        assert_eq!(lint_at("/r/crates/core/src/lib.rs", "for (k, _) in std::env::vars() {}\n").len(), 1);
        // The arming switch is allowed, harness crates are not libraries,
        // and a mention in a comment is not a read.
        let arm = "if let Some(v) = std::env::var_os(\"DF_HB\") {}\n";
        assert!(lint_at("/r/crates/pmem/src/mem.rs", arm).is_empty());
        assert!(lint_at("/r/crates/bench/src/lib.rs", switch).is_empty());
        assert!(lint_at("/r/crates/rcas/src/lib.rs", "// no std::env::var here\n").is_empty());
    }

    #[test]
    fn an_unrelated_comment_does_not_satisfy_the_seqcst_lint() {
        let v = lint("// bump the counter\na.fetch_add(1, Ordering::SeqCst);\n");
        assert_eq!(v.len(), 1, "{v:?}");
    }
}
