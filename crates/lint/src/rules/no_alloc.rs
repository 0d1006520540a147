//! `no-alloc`: no allocation-shaped calls inside declared hot paths.
//!
//! The static complement of the counting-allocator integration test
//! (`crates/core/tests/alloc_free_step.rs`): the test proves a handful of
//! configurations allocate nothing per step at runtime; this rule rejects
//! the *code shapes* that would allocate — `Vec::new`, `vec!`, `format!`,
//! `.clone()`, `.collect()`, `.to_vec()`, `Box::new`, … — anywhere in the
//! hot regions declared in `lint.toml`, for every configuration at once,
//! before anything runs.
//!
//! Regions are declared per file as a function-name list (empty list = the
//! whole file). The rule finds `fn <name>` and lints to the matching close
//! brace of the body.
//!
//! A stale declaration is a finding too: a declared function that no `fn`
//! in its file defines, or a declared path the scan never visits. Without
//! that, deleting or renaming a hot function would drop it from the lint
//! without a word.

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Rule id.
pub const RULE: &str = "no-alloc";

/// `Type::method` pairs that allocate.
const PATH_CALLS: [(&str, &str); 9] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Rc", "new"),
    ("Arc", "new"),
];

/// Macros that allocate.
const MACROS: [&str; 2] = ["vec", "format"];

/// Method names whose call allocates (or is allocation-shaped enough that a
/// hot path must justify it explicitly).
const METHODS: [&str; 5] = ["clone", "collect", "to_vec", "to_string", "to_owned"];

/// Runs the rule over one file.
pub fn check(file: &SourceFile, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let Some(hot) = config.hot_paths.iter().find(|h| h.path == file.rel_path) else {
        return;
    };
    if hot.functions.is_empty() {
        scan_region(file, 0, file.code.len(), "<file>", out);
        return;
    }
    for name in &hot.functions {
        let bodies = function_bodies(file, name);
        if bodies.is_empty() {
            out.push(Diagnostic::new(
                RULE,
                &file.rel_path,
                1,
                1,
                format!(
                    "hot function `{name}` declared in lint.toml is not defined in this \
                     file; update or remove the stale entry"
                ),
                format!("stale hot function `{name}`"),
            ));
        }
        for (body_start, body_end) in bodies {
            scan_region(file, body_start, body_end, name, out);
        }
    }
}

/// Reports every declared hot path that is not among the scanned `files`
/// (a deleted or moved file, or one outside the configured includes).
pub fn check_paths(files: &[String], config: &LintConfig, out: &mut Vec<Diagnostic>) {
    for hot in &config.hot_paths {
        if !files.contains(&hot.path) {
            out.push(Diagnostic::new(
                RULE,
                &hot.path,
                1,
                1,
                "hot path declared in lint.toml was never scanned (missing, moved or \
                 excluded); update or remove the stale entry",
                "stale hot path",
            ));
        }
    }
}

/// Finds the code-token ranges of every `fn <name>` body in the file
/// (methods of different impl blocks may share a name).
fn function_bodies(file: &SourceFile, name: &str) -> Vec<(usize, usize)> {
    let mut bodies = Vec::new();
    let n = file.code.len();
    for i in 0..n {
        if file.code_text(i) != Some("fn") || file.code_text(i + 1) != Some(name) {
            continue;
        }
        // First `{` after the signature opens the body; track nesting to the
        // matching `}`.
        let mut j = i + 2;
        while j < n && file.code_text(j) != Some("{") {
            j += 1;
        }
        let body_start = j;
        let mut depth = 0usize;
        while j < n {
            match file.code_text(j) {
                Some("{") => depth += 1,
                Some("}") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        bodies.push((body_start, j));
    }
    bodies
}

/// Scans code tokens `[start, end)` for allocation shapes.
fn scan_region(
    file: &SourceFile,
    start: usize,
    end: usize,
    region: &str,
    out: &mut Vec<Diagnostic>,
) {
    let end = end.min(file.code.len());
    for i in start..end {
        let Some(text) = file.code_text(i) else {
            continue;
        };
        let next = file.code_text(i + 1);
        let prev = if i > 0 { file.code_text(i - 1) } else { None };
        let hit: Option<String> = if MACROS.contains(&text) && next == Some("!") {
            Some(format!("{text}!"))
        } else if next == Some("::")
            && PATH_CALLS
                .iter()
                .any(|&(ty, m)| ty == text && file.code_text(i + 2) == Some(m))
        {
            Some(format!(
                "{text}::{}",
                file.code_text(i + 2).unwrap_or_default()
            ))
        } else if METHODS.contains(&text)
            && prev == Some(".")
            && (next == Some("(") || next == Some("::"))
        {
            // `(` is a plain call; `::` catches the turbofish form
            // `.collect::<Vec<_>>()`.
            Some(format!(".{text}()"))
        } else {
            None
        };
        if let Some(shape) = hit {
            let tok = file.code_tok(i).expect("index in range");
            out.push(Diagnostic::new(
                RULE,
                &file.rel_path,
                tok.line,
                tok.col,
                format!(
                    "allocation-shaped call `{shape}` inside hot path `{region}`; hot \
                     regions must stay allocation-free (see docs/LINTING.md#no-alloc)"
                ),
                format!("`{shape}` in `{region}`"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HotPath, LintConfig};

    fn config(functions: &[&str]) -> LintConfig {
        let mut cfg = LintConfig::from_str("", "test").unwrap();
        cfg.hot_paths = vec![HotPath {
            path: "hot.rs".to_string(),
            functions: functions.iter().map(|s| s.to_string()).collect(),
        }];
        cfg
    }

    fn run(src: &str, functions: &[&str]) -> Vec<Diagnostic> {
        let file = SourceFile::new("hot.rs".to_string(), src.to_string());
        let mut out = Vec::new();
        check(&file, &config(functions), &mut out);
        out
    }

    #[test]
    fn flags_every_allocation_shape_in_a_hot_fn() {
        let src = r#"
fn hot(xs: &[u32]) {
    let v = vec![1];
    let s = format!("{v:?}");
    let w = Vec::new();
    let b = Box::new(s.clone());
    let c: Vec<u32> = xs.iter().copied().collect();
    let t = xs.to_vec();
}
"#;
        let hits = run(src, &["hot"]);
        let shapes: Vec<&str> = hits.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(hits.len(), 7, "{shapes:?}");
    }

    #[test]
    fn cold_functions_stay_quiet() {
        let src = "fn cold() { let v = vec![1]; }\nfn hot() { let x = 1 + 2; }\n";
        assert!(run(src, &["hot"]).is_empty());
    }

    #[test]
    fn whole_file_mode_lints_everything() {
        let src = "fn a() { let v = vec![1]; }\nfn b() { let s = x.to_owned(); }\n";
        assert_eq!(run(src, &[]).len(), 2);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r#"
fn hot() {
    // vec![] and format!() and .clone() in a comment
    let s = "Vec::new() .collect()";
}
"#;
        assert!(run(src, &["hot"]).is_empty());
    }

    #[test]
    fn nested_braces_stay_inside_the_body() {
        let src = r#"
fn hot(x: u32) {
    match x {
        0 => { let _ = x; }
        _ => {}
    }
}
fn after() { let v = vec![1]; }
"#;
        assert!(run(src, &["hot"]).is_empty());
    }

    #[test]
    fn a_declared_function_missing_from_its_file_is_reported() {
        let src = "fn hot() { let x = 1; }\n";
        assert!(run(src, &["hot"]).is_empty());
        let hits = run(src, &["hot", "renamed_away"]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].file, "hot.rs");
        assert!(hits[0].message.contains("`renamed_away`"), "{hits:?}");
        assert!(hits[0].message.contains("stale"), "{hits:?}");
    }

    #[test]
    fn a_declared_path_the_scan_never_visits_is_reported() {
        let cfg = config(&["hot"]);
        let mut out = Vec::new();
        check_paths(&["hot.rs".to_string()], &cfg, &mut out);
        assert!(out.is_empty(), "{out:?}");
        check_paths(&["other.rs".to_string()], &cfg, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, "hot.rs");
        assert_eq!(out[0].rule, RULE);
    }

    #[test]
    fn field_access_named_clone_is_not_a_call() {
        let src = "fn hot(c: C) { let x = c.clone; }\n";
        assert!(run(src, &["hot"]).is_empty());
    }
}
