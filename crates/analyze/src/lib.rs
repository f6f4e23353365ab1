//! `geospan-analyze` — the workspace determinism linter.
//!
//! Every artifact this reproduction ships (Table-1 rows,
//! `traffic_load.csv`, `traffic_reliability.csv`) is contractually
//! byte-identical across runs and thread counts. That property is easy
//! to break silently: one `HashMap` iteration feeding an output, one
//! `partial_cmp().unwrap()` comparator meeting a NaN, one wall-clock
//! read in a measurement path. Clippy enforces the conventions it can
//! express with type information (root `clippy.toml` and
//! `[workspace.lints]`). This crate is a dependency-free, token-level
//! static pass over the workspace's own source for the rest — see
//! [`rules::RULES`] and DESIGN.md §13.
//!
//! The pass is layered: [`lexer`] (tokens + directives) → [`parser`]
//! (item tree: fns with bodies, enums, structs, match arms, attribute
//! regions) → rule passes — per-file token rules in [`rules`]
//! (D01, D05, D06, A00) and cross-file coupling rules in [`xrules`]
//! (D08–D10), which see the whole workspace at once.
//!
//! Suppression is always *with a reason* and sits next to the code it
//! excuses: an inline `// geospan-analyze: allow(<rule>, <reason>)`
//! directive on a reviewed site. There is no side file of triaged
//! findings.

pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod xrules;

use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{check_source, Finding, RuleInfo, RULES};
pub use sarif::findings_to_sarif;

/// Directories never scanned, at any depth.
const SKIP_DIRS: &[&str] = &[
    "target", "stubs", ".git",
    // Test/bench/example trees: the determinism contract is about
    // library and binary code; tests exercise panics and hash maps
    // freely.
    "tests", "benches", "examples",
];

/// Collects the workspace `.rs` files subject to the lint, relative to
/// `root`: every `crates/*/src/**` tree plus the root package `src/`.
///
/// # Errors
/// Returns an IO error message when a directory walk fails.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = read_dir_sorted(&crates_dir)?
            .into_iter()
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                walk(&src, &mut out)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for path in read_dir_sorted(dir)? {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints a set of `(path, source)` pairs as one workspace: per-file
/// rules plus the cross-file coupling rules (D08–D10), with inline
/// directives applied per path. Findings come back sorted by path,
/// line, rule.
///
/// This is the whole pipeline behind [`analyze_workspace`], exposed so
/// tests can lint synthetic workspaces (and mutated copies of real
/// files) without touching the filesystem.
pub fn analyze_sources(files: &[(String, String)]) -> Vec<Finding> {
    let parsed: Vec<parser::ParsedFile> = files
        .iter()
        .map(|(path, src)| parser::parse(path, src))
        .collect();
    let mut findings = Vec::new();
    for pf in &parsed {
        findings.extend(rules::check_file(pf));
    }
    findings.extend(xrules::check_workspace(&parsed));
    // Apply each file's inline directives to its findings (cross-file
    // findings included: a directive next to the flagged line works the
    // same whichever rule produced the finding).
    let mut out = Vec::new();
    for pf in &parsed {
        let (mine, rest): (Vec<Finding>, Vec<Finding>) =
            findings.into_iter().partition(|f| f.path == pf.path);
        findings = rest;
        out.extend(rules::apply_directives(mine, &pf.lexed));
    }
    out.extend(findings); // findings for paths not in the set (none today)
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    out
}

/// Lints the whole workspace under `root` and returns its findings
/// (inline directives applied), sorted by path, line, rule.
///
/// # Errors
/// Returns an IO error message when a file cannot be read.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    for file in workspace_files(root)? {
        let src = fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, src));
    }
    Ok(analyze_sources(&files))
}

/// JSON string escaping shared by the JSON and SARIF renderers.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a JSON array (machine-readable output; the crate
/// is dependency-free, so the JSON is emitted by hand).
pub fn findings_to_json(findings: &[Finding]) -> String {
    let esc = json_escape;
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"snippet\":\"{}\",\"message\":\"{}\"}}",
            f.rule,
            esc(&f.path),
            f.line,
            esc(&f.snippet),
            esc(&f.message)
        ));
    }
    out.push_str(if findings.is_empty() { "]" } else { "\n]" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_escapes_quotes_and_backslashes() {
        let f = Finding {
            rule: "D01",
            path: "src/a.rs".to_string(),
            line: 3,
            snippet: "x.expect(\"a\\b\")".to_string(),
            message: "m".to_string(),
        };
        let json = findings_to_json(&[f]);
        assert!(json.contains("\\\"a\\\\b\\\""), "{json}");
        assert_eq!(findings_to_json(&[]), "[]");
    }
}
