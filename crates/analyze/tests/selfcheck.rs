//! The linter's own gate, as a test: the workspace must be clean, with
//! inline directives the only suppression. This is the same check CI
//! runs via `cargo run -p geospan-analyze -- --check`, kept as a test so
//! plain `cargo test` catches regressions too.

use std::path::Path;

use geospan_analyze::{analyze_workspace, workspace_files};

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root")
        .to_path_buf();
    let findings = analyze_workspace(&root).expect("workspace scan succeeds");
    assert!(
        findings.is_empty(),
        "lint findings:\n{}",
        findings
            .iter()
            .map(|f| format!("  {}: {}:{}: {}", f.rule, f.path, f.line, f.snippet))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_analyzer_lints_its_own_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root")
        .to_path_buf();
    let files = workspace_files(&root).expect("workspace scan succeeds");
    let own: Vec<_> = files
        .iter()
        .filter(|p| p.starts_with(root.join("crates/analyze/src")))
        .collect();
    // No self-exemption: the linter's own sources are in the scan set
    // and subject to every rule, same as any other crate.
    for must in ["lexer.rs", "parser.rs", "rules.rs", "xrules.rs", "sarif.rs"] {
        assert!(
            own.iter().any(|p| p.ends_with(must)),
            "crates/analyze/src/{must} missing from the scan set: {own:?}"
        );
    }
}
