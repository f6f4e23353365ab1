//! End-to-end tests of the `geospan-analyze` binary: argument errors,
//! the three output formats, rule explanation, and the `--check` gate
//! against a scratch workspace.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_geospan-analyze"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Creates a scratch workspace (`crates/pkg/src/lib.rs` holding `src`)
/// under the target directory and returns its root.
fn scratch(name: &str, src: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let pkg_src = root.join("crates/pkg/src");
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("reset scratch root");
    }
    std::fs::create_dir_all(&pkg_src).expect("create scratch tree");
    std::fs::write(pkg_src.join("lib.rs"), src).expect("write scratch source");
    root
}

#[test]
fn format_without_a_value_exits_with_a_usage_error() {
    let out = run(&["--format"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stderr(&out).contains("--format needs a value"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn unknown_format_and_unknown_flag_are_usage_errors() {
    let out = run(&["--format", "xml"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("text|json|sarif"), "{}", stderr(&out));

    let out = run(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("unknown argument"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn explain_prints_the_rationale_and_rejects_unknown_rules() {
    let out = run(&["--explain", "d08"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("D08"), "{text}");
    assert!(text.contains("DropCause"), "rationale missing: {text}");

    let out = run(&["--explain", "D99"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown rule"), "{}", stderr(&out));
}

#[test]
fn list_rules_covers_the_full_table() {
    let out = run(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let ids: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    // The rules clippy enforces (D02-D04, D07, D11) are not listed.
    assert_eq!(
        ids,
        ["A00", "D01", "D05", "D06", "D08", "D09", "D10"],
        "{text}"
    );
}

#[test]
fn check_exits_2_on_findings_and_0_when_clean() {
    let root = scratch(
        "cli-check-dirty",
        "pub fn f(m: &HashSet<u32>) -> Vec<u32> { m.iter().copied().collect() }\n",
    );
    let out = run(&["--check", "--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stdout(&out).contains("D01"), "{}", stdout(&out));

    let root = scratch(
        "cli-check-clean",
        "pub fn f(m: &HashSet<u32>) -> usize { m.iter().count() }\n",
    );
    let out = run(&["--check", "--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn sarif_output_is_a_2_1_0_log_with_the_finding() {
    let root = scratch(
        "cli-sarif",
        "pub fn f(m: &HashSet<u32>) -> Vec<u32> { m.iter().copied().collect() }\n",
    );
    let out = run(&[
        "--format",
        "sarif",
        "--root",
        root.to_str().expect("utf-8 path"),
    ]);
    let text = stdout(&out);
    assert!(text.contains("\"version\": \"2.1.0\""), "{text}");
    assert!(text.contains("geospan-analyze"), "{text}");
    assert!(text.contains("\"ruleId\": \"D01\""), "{text}");
    assert!(text.contains("crates/pkg/src/lib.rs"), "{text}");
}

#[test]
fn json_output_is_the_pinned_array_schema() {
    let root = scratch(
        "cli-json",
        "pub fn f(m: &HashSet<u32>) -> Vec<u32> { m.iter().copied().collect() }\n",
    );
    let out = run(&[
        "--format",
        "json",
        "--root",
        root.to_str().expect("utf-8 path"),
    ]);
    let text = stdout(&out);
    assert!(text.starts_with("[\n  {\"rule\":\"D01\""), "{text}");
    assert!(
        text.contains(
            "\"snippet\":\"pub fn f(m: &HashSet<u32>) -> Vec<u32> { m.iter().copied().collect() }\""
        ),
        "{text}"
    );
}
