//! Mutation-style tests: the cross-file rules must fire on *mutated
//! copies of the real workspace files*, not just on synthetic fixtures.
//! Each test loads the live ledger/engine sources, applies the exact
//! edit a careless future change would make, and asserts the rule
//! catches it — proving the anchors (paths, item names, phase roots)
//! still match the code they guard.

#![expect(
    clippy::panic,
    reason = "test helpers fail the test naming the missing file"
)]

use std::path::{Path, PathBuf};

use geospan_analyze::{analyze_sources, Finding};

/// The real workspace root (`crates/analyze` sits two levels under it).
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root")
        .to_path_buf()
}

/// The live files participating in the D08/D10 coupling, as
/// `(workspace-relative path, source)` pairs.
fn ledger_files() -> Vec<(String, String)> {
    let root = root();
    [
        "crates/traffic/src/report.rs",
        "crates/traffic/src/engine.rs",
        "crates/traffic/src/shard.rs",
        "crates/bench/src/traffic.rs",
        "crates/bench/src/churn.rs",
    ]
    .iter()
    .map(|rel| {
        let src =
            std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        (rel.to_string(), src)
    })
    .collect()
}

fn replace_in(files: &mut [(String, String)], path: &str, from: &str, to: &str) {
    let (_, src) = files
        .iter_mut()
        .find(|(p, _)| p == path)
        .unwrap_or_else(|| panic!("{path} not in the loaded set"));
    assert!(src.contains(from), "anchor {from:?} vanished from {path}");
    *src = src.replacen(from, to, 1);
}

#[test]
fn unmutated_ledger_files_are_clean() {
    let findings = analyze_sources(&ledger_files());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d08_fires_when_a_drop_cause_variant_is_added_without_wiring() {
    let mut files = ledger_files();
    // The exact edit a future cause starts with: one new variant at the
    // end of the enum, nothing else wired up.
    replace_in(
        &mut files,
        "crates/traffic/src/report.rs",
        "    NodeDeparted,\n}",
        "    NodeDeparted,\n    Zap,\n}",
    );
    let findings = analyze_sources(&files);
    let d08: Vec<&Finding> = findings.iter().filter(|f| f.rule == "D08").collect();
    assert!(!d08.is_empty(), "{findings:?}");
    assert!(
        d08.iter()
            .all(|f| f.message.contains("Zap") || f.message.contains("zap")),
        "{d08:?}"
    );
    // The three coupling legs each produce a finding: missing
    // DropCounts field, missing engine accounting site, missing bench
    // CSV column — plus one per exhaustive match left uncovered.
    assert!(
        d08.iter()
            .any(|f| f.message.contains("field in DropCounts")),
        "{d08:?}"
    );
    assert!(
        d08.iter().any(|f| f.message.contains("never recorded")),
        "{d08:?}"
    );
    assert!(
        d08.iter().any(|f| f.message.contains("drops.zap")),
        "{d08:?}"
    );
}

#[test]
fn d08_fires_on_an_orphaned_dropcounts_field() {
    let mut files = ledger_files();
    replace_in(
        &mut files,
        "crates/traffic/src/report.rs",
        "pub struct DropCounts {",
        "pub struct DropCounts {\n    /// Orphan injected by the mutation test.\n    pub zap: u64,",
    );
    let findings = analyze_sources(&files);
    let d08: Vec<&Finding> = findings.iter().filter(|f| f.rule == "D08").collect();
    assert_eq!(d08.len(), 1, "{findings:?}");
    assert!(
        d08[0].message.contains("matches no DropCause variant"),
        "{}",
        d08[0].message
    );
}

#[test]
fn d10_fires_on_a_mutation_injected_outside_the_phase_fns() {
    let mut files = ledger_files();
    // Append a helper nobody calls from the phase roots; it pushes into
    // the shared completion log.
    let (_, engine) = files
        .iter_mut()
        .find(|(p, _)| p == "crates/traffic/src/engine.rs")
        .expect("engine source loaded");
    engine.push_str(
        "\nimpl ShardCore<'_> {\n    fn sneaky(&mut self, rec: (u32, PacketRecord)) {\n        self.done.push(rec);\n    }\n}\n",
    );
    let findings = analyze_sources(&files);
    let d10: Vec<&Finding> = findings.iter().filter(|f| f.rule == "D10").collect();
    assert_eq!(d10.len(), 1, "{findings:?}");
    assert!(d10[0].message.contains("sneaky"), "{}", d10[0].message);
    assert!(d10[0].message.contains("phase_local"), "{}", d10[0].message);
}
