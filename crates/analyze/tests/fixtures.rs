//! Per-rule positive/negative fixtures for the determinism linter.
//!
//! Each rule gets at least one source string it must flag and one
//! shaped-alike string it must not, plus coverage for the suppression
//! channel (inline allow directives).
//! The rules handed to clippy keep their fixtures at the end of this
//! file, linted by clippy under the workspace's own configuration.

use std::fs;
use std::path::Path;
use std::process::Command;

use geospan_analyze::{analyze_sources, check_source, Finding};

fn rules_hit(src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = check_source("fixture.rs", src)
        .into_iter()
        .map(|f| f.rule)
        .collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

// ---------------------------------------------------------------- D01

#[test]
fn d01_flags_for_loop_over_hashmap() {
    let src = r#"
use std::collections::HashMap;
pub fn emit() -> Vec<(u32, u32)> {
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    let mut out = Vec::new();
    for (k, v) in &m {
        out.push((*k, *v));
    }
    out
}
"#;
    assert_eq!(rules_hit(src), ["D01"]);
}

#[test]
fn d01_flags_iter_collect_into_vec() {
    let src = r#"
use std::collections::HashSet;
pub fn emit(s: HashSet<u32>) -> Vec<u32> {
    s.into_iter().collect()
}
"#;
    assert_eq!(rules_hit(src), ["D01"]);
}

#[test]
fn d01_ignores_btreemap_and_order_free_sinks() {
    let src = r#"
use std::collections::{BTreeMap, HashSet};
pub fn ok(m: BTreeMap<u32, u32>, s: HashSet<u32>) -> (u32, bool, usize) {
    let mut acc = 0;
    for (_k, v) in &m {
        acc += v;
    }
    // Order-free sinks on a hash collection are fine.
    (acc, s.iter().any(|&x| x > 3), s.iter().count())
}
"#;
    assert_eq!(rules_hit(src), Vec::<&str>::new());
}

#[test]
fn d01_ignores_hash_iteration_inside_test_code() {
    let src = r#"
use std::collections::HashSet;

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn order_does_not_matter_here() {
        let s: HashSet<u32> = HashSet::new();
        for x in &s {
            let _ = x;
        }
    }
}
"#;
    assert_eq!(rules_hit(src), Vec::<&str>::new());
}

#[test]
fn d01_collect_back_into_a_set_is_order_free() {
    let src = r#"
use std::collections::{BTreeSet, HashSet};
pub fn ok(s: HashSet<u32>) -> BTreeSet<u32> {
    s.into_iter().collect::<BTreeSet<u32>>()
}
"#;
    assert_eq!(rules_hit(src), Vec::<&str>::new());
}

// ---------------------------------------------------------------- D05

#[test]
fn d05_flags_parallel_float_reduction() {
    let src = r#"
use rayon::prelude::*;
pub fn bad(v: &[f64]) -> f64 {
    v.par_iter().map(|x| x * x).sum()
}
"#;
    assert_eq!(rules_hit(src), ["D05"]);
}

#[test]
fn d05_ignores_par_map_collect_with_serial_fold() {
    let src = r#"
use rayon::prelude::*;
pub fn ok(v: &[f64]) -> f64 {
    let squares: Vec<f64> = v.par_iter().map(|x| x * x).collect();
    let mut acc = 0.0;
    for s in &squares {
        acc += s;
    }
    acc
}
"#;
    assert_eq!(rules_hit(src), Vec::<&str>::new());
}

// ---------------------------------------------------------------- D06

#[test]
fn d06_flags_node_id_keyed_btrees_in_construction_crates() {
    let src = r#"
use std::collections::{BTreeMap, BTreeSet};
pub struct NodeState {
    neighbors: BTreeSet<usize>,
    positions: BTreeMap<usize, (f64, f64)>,
}
"#;
    let findings = check_source("crates/topology/src/fixture.rs", src);
    let d06 = findings.iter().filter(|f| f.rule == "D06").count();
    assert_eq!(d06, 2, "{findings:?}");
}

#[test]
fn d06_ignores_tuple_keys_and_non_construction_crates() {
    // Pair/triple keys encode message-emission order and never match.
    let src = r#"
use std::collections::{BTreeMap, BTreeSet};
pub struct NodeState {
    edges: BTreeSet<(usize, usize)>,
    votes: BTreeMap<[usize; 3], u32>,
    winners: BTreeMap<(usize, usize), Vec<usize>>,
}
"#;
    assert!(check_source("crates/cds/src/fixture.rs", src).is_empty());

    // Node-id keys outside the construction crates are not D06's business.
    let src = r#"
use std::collections::BTreeSet;
pub struct Flows {
    active: BTreeSet<usize>,
}
"#;
    assert!(check_source("crates/traffic/src/fixture.rs", src).is_empty());
}

#[test]
fn d06_ignores_test_code_and_honors_allow_directive() {
    let src = r#"
#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    pub struct Oracle {
        neighbors: BTreeSet<usize>,
    }
}
"#;
    assert!(check_source("crates/graph/src/fixture.rs", src).is_empty());

    let src = r#"
use std::collections::BTreeSet;
pub struct NodeState {
    // geospan-analyze: allow(D06, emission order of this set is load-bearing)
    neighbors: BTreeSet<usize>,
}
"#;
    assert!(check_source("crates/graph/src/fixture.rs", src).is_empty());
}

// ------------------------------------------------- directives and A00

#[test]
fn allow_directive_on_same_line_suppresses() {
    let src = r#"
pub fn bad(m: &HashSet<u32>) -> Vec<u32> {
    m.iter().copied().collect() // geospan-analyze: allow(D01, fixture demonstrates suppression)
}
"#;
    assert_eq!(rules_hit(src), Vec::<&str>::new());
}

#[test]
fn allow_directive_on_preceding_line_suppresses() {
    let src = r#"
pub fn bad(m: &HashSet<u32>) -> Vec<u32> {
    // geospan-analyze: allow(D01, fixture demonstrates suppression)
    m.iter().copied().collect()
}
"#;
    assert_eq!(rules_hit(src), Vec::<&str>::new());
}

#[test]
fn allow_directive_for_wrong_rule_does_not_suppress() {
    let src = r#"
pub fn bad(m: &HashSet<u32>) -> Vec<u32> {
    // geospan-analyze: allow(D05, wrong rule id)
    m.iter().copied().collect()
}
"#;
    assert_eq!(rules_hit(src), ["D01"]);
}

#[test]
fn malformed_directive_is_reported_as_a00() {
    // Missing reason.
    let src = "pub fn f() {} // geospan-analyze: allow(D01)\n";
    assert_eq!(rules_hit(src), ["A00"]);
    // Unknown shape.
    let src = "pub fn f() {} // geospan-analyze: suppress(D01, reason)\n";
    assert_eq!(rules_hit(src), ["A00"]);
}

#[test]
fn directive_syntax_inside_doc_comments_is_not_parsed() {
    let src = r#"
//! Mentions `geospan-analyze: allow(D01)` in crate docs.

/// Docs may show `geospan-analyze: allow(broken` without tripping A00.
pub fn f() {}
"#;
    assert_eq!(rules_hit(src), Vec::<&str>::new());
}

#[test]
fn violations_inside_string_literals_are_not_flagged() {
    let src = r#"
pub fn ok() -> &'static str {
    "let m: HashSet<u32> = HashSet::new(); for x in &m {} m.iter().collect::<Vec<_>>()"
}
"#;
    assert_eq!(rules_hit(src), Vec::<&str>::new());
}

// --------------------------------------------------- cross-file helpers

/// Lints a synthetic multi-file workspace through the full pipeline
/// (per-file rules + D08–D10 + inline directives).
fn workspace(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    analyze_sources(&owned)
}

// ---------------------------------------------------------------- D08

/// A fully coupled two-cause ledger: every variant has a field, an
/// accounting site in the engine, and a CSV column in the bench writer.
const D08_REPORT_OK: &str = r#"
pub enum DropCause {
    Stuck,
    QueueFull,
}
pub struct DropCounts {
    pub stuck: u64,
    pub queue_full: u64,
}
impl DropCounts {
    pub fn record(&mut self, c: DropCause) {
        match c {
            DropCause::Stuck => self.stuck += 1,
            DropCause::QueueFull => self.queue_full += 1,
        }
    }
}
"#;

const D08_ENGINE_OK: &str = r#"
pub fn account(drops: &mut DropCounts, full: bool) {
    if full {
        drops.record(DropCause::QueueFull);
    } else {
        drops.record(DropCause::Stuck);
    }
}
"#;

const D08_BENCH_OK: &str = r#"
pub fn csv_row(r: &TrafficReport) -> String {
    format!("{},{}", r.drops.stuck, r.drops.queue_full)
}
"#;

fn d08_workspace(report: &str, engine: &str, bench: &str) -> Vec<Finding> {
    workspace(&[
        ("crates/traffic/src/report.rs", report),
        ("crates/traffic/src/engine.rs", engine),
        ("crates/bench/src/traffic.rs", bench),
    ])
}

#[test]
fn d08_fully_coupled_ledger_is_clean() {
    let fs = d08_workspace(D08_REPORT_OK, D08_ENGINE_OK, D08_BENCH_OK);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn d08_flags_variant_with_no_field_accounting_column_or_match_arm() {
    // A freshly added cause with nothing wired up yet: four findings
    // (missing DropCounts field, missing engine accounting site,
    // missing bench CSV column, uncovered match arm in record()).
    let report = D08_REPORT_OK.replacen("    QueueFull,\n}", "    QueueFull,\n    LinkLoss,\n}", 1);
    let fs = d08_workspace(&report, D08_ENGINE_OK, D08_BENCH_OK);
    assert_eq!(fs.len(), 4, "{fs:?}");
    assert!(fs.iter().all(|f| f.rule == "D08"), "{fs:?}");
    assert!(
        fs.iter()
            .all(|f| f.message.contains("LinkLoss") || f.message.contains("link_loss")),
        "{fs:?}"
    );
}

#[test]
fn d08_flags_orphan_dropcounts_field() {
    let report = D08_REPORT_OK.replacen(
        "    pub queue_full: u64,\n}",
        "    pub queue_full: u64,\n    pub ghost: u64,\n}",
        1,
    );
    let fs = d08_workspace(&report, D08_ENGINE_OK, D08_BENCH_OK);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert_eq!(fs[0].rule, "D08");
    assert!(fs[0].message.contains("ghost"), "{}", fs[0].message);
    assert!(
        fs[0].message.contains("matches no DropCause variant"),
        "{}",
        fs[0].message
    );
}

#[test]
fn d08_flags_missing_bench_column_alone() {
    let bench = r#"
pub fn csv_row(r: &TrafficReport) -> String {
    format!("{}", r.drops.stuck)
}
"#;
    let fs = d08_workspace(D08_REPORT_OK, D08_ENGINE_OK, bench);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert!(
        fs[0].message.contains("drops.queue_full"),
        "{}",
        fs[0].message
    );
}

#[test]
fn d08_match_with_wildcard_arm_is_exempt_from_coverage() {
    let report = r#"
pub enum DropCause {
    Stuck,
    QueueFull,
}
pub struct DropCounts {
    pub stuck: u64,
    pub queue_full: u64,
}
impl DropCounts {
    pub fn is_congestion(c: DropCause) -> bool {
        match c {
            DropCause::QueueFull => true,
            _ => false,
        }
    }
    pub fn record(&mut self, c: DropCause) {
        match c {
            DropCause::Stuck => self.stuck += 1,
            DropCause::QueueFull => self.queue_full += 1,
        }
    }
}
"#;
    let fs = d08_workspace(report, D08_ENGINE_OK, D08_BENCH_OK);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn d08_is_silent_without_the_anchor_file() {
    // The same enum/struct under any other path is not the ledger.
    let fs = workspace(&[("crates/sim/src/report.rs", D08_REPORT_OK)]);
    assert!(fs.is_empty(), "{fs:?}");
}

// ---------------------------------------------------------------- D09

#[test]
fn d09_flags_unproven_seed_arguments() {
    // A value with no "seed" in its name and no provable flow.
    let src = r#"
pub fn bad(count: u64) -> u64 {
    let _r = StdRng::seed_from_u64(count * 31);
    count
}
"#;
    let fs = workspace(&[("crates/sim/src/fixture.rs", src)]);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert_eq!(fs[0].rule, "D09");

    // One level of indirection, but a call site passes a non-seed.
    let src = r#"
pub fn make(x: u64) -> StdRng {
    StdRng::seed_from_u64(x)
}
pub fn caller(ticks: u64) -> StdRng {
    make(ticks)
}
"#;
    let fs = workspace(&[("crates/sim/src/fixture.rs", src)]);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert_eq!(fs[0].rule, "D09");
    assert!(fs[0].message.contains("unproven"), "{}", fs[0].message);
}

#[test]
fn d09_accepts_named_seeds_literals_and_constant_mixes() {
    let src = r#"
pub fn ok(cfg: Config) -> (StdRng, StdRng, StdRng) {
    let a = StdRng::seed_from_u64(cfg.rng_seed);
    let b = StdRng::seed_from_u64(42);
    let c = StdRng::seed_from_u64(cfg.rng_seed ^ 0x9e3779b9);
    (a, b, c)
}
"#;
    let fs = workspace(&[("crates/sim/src/fixture.rs", src)]);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn d09_proves_seed_flow_through_one_helper_level() {
    let src = r#"
pub fn make(x: u64) -> StdRng {
    StdRng::seed_from_u64(x)
}
pub fn run(seed: u64) -> (StdRng, StdRng) {
    (make(seed), make(seed + 1))
}
"#;
    let fs = workspace(&[("crates/sim/src/fixture.rs", src)]);
    assert!(fs.is_empty(), "{fs:?}");
}

// ---------------------------------------------------------------- D10

#[test]
fn d10_flags_container_mutation_outside_the_phase_call_tree() {
    let src = r#"
pub struct Core {
    queue: Vec<u32>,
    done: Vec<u32>,
}
impl Core {
    pub fn phase_local(&mut self) {
        self.step();
    }
    fn step(&mut self) {
        self.queue.push(1);
    }
    fn sneaky(&mut self) {
        self.done.push(2);
    }
}
"#;
    let fs = workspace(&[("crates/traffic/src/engine.rs", src)]);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert_eq!(fs[0].rule, "D10");
    assert!(fs[0].message.contains("sneaky"), "{}", fs[0].message);
    assert!(fs[0].message.contains("done"), "{}", fs[0].message);
}

#[test]
fn d10_flags_ledger_counter_increment_outside_the_phases() {
    let src = r#"
pub struct Core {
    rounds: u64,
}
impl Core {
    pub fn phase_merge(&mut self) {
        self.rounds += 1;
    }
    fn audit(&mut self) {
        self.rounds += 1;
    }
}
"#;
    let fs = workspace(&[("crates/traffic/src/shard.rs", src)]);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert_eq!(fs[0].rule, "D10");
    assert!(
        fs[0].message.contains("ledger counter `rounds`"),
        "{}",
        fs[0].message
    );
    assert!(fs[0].message.contains("audit"), "{}", fs[0].message);
}

#[test]
fn d10_blesses_helpers_reachable_from_the_phase_fns() {
    let src = r#"
pub struct Core {
    queue: Vec<u32>,
    retries: Vec<u32>,
    events: u64,
}
impl Core {
    pub fn phase_local(&mut self) {
        self.service();
    }
    fn service(&mut self) {
        self.retry();
        self.queue.pop();
    }
    fn retry(&mut self) {
        self.retries.push(7);
        self.events += 1;
    }
}
"#;
    let fs = workspace(&[("crates/traffic/src/engine.rs", src)]);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn d10_ignores_non_engine_files_locals_and_test_code() {
    // The same unblessed mutation outside the engine files is not
    // D10's business.
    let rogue = r#"
pub struct Core {
    done: Vec<u32>,
}
impl Core {
    fn sneaky(&mut self) {
        self.done.push(2);
    }
}
"#;
    let fs = workspace(&[("crates/sim/src/engine.rs", rogue)]);
    assert!(fs.is_empty(), "{fs:?}");

    // A local named like a ledger counter (no field `.` prefix) and
    // mutations inside engine test code are both fine.
    let src = r#"
pub struct Core {
    done: Vec<u32>,
}
impl Core {
    pub fn phase_local(&mut self) {}
    fn tally(&self) -> u64 {
        let mut rounds = 0;
        rounds += 1;
        rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn probe() {
        let mut c = Core { done: Vec::new() };
        c.done.push(3);
    }
}
"#;
    let fs = workspace(&[("crates/traffic/src/engine.rs", src)]);
    assert!(fs.is_empty(), "{fs:?}");
}

// ----------------------------------------------- rules enforced by clippy
//
// D02, D03, D04, D07, D09's ban list and D11 are clippy lints now
// (root `clippy.toml` plus `[workspace.lints.clippy]`). These tests lint
// the old rules' fixtures with clippy under the workspace's own config:
// one scratch crate, one module per test, one clippy run shared by all.

/// The samples, as `(module, source)`. Line numbers in the assertions
/// count from the first line of each source.
const CLIPPY_SAMPLES: &[(&str, &str)] = &[
    (
        "d02",
        "pub fn bad() {
    let _t = std::time::Instant::now();
    let _s = std::time::SystemTime::now();
    let _r = rand::thread_rng();
    let _h = std::thread::spawn(|| 1);
}
",
    ),
    (
        "d03",
        r#"pub fn sortit(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
pub fn sortit2(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
}
"#,
    ),
    (
        "d03_ok",
        "use std::cmp::Ordering;
#[derive(PartialEq)]
pub struct E(f64);
impl PartialOrd for E {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.0.total_cmp(&other.0))
    }
}
pub fn sortit(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}
",
    ),
    (
        "d04",
        r#"pub fn bad(x: Option<u32>) -> u32 {
    x.unwrap()
}
pub fn ok(x: Option<u32>) -> u32 {
    x.expect("caller guarantees Some")
}
"#,
    ),
    (
        "d04_test",
        r#"#[test]
fn unwrap_is_fine_in_tests() {
    let x = "1".parse::<u32>().ok();
    assert_eq!(x.unwrap(), 1);
}
"#,
    ),
    (
        "d04_or",
        "pub fn ok(x: Option<u32>, y: fn() -> u32) -> u32 {
    x.unwrap_or(0) + x.unwrap_or_default() + x.unwrap_or_else(y)
}
",
    ),
    (
        "d07",
        r#"use std::sync::Barrier;
pub fn bad(n: usize) -> u32 {
    let b = Barrier::new(n);
    let (tx, rx) = std::sync::mpsc::channel::<u32>();
    std::thread::scope(|s| {
        s.spawn(|| {
            b.wait();
            tx.send(1).expect("receiver lives");
        });
    });
    rx.recv().expect("sender sent")
}
"#,
    ),
    (
        "d07_ok",
        r#"use rayon::prelude::*;
use std::sync::{Arc, Mutex};
pub fn ok(v: &[u64]) -> u64 {
    let m = Arc::new(Mutex::new(0u64));
    let rows: Vec<u64> = v.par_iter().map(|x| x + 1).collect();
    let held = *m.lock().expect("no poisoned threads here");
    held + rows.len() as u64
}
pub fn cores() -> usize {
    #[expect(clippy::disallowed_methods, reason = "reading the core count spawns nothing")]
    std::thread::available_parallelism().map_or(1, |p| p.get())
}
"#,
    ),
    (
        "d09",
        "use rand::SeedableRng;
pub fn bad() -> u32 {
    let _rng = rand::rngs::StdRng::from_entropy();
    rand::random()
}
",
    ),
    (
        "d11",
        r#"pub fn f(x: u32) -> u32 {
    if x > 10 {
        panic!("too big");
    }
    match x {
        0 => unreachable!(),
        _ => x,
    }
}
"#,
    ),
    (
        "d11_later",
        r#"pub fn later() {
    todo!("write this")
}
pub fn never() {
    unimplemented!()
}
"#,
    ),
];

/// Stand-in for the three OS-entropy entry points of the real `rand`,
/// which the workspace's offline stub does not export.
const FAKE_RAND: &str = "pub trait SeedableRng: Sized {
    fn from_entropy() -> Self;
}
pub mod rngs {
    pub struct StdRng;
    impl crate::SeedableRng for StdRng {
        fn from_entropy() -> Self {
            StdRng
        }
    }
}
pub fn thread_rng() -> rngs::StdRng {
    rngs::StdRng
}
pub fn random<T: Default>() -> T {
    T::default()
}
";

/// What one clippy run over [`CLIPPY_SAMPLES`] reported.
struct ClippyRun {
    /// False when clippy (run with `-D warnings`) failed the build.
    success: bool,
    /// `(module, 1-based line, lint)`, sorted and deduplicated.
    hits: Vec<(String, u32, String)>,
}

/// Writes the sample crate under the test tmpdir, with the lint table
/// copied from the root manifest, and runs `cargo clippy` on it with
/// the root `clippy.toml` (once per test binary).
fn clippy_run() -> &'static ClippyRun {
    static RUN: std::sync::OnceLock<ClippyRun> = std::sync::OnceLock::new();
    RUN.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/analyze sits two levels under the workspace root");
        let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
        let lints_at = manifest
            .find("[workspace.lints.clippy]")
            .expect("root manifest declares [workspace.lints.clippy]");
        let lints = manifest[lints_at..]
            .split("\n[")
            .next()
            .expect("split yields at least one piece");

        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-samples");
        let write = |rel: &str, text: &str| {
            let path = dir.join(rel);
            fs::create_dir_all(path.parent().expect("file paths have a parent")).expect("mkdir");
            fs::write(path, text).expect("write sample file");
        };
        let rayon = root.join("stubs/rayon").display().to_string();
        write(
            "Cargo.toml",
            &format!(
                "[workspace]\n\n{lints}\n\n[package]\nname = \"clippy-samples\"\nedition = \"2021\"\n\
                 publish = false\n\n[lints]\nworkspace = true\n\n[dependencies]\n\
                 rand = {{ path = \"rand\" }}\nrayon = {{ path = {rayon:?} }}\n"
            ),
        );
        write(
            "rand/Cargo.toml",
            "[package]\nname = \"rand\"\nedition = \"2021\"\npublish = false\n",
        );
        write("rand/src/lib.rs", FAKE_RAND);
        let mut lib = String::new();
        for (module, src) in CLIPPY_SAMPLES {
            lib.push_str(&format!("pub mod {module};\n"));
            write(&format!("src/{module}.rs"), src);
        }
        write("src/lib.rs", &lib);

        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let out = Command::new(cargo)
            .args(["clippy", "--offline", "--all-targets", "--keep-going"])
            .args(["--message-format=json", "--", "-D", "warnings"])
            .current_dir(&dir)
            .env("CARGO_TARGET_DIR", dir.join("target"))
            .env("CLIPPY_CONF_DIR", root)
            .output()
            .expect("cargo clippy runs (the clippy component must be installed)");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut hits: Vec<(String, u32, String)> = stdout.lines().filter_map(parse_hit).collect();
        hits.sort();
        hits.dedup();
        let broken: Vec<_> = hits.iter().filter(|h| h.2.starts_with('E')).collect();
        assert!(broken.is_empty(), "a sample does not compile: {broken:?}");
        eprintln!("clippy over the migrated-rule samples:");
        for (module, line, lint) in &hits {
            eprintln!("  src/{module}.rs:{line}: {lint}");
        }
        ClippyRun {
            success: out.status.success(),
            hits,
        }
    })
}

/// `(module, line, lint)` from one line of cargo's JSON output, for a
/// diagnostic with a code whose first span sits in a sample module.
fn parse_hit(json: &str) -> Option<(String, u32, String)> {
    let after = |key: &str| json.find(key).map(|at| &json[at + key.len()..]);
    let lint = after("\"code\":{\"code\":\"")?;
    let lint = &lint[..lint.find('"')?];
    let file = after("\"file_name\":\"src/")?;
    let module = file[..file.find(".rs\"")?].to_string();
    let line = after("\"line_start\":")?;
    let line = line[..line.find(',')?].parse().ok()?;
    Some((module, line, lint.to_string()))
}

/// The `(line, lint)` hits clippy reported in one sample module.
fn clippy_hits(module: &str) -> Vec<(u32, String)> {
    clippy_run()
        .hits
        .iter()
        .filter(|(m, _, _)| m == module)
        .map(|(_, line, lint)| (*line, lint.clone()))
        .collect()
}

fn hits(expected: &[(u32, &str)]) -> Vec<(u32, String)> {
    expected
        .iter()
        .map(|&(l, lint)| (l, lint.to_string()))
        .collect()
}

#[test]
fn d02_flags_instant_systemtime_thread_rng_and_raw_spawn() {
    assert!(
        !clippy_run().success,
        "clippy -D warnings must fail on the samples"
    );
    let m = "clippy::disallowed_methods";
    assert_eq!(clippy_hits("d02"), hits(&[(2, m), (3, m), (4, m), (5, m)]));
}

#[test]
fn d03_flags_partial_cmp_unwrap_and_expect() {
    let m = "clippy::disallowed_methods";
    let got = clippy_hits("d03");
    assert_eq!(
        got,
        hits(&[(2, m), (2, "clippy::unwrap_used"), (5, m)]),
        "both comparators are flagged; the bare unwrap also trips unwrap_used"
    );
}

#[test]
fn d03_ignores_total_cmp_and_partial_ord_impls() {
    assert_eq!(clippy_hits("d03_ok"), hits(&[]));
}

#[test]
fn d04_flags_bare_unwrap_but_not_expect() {
    assert_eq!(clippy_hits("d04"), hits(&[(2, "clippy::unwrap_used")]));
}

#[test]
fn d04_ignores_unwrap_in_test_functions() {
    assert_eq!(clippy_hits("d04_test"), hits(&[]));
}

#[test]
fn d04_ignores_unwrap_or_variants() {
    assert_eq!(clippy_hits("d04_or"), hits(&[]));
}

#[test]
fn d07_flags_raw_threading_primitives() {
    let (m, t) = ("clippy::disallowed_methods", "clippy::disallowed_types");
    // `Barrier` twice (use + construction), `mpsc::channel`, `thread::scope`.
    assert_eq!(clippy_hits("d07"), hits(&[(1, t), (3, t), (4, m), (5, m)]));
}

#[test]
fn d07_ignores_rayon_and_honors_allow_directive() {
    // An unfulfilled `expect` would itself be reported.
    assert_eq!(clippy_hits("d07_ok"), hits(&[]));
}

#[test]
fn d09_flags_entropy_and_thread_local_rng_sources() {
    let m = "clippy::disallowed_methods";
    assert_eq!(clippy_hits("d09"), hits(&[(3, m), (4, m)]));
}

#[test]
fn d11_flags_panic_and_unreachable_in_library_code() {
    let got = clippy_hits("d11");
    assert_eq!(
        got,
        hits(&[(3, "clippy::panic"), (6, "clippy::unreachable")])
    );
}

#[test]
fn d11_flags_todo_and_unimplemented() {
    let got = clippy_hits("d11_later");
    assert_eq!(
        got,
        hits(&[(2, "clippy::todo"), (5, "clippy::unimplemented")])
    );
}
