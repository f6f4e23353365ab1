//! Cross-file coupling rules (D08–D10).
//!
//! These rules see the whole workspace at once, as a slice of
//! [`ParsedFile`]s, and check invariants no single file can witness:
//! the drop-cause ledger coupling (D08), seed provenance through helper
//! fns (D09), and phase confinement of engine state mutation (D10).
//! Each rule names its anchor files by workspace-relative path and
//! silently skips when the anchors are absent, so synthetic workspaces
//! in tests can opt in by using the real paths.

use crate::lexer::{Tok, TokKind};
use crate::parser::ParsedFile;
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// The file declaring `DropCause` and `DropCounts` (rule D08).
const D08_REPORT: &str = "crates/traffic/src/report.rs";
/// Files where every drop cause must have an accounting site (D08) and
/// the only files where engine shared state may be mutated (D10).
const ENGINE_FILES: &[&str] = &[
    "crates/traffic/src/engine.rs",
    "crates/traffic/src/shard.rs",
];
/// Directory whose CSV writers must column-ize every drop cause (D08).
const D08_BENCH_DIR: &str = "crates/bench/src/";

/// The canonical tick phases (DESIGN.md §11): the only roots from which
/// engine shared state may be mutated (D10).
const D10_ROOTS: &[&str] = &["phase_local", "phase_merge"];
/// Shared-state containers whose mutating calls are confined (D10).
const D10_CONTAINERS: &[&str] = &["services", "retries", "done", "queue", "store", "outboxes"];
/// Mutating methods on those containers.
const D10_MUT_METHODS: &[&str] = &[
    "push",
    "pop",
    "push_back",
    "pop_front",
    "drain",
    "clear",
    "take",
];
/// Ledger counters whose `+=`/`-=` is confined (D10). All are fields
/// (the pattern requires a preceding `.`), so same-named locals in
/// aggregation code never match.
const D10_COUNTERS: &[&str] = &[
    "rounds",
    "idle_rounds",
    "cursor",
    "events",
    "boundary_in",
    "retransmissions",
    "duplicates_suppressed",
    "enqueue_seq",
];

/// RNG constructors whose seed argument must be provably seeded (D09).
const D09_SEED_CTORS: &[&str] = &["seed_from_u64", "from_seed"];
/// Idents that never launder a seed argument (casts and int types).
const D09_BENIGN: &[&str] = &["as", "u8", "u16", "u32", "u64", "u128", "usize"];

/// Runs all cross-file rules over the parsed workspace.
pub fn check_workspace(files: &[ParsedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_d08(files, &mut findings);
    check_d09(files, &mut findings);
    check_d10(files, &mut findings);
    findings
}

fn emit(out: &mut Vec<Finding>, rule: &'static str, pf: &ParsedFile, line: u32, message: String) {
    out.push(Finding {
        rule,
        path: pf.path.clone(),
        line,
        snippet: pf.snippet(line),
        message,
    });
}

/// Converts a CamelCase variant name to its snake_case field name.
fn snake_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// True when tokens `seq` appear consecutively anywhere in `toks`,
/// optionally restricted to non-test lines.
fn has_token_seq(pf: &ParsedFile, seq: &[&str], skip_tests: bool) -> bool {
    let toks = &pf.lexed.tokens;
    toks.windows(seq.len()).any(|w| {
        w.iter().zip(seq).all(|(t, s)| t.text == *s) && !(skip_tests && pf.in_test(w[0].line))
    })
}

/// D08 — ledger-exhaustiveness coupling. Every `DropCause` variant must
/// have: a snake_case `DropCounts` field, an accounting site
/// (`DropCause::Variant`) in the engine files, a `drops.<field>` read in
/// the bench CSV writers, and coverage in every non-wildcard `match` on
/// a cause in the report file. Orphan `DropCounts` fields (no matching
/// variant) are also findings.
fn check_d08(files: &[ParsedFile], out: &mut Vec<Finding>) {
    let Some(report) = files.iter().find(|f| f.path == D08_REPORT) else {
        return;
    };
    let Some(cause) = report.enums.iter().find(|e| e.name == "DropCause") else {
        return;
    };
    let Some(counts) = report.structs.iter().find(|s| s.name == "DropCounts") else {
        return;
    };
    let engines: Vec<&ParsedFile> = files
        .iter()
        .filter(|f| ENGINE_FILES.contains(&f.path.as_str()))
        .collect();
    let bench: Vec<&ParsedFile> = files
        .iter()
        .filter(|f| f.path.starts_with(D08_BENCH_DIR))
        .collect();
    let field_names: BTreeSet<&str> = counts.fields.iter().map(|(n, _)| n.as_str()).collect();

    for (variant, vline) in &cause.variants {
        let field = snake_case(variant);
        if !field_names.contains(field.as_str()) {
            emit(
                out,
                "D08",
                report,
                *vline,
                format!(
                    "DropCause::{variant} has no `{field}` field in DropCounts: the \
                     conservation ledger (offered == delivered + drops + refused) \
                     cannot bucket this cause"
                ),
            );
        }
        if !engines.is_empty()
            && !engines
                .iter()
                .any(|f| has_token_seq(f, &["DropCause", ":", ":", variant], true))
        {
            emit(
                out,
                "D08",
                report,
                *vline,
                format!(
                    "DropCause::{variant} is never recorded in \
                     crates/traffic/src/engine.rs or shard.rs: the variant has no \
                     accounting site, so its ledger column stays zero forever"
                ),
            );
        }
        if !bench.is_empty()
            && !bench
                .iter()
                .any(|f| has_token_seq(f, &["drops", ".", &field], false))
        {
            emit(
                out,
                "D08",
                report,
                *vline,
                format!(
                    "DropCause::{variant} has no `drops.{field}` read under \
                     crates/bench/src/: the CSV writers will silently omit this \
                     cause's column"
                ),
            );
        }
    }

    // Orphan fields: a DropCounts field with no originating variant.
    let variant_fields: BTreeSet<String> =
        cause.variants.iter().map(|(v, _)| snake_case(v)).collect();
    for (field, fline) in &counts.fields {
        if !variant_fields.contains(field) {
            emit(
                out,
                "D08",
                report,
                *fline,
                format!(
                    "DropCounts field `{field}` matches no DropCause variant: \
                     dead ledger column (or a renamed variant left it behind)"
                ),
            );
        }
    }

    // Structural exhaustiveness: every match over a cause in report.rs
    // whose arms name `DropCause ::` must cover all variants or carry a
    // wildcard arm.
    for m in &report.matches {
        let mentions_cause = m.arms.iter().any(|(p, _)| p.contains("DropCause ::"));
        if !mentions_cause {
            continue;
        }
        let has_wildcard = m.arms.iter().any(|(p, _)| p.trim() == "_");
        if has_wildcard {
            continue;
        }
        for (variant, _) in &cause.variants {
            let covered = m
                .arms
                .iter()
                .any(|(p, _)| p.contains(&format!(":: {variant}")));
            if !covered {
                emit(
                    out,
                    "D08",
                    report,
                    m.line,
                    format!(
                        "match on a drop cause does not cover DropCause::{variant} \
                         and has no wildcard arm: record() would drop the count"
                    ),
                );
            }
        }
    }
}

/// D09 — RNG seed taint. `seed_from_u64` / `from_seed` arguments must
/// be a named seed (ident containing "seed"), a literal constant, or a
/// fn parameter whose every call site passes one (one level of
/// indirection). The OS-entropy entry points themselves are banned by
/// clippy's `disallowed_methods`.
fn check_d09(files: &[ParsedFile], out: &mut Vec<Finding>) {
    for pf in files {
        let toks = &pf.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            let ctor = t.kind == TokKind::Ident && D09_SEED_CTORS.contains(&t.text.as_str());
            if ctor && !pf.in_test(t.line) {
                check_seed_arg(files, pf, i, out);
            }
        }
    }
}

/// Checks the first argument of a `seed_from_u64`/`from_seed` call at
/// token index `i`.
fn check_seed_arg(files: &[ParsedFile], pf: &ParsedFile, i: usize, out: &mut Vec<Finding>) {
    let toks = &pf.lexed.tokens;
    let ctor = toks[i].text.clone();
    // Only calls: `seed_from_u64 (` — a bare mention (use item, fn
    // definition in a trait impl) is not a construction.
    if toks.get(i + 1).map(|t| t.text.as_str()) != Some("(") {
        return;
    }
    if i > 0 && toks[i - 1].text == "fn" {
        return; // defining the method, not calling it
    }
    let args = call_args(toks, i + 1);
    let Some(arg) = args.first() else {
        return; // zero-arg call: not the seeding ctor shape
    };
    if seedish(arg) {
        return;
    }
    // One level of indirection: a single-ident argument that is a
    // parameter of the enclosing fn is OK when every call site of that
    // fn passes a seedish value at the same position.
    let idents: Vec<&Tok> = arg.iter().filter(|t| t.kind == TokKind::Ident).collect();
    if let [only] = idents.as_slice() {
        if let Some(f) = pf.enclosing_fn(i) {
            if let Some(pos) = f.params.iter().position(|p| p == &only.text) {
                let sites = call_sites(files, &f.name);
                if !sites.is_empty()
                    && sites
                        .iter()
                        .all(|(_, _, args)| args.get(pos).map(|a| seedish(a)).unwrap_or(false))
                {
                    return;
                }
                let bad = sites
                    .iter()
                    .find(|(_, _, args)| !args.get(pos).map(|a| seedish(a)).unwrap_or(false));
                let detail = match bad {
                    Some((path, line, _)) => {
                        format!("call site {path}:{line} passes an unproven value")
                    }
                    None => "no call sites found to prove the flow".to_string(),
                };
                emit(
                    out,
                    "D09",
                    pf,
                    toks[i].line,
                    format!(
                        "`{ctor}` seeded from parameter `{}` of fn `{}`, but the \
                         seed flow is unproven ({detail}); rename the parameter to \
                         contain \"seed\" or pass a named seed",
                        only.text, f.name
                    ),
                );
                return;
            }
        }
    }
    emit(
        out,
        "D09",
        pf,
        toks[i].line,
        format!(
            "`{ctor}` argument is not a named seed, a literal, or a traceable \
             fn parameter: seeds must flow from configuration so runs replay"
        ),
    );
}

/// True when the token slice is an acceptable seed expression: it names
/// an ident containing "seed", or is a constant expression (literals,
/// casts, punctuation only).
fn seedish(arg: &[Tok]) -> bool {
    let mut has_literal = false;
    let mut has_other_ident = false;
    for t in arg {
        match t.kind {
            TokKind::Ident => {
                if t.text.to_ascii_lowercase().contains("seed") {
                    return true;
                }
                if !D09_BENIGN.contains(&t.text.as_str()) {
                    has_other_ident = true;
                }
            }
            TokKind::Literal => has_literal = true,
            _ => {}
        }
    }
    has_literal && !has_other_ident
}

/// Splits the argument tokens of a call whose `(` sits at `open` into
/// top-level comma-separated slices.
fn call_args(toks: &[Tok], open: usize) -> Vec<Vec<Tok>> {
    let mut args: Vec<Vec<Tok>> = Vec::new();
    let mut cur: Vec<Tok> = Vec::new();
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => {
                depth += 1;
                if depth > 1 {
                    cur.push(toks[j].clone());
                }
            }
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
                cur.push(toks[j].clone());
            }
            "," if depth == 1 => {
                args.push(std::mem::take(&mut cur));
            }
            _ => {
                if depth >= 1 {
                    cur.push(toks[j].clone());
                }
            }
        }
        j += 1;
    }
    if !cur.is_empty() {
        args.push(cur);
    }
    args
}

/// All call sites of `name` across the workspace: `(path, line, args)`.
/// Definitions (`fn name(`) are excluded.
fn call_sites(files: &[ParsedFile], name: &str) -> Vec<(String, u32, Vec<Vec<Tok>>)> {
    let mut out = Vec::new();
    for pf in files {
        let toks = &pf.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || t.text != name {
                continue;
            }
            if toks.get(i + 1).map(|t| t.text.as_str()) != Some("(") {
                continue;
            }
            if i > 0 && toks[i - 1].text == "fn" {
                continue;
            }
            out.push((pf.path.clone(), t.line, call_args(toks, i + 1)));
        }
    }
    out
}

/// D10 — phase confinement. In the engine files, mutations of shared
/// engine state (container push/pop/drain, `store[..] =`, ledger
/// counter `+=`) may only happen inside the canonical phase fns
/// (`phase_local`, `phase_merge`) or helpers reachable from them
/// through the intra-engine call graph.
fn check_d10(files: &[ParsedFile], out: &mut Vec<Finding>) {
    let scope: Vec<&ParsedFile> = files
        .iter()
        .filter(|f| ENGINE_FILES.contains(&f.path.as_str()))
        .collect();
    if scope.is_empty() {
        return;
    }
    // All fn names defined in scope, and the call graph between them.
    let mut defined: BTreeSet<&str> = BTreeSet::new();
    for pf in &scope {
        for f in &pf.fns {
            defined.insert(f.name.as_str());
        }
    }
    let mut calls: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for pf in &scope {
        let toks = &pf.lexed.tokens;
        for f in &pf.fns {
            let Some((open, close)) = f.body else {
                continue;
            };
            let callees = calls.entry(f.name.as_str()).or_default();
            for j in open..=close.min(toks.len().saturating_sub(1)) {
                let t = &toks[j];
                if t.kind == TokKind::Ident
                    && defined.contains(t.text.as_str())
                    && toks.get(j + 1).map(|u| u.text.as_str()) == Some("(")
                    && !(j > 0 && toks[j - 1].text == "fn")
                {
                    callees.insert(
                        defined
                            .get(t.text.as_str())
                            .expect("contained in the defined set"),
                    );
                }
            }
        }
    }
    // Reachability from the blessed phase roots.
    let mut blessed: BTreeSet<&str> = BTreeSet::new();
    let mut work: Vec<&str> = D10_ROOTS
        .iter()
        .filter(|r| defined.contains(**r))
        .copied()
        .collect();
    while let Some(f) = work.pop() {
        if !blessed.insert(f) {
            continue;
        }
        if let Some(callees) = calls.get(f) {
            work.extend(callees.iter().copied());
        }
    }

    for pf in &scope {
        let toks = &pf.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || pf.in_test(t.line) {
                continue;
            }
            let mutation = mutation_at(toks, i);
            let Some(what) = mutation else {
                continue;
            };
            let holder = pf.enclosing_fn(i);
            let ok = holder.is_some_and(|f| blessed.contains(f.name.as_str()));
            if !ok {
                let place = holder.map_or("outside any fn".to_string(), |f| {
                    format!("in fn `{}`", f.name)
                });
                emit(
                    out,
                    "D10",
                    pf,
                    t.line,
                    format!(
                        "{what} {place}, which is not reachable from the canonical \
                         phase fns (phase_local/phase_merge): mutations outside the \
                         four tick phases break the shard byte-identity proof"
                    ),
                );
            }
        }
    }
}

/// If token `i` starts a shared-state mutation, a short description.
fn mutation_at(toks: &[Tok], i: usize) -> Option<String> {
    let t = &toks[i];
    let name = t.text.as_str();
    // Counter increments: `.counter +=` / `-=` (field position only).
    if D10_COUNTERS.contains(&name) {
        let dotted = i > 0 && toks[i - 1].text == ".";
        let op = toks.get(i + 1).map(|u| u.text.as_str());
        let eq = toks.get(i + 2).map(|u| u.text.as_str());
        if dotted && matches!(op, Some("+") | Some("-")) && eq == Some("=") {
            return Some(format!("ledger counter `{name}` mutated"));
        }
        return None;
    }
    if !D10_CONTAINERS.contains(&name) {
        return None;
    }
    // Skip an optional index expression: `store [ .. ]`.
    let mut j = i + 1;
    let mut indexed = false;
    if toks.get(j).map(|u| u.text.as_str()) == Some("[") {
        indexed = true;
        let mut depth = 0usize;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // `store[p] = ...` (assignment, not comparison).
    if indexed
        && toks.get(j).map(|u| u.text.as_str()) == Some("=")
        && toks.get(j + 1).map(|u| u.text.as_str()) != Some("=")
    {
        return Some(format!("container `{name}[..]` assigned"));
    }
    // `.push(` / `.pop(` / `.drain(` / `.take(` ...
    if toks.get(j).map(|u| u.text.as_str()) == Some(".") {
        let m = toks.get(j + 1)?;
        if m.kind == TokKind::Ident
            && D10_MUT_METHODS.contains(&m.text.as_str())
            && toks.get(j + 2).map(|u| u.text.as_str()) == Some("(")
        {
            return Some(format!("container `{name}.{}()` mutation", m.text));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_case_handles_camel_runs() {
        assert_eq!(snake_case("Stuck"), "stuck");
        assert_eq!(snake_case("QueueFull"), "queue_full");
        assert_eq!(snake_case("NodeDeparted"), "node_departed");
    }

    #[test]
    fn seedish_accepts_named_seeds_and_literals() {
        let toks = |src: &str| crate::lexer::lex(src).tokens;
        assert!(seedish(&toks("cfg . rng_seed")));
        assert!(seedish(&toks("seed ^ 0x9e3779b9")));
        assert!(seedish(&toks("12345")));
        assert!(seedish(&toks("7 as u64")));
        assert!(!seedish(&toks("value")));
        assert!(!seedish(&toks("x + 1")));
    }
}
