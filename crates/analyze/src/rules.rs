//! The per-file lint rules (D01, D05, D06) plus directive hygiene (A00).
//!
//! Every rule is a token-pattern check over the [`crate::lexer`] output,
//! scoped by the test regions the [`crate::parser`] recovers. The
//! cross-file rules (D08–D10) live in [`crate::xrules`]. Rules that
//! clippy can express with type information (the old D02, D03, D04, D07
//! and D11, and D09's ban list) are clippy lints configured in the root
//! `clippy.toml` and `[workspace.lints]` — see DESIGN.md §13. The rules are deliberately
//! conservative heuristics: they know nothing about types, only about
//! names and shapes — which is exactly what the project's conventions
//! are written in terms of. False positives are handled by inline
//! `// geospan-analyze: allow(<rule>, reason)` directives, which require
//! a reason.

use crate::lexer::{Directive, Lexed, Tok, TokKind};
use crate::parser::{parse, ParsedFile};

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D01`..`D10`, `A00`).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The trimmed source line the finding sits on.
    pub snippet: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Rule metadata: a one-line summary for `--list-rules` and the longer
/// rationale behind `--explain <RULE>`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id (`D01`..`D10`, `A00`).
    pub id: &'static str,
    /// One-line summary of what the rule matches.
    pub summary: &'static str,
    /// Why the rule exists — the invariant it protects.
    pub rationale: &'static str,
}

/// The rule table, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "A00",
        summary: "malformed geospan-analyze directive (needs allow(<rule>, <reason>))",
        rationale: "Suppressions are part of the reviewed source: a directive that fails to \
                    parse would otherwise silently suppress nothing while looking like it \
                    does. Malformed directives are findings so typos cannot create \
                    unenforced exemptions.",
    },
    RuleInfo {
        id: "D01",
        summary: "iteration over std HashMap/HashSet in non-test code: unordered iteration \
                  makes results order-dependent; use BTreeMap/BTreeSet or sort before \
                  consuming",
        rationale: "Every artifact the workspace ships (Table-1 rows, traffic CSVs, bench \
                    JSON) is contractually byte-identical across runs. Hash iteration \
                    order changes between processes (SipHash keys), so any hash-ordered \
                    loop that feeds an output breaks the contract nondeterministically \
                    and rarely — the worst kind of bug to bisect.",
    },
    RuleInfo {
        id: "D05",
        summary: "float accumulation through a parallel iterator (sum/fold/reduce after \
                  par_iter): reduction order depends on the scheduler; fold serially in a \
                  fixed order",
        rationale: "Float addition is not associative: parallel reduction order changes \
                    the low bits, and the workspace's outputs are compared bit-for-bit \
                    across thread counts in CI. Parallelize the map, collect, then fold \
                    in index order.",
    },
    RuleInfo {
        id: "D06",
        summary: "node-id-keyed BTreeMap<usize, _>/BTreeSet<usize> in a construction \
                  crate: the hot path uses flat arenas (VecMap/VecSet from geospan-graph) \
                  with identical ascending iteration; BTree stays only where a non-usize \
                  key (pair/triple/tuple) encodes message-emission order",
        rationale: "PR 7 moved the million-node construction path to flat index-keyed \
                    arenas; a node-id-keyed BTree reintroduces pointer-chasing and \
                    per-node allocation on exactly the structures the arena refactor \
                    flattened. VecMap/VecSet iterate in the same ascending order, so the \
                    swap is behavior-preserving.",
    },
    RuleInfo {
        id: "D08",
        summary: "DropCause ledger coupling: every variant needs a DropCounts field, an \
                  accounting site in engine.rs/shard.rs, and a drops.<field> CSV column \
                  in crates/bench/src (and no orphan DropCounts fields)",
        rationale: "The conservation ledger (offered == delivered + drops.total() + \
                    refused) is the engine's ground truth, and every PR that adds a drop \
                    cause must extend three files in lockstep. A variant missing its \
                    field, accounting site, or CSV column silently under-reports drops — \
                    the ledger still balances, so no runtime check catches it. Only a \
                    cross-file structural check can.",
    },
    RuleInfo {
        id: "D09",
        summary: "RNG seed taint: seed_from_u64/from_seed arguments must be a named seed, \
                  a literal, or a fn parameter that provably receives one (one level of \
                  indirection)",
        rationale: "Bit-identical replay requires every RNG to be a pure function of \
                    configuration. An RNG seeded from OS entropy — or from a helper \
                    parameter nobody can trace back to a seed — makes a run \
                    unreproducible in a way that only shows up when someone tries to \
                    replay a failure. Seeds must be visibly named at the construction \
                    site or one hop away.",
    },
    RuleInfo {
        id: "D10",
        summary: "phase confinement: engine shared state (queues, heaps, store, ledger \
                  counters) mutated only inside phase_local/phase_merge or helpers \
                  reachable from them in engine.rs/shard.rs",
        rationale: "PR 8's shard byte-identity proof rests on the tick being exactly \
                    four canonical phases: arrivals, retries, service completions, merge. \
                    A mutation reachable from anywhere else (driver loops, aggregation, \
                    accessors) executes at a point the proof never ordered, so any shard \
                    or thread count could observe a different interleaving. The rule \
                    makes the proof's premise structural.",
    },
];

/// Crates whose construction hot path is arena-backed (rule D06). Paths
/// are workspace-relative with forward slashes; `src/` excludes the
/// `tests/` oracles, which deliberately keep the pre-refactor containers.
const D06_CRATES: &[&str] = &[
    "crates/geometry/src/",
    "crates/graph/src/",
    "crates/topology/src/",
    "crates/cds/src/",
];

/// Iterator-producing methods on hash collections (rule D01).
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Chain sinks whose result is independent of iteration order.
const ORDER_FREE_SINKS: &[&str] = &["any", "all", "count", "contains", "is_empty", "len"];

/// Parallel-iterator entry points (rule D05).
const PAR_ITER: &[&str] = &[
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_chunks",
    "par_bridge",
];

/// Order-sensitive reducers on a parallel chain (rule D05).
const PAR_REDUCERS: &[&str] = &["sum", "product", "fold", "reduce", "reduce_with"];

/// Runs every per-file rule over one file's source and returns the raw
/// findings (inline directives already applied; malformed directives
/// reported). The cross-file rules (D08–D10) need the whole workspace —
/// see [`crate::analyze_sources`].
pub fn check_source(path: &str, src: &str) -> Vec<Finding> {
    let pf = parse(path, src);
    apply_directives(check_file(&pf), &pf.lexed)
}

/// Runs the per-file rules over one parsed file. Directives are *not*
/// applied here — the caller applies them once, after the cross-file
/// rules have contributed their findings for this path.
pub fn check_file(pf: &ParsedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut emit = |rule: &'static str, line: u32, message: String| {
        findings.push(Finding {
            rule,
            path: pf.path.clone(),
            line,
            snippet: pf.snippet(line),
            message,
        });
    };

    for d in &pf.lexed.directives {
        if d.malformed {
            emit(
                "A00",
                d.line,
                "malformed directive: expected `geospan-analyze: allow(<rule>, <reason>)` \
                 with a known rule id and a non-empty reason"
                    .to_string(),
            );
        }
    }

    let toks = &pf.lexed.tokens;
    let in_test = |line: u32| pf.in_test(line);

    rule_d01(toks, &in_test, &mut emit);
    rule_d05(toks, &in_test, &mut emit);
    rule_d06(&pf.path, toks, &in_test, &mut emit);

    findings
}

/// Drops findings covered by a well-formed allow directive on the same
/// line or the directly preceding line.
pub(crate) fn apply_directives(findings: Vec<Finding>, lexed: &Lexed) -> Vec<Finding> {
    let allows: Vec<&Directive> = lexed.directives.iter().filter(|d| !d.malformed).collect();
    findings
        .into_iter()
        .filter(|f| {
            !allows
                .iter()
                .any(|d| d.rule == f.rule && (d.line == f.line || d.line + 1 == f.line))
        })
        .collect()
}

/// D01 — iteration over `HashMap`/`HashSet`.
fn rule_d01(
    toks: &[Tok],
    in_test: &dyn Fn(u32) -> bool,
    emit: &mut dyn FnMut(&'static str, u32, String),
) {
    let hashy = collect_hash_names(toks);
    if hashy.is_empty() {
        return;
    }
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            // `for <pat> in <expr> {` with a hash-typed name in the expr.
            "for" => {
                if let Some(in_pos) = find_for_in(toks, i) {
                    let mut j = in_pos + 1;
                    let mut depth = 0usize;
                    let mut hit: Option<(u32, String)> = None;
                    while j < toks.len() {
                        let u = &toks[j];
                        match u.text.as_str() {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth = depth.saturating_sub(1),
                            "{" if depth == 0 => break,
                            _ => {}
                        }
                        if u.kind == TokKind::Ident && hashy.contains(&u.text) && hit.is_none() {
                            hit = Some((u.line, u.text.clone()));
                        }
                        j += 1;
                    }
                    if let Some((line, name)) = hit {
                        if !in_test(line) {
                            emit(
                                "D01",
                                line,
                                format!(
                                    "`for` over hash collection `{name}`: iteration order is \
                                     unspecified; use BTreeMap/BTreeSet or sort first"
                                ),
                            );
                        }
                    }
                    i = j;
                    continue;
                }
            }
            // `<hashy>.iter()`-family with an order-sensitive consumer.
            name if hashy.contains(&t.text) => {
                if let Some((method, after_call)) = method_call_after(toks, i) {
                    if ITER_METHODS.contains(&method.as_str()) {
                        let line = t.line;
                        if !in_test(line) && !chain_is_order_free(toks, after_call) {
                            emit(
                                "D01",
                                line,
                                format!(
                                    "iteration over hash collection `{name}` feeds an \
                                     order-sensitive consumer; use BTreeMap/BTreeSet, sort, \
                                     or an order-free sink (any/all/count)"
                                ),
                            );
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Names declared with a `HashMap`/`HashSet` type or initializer in this
/// file (struct fields, lets, fn params — anything shaped `name :` or
/// `name =` followed by a path ending in the hash type).
fn collect_hash_names(toks: &[Tok]) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back over the path prefix (`std :: collections ::`).
        let mut j = i;
        while j >= 2 && toks[j - 1].text == ":" && toks[j - 2].text == ":" {
            if j >= 3 && toks[j - 3].kind == TokKind::Ident {
                j -= 3;
            } else {
                break;
            }
        }
        if j == 0 {
            continue;
        }
        // `name : [&]*[mut]? [Vec <]? path::HashMap` — accept a couple of
        // wrapper tokens between the colon and the path head.
        let mut k = j - 1;
        let mut steps = 0;
        while steps < 4 {
            match toks[k].text.as_str() {
                "&" | "mut" | "Vec" | "<" => {
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                    steps += 1;
                }
                _ => break,
            }
        }
        let bindish = toks[k].text == ":" || toks[k].text == "=";
        if bindish && k > 0 && toks[k - 1].kind == TokKind::Ident {
            // Skip `::` paths masquerading: `a::HashMap` handled above.
            if !(toks[k].text == ":" && k >= 2 && toks[k - 2].text == ":") {
                out.insert(toks[k - 1].text.clone());
            }
        }
    }
    out
}

/// For a `for` at `i`, the position of its depth-0 `in` (None for
/// `for<'a>` HRTBs and malformed input).
fn find_for_in(toks: &[Tok], i: usize) -> Option<usize> {
    if toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Lifetime)
        || toks.get(i + 1).map(|t| t.text.as_str()) == Some("<")
    {
        return None;
    }
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(i + 1).take(64) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "in" if depth == 0 => return Some(j),
            "{" | ";" => return None,
            _ => {}
        }
    }
    None
}

/// If `toks[i]` is followed by `.method(`, returns the method name and
/// the index just past the call's matching `)`.
fn method_call_after(toks: &[Tok], i: usize) -> Option<(String, usize)> {
    if toks.get(i + 1)?.text != "." {
        return None;
    }
    let m = toks.get(i + 2)?;
    if m.kind != TokKind::Ident || toks.get(i + 3)?.text != "(" {
        return None;
    }
    let mut depth = 1usize;
    let mut j = i + 4;
    while j < toks.len() && depth > 0 {
        match toks[j].text.as_str() {
            "(" => depth += 1,
            ")" => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    Some((m.text.clone(), j))
}

/// Walks a method chain starting at `pos` (just past a call) and decides
/// whether the eventual sink is order-independent: an order-free
/// terminal (`any`, `all`, `count`, ...) or a `collect` into a `BTree*`
/// collection.
fn chain_is_order_free(toks: &[Tok], mut pos: usize) -> bool {
    loop {
        if toks.get(pos).map(|t| t.text.as_str()) != Some(".") {
            return false;
        }
        let Some(m) = toks.get(pos + 1) else {
            return false;
        };
        if m.kind != TokKind::Ident {
            return false;
        }
        if ORDER_FREE_SINKS.contains(&m.text.as_str()) {
            return true;
        }
        if m.text == "collect" {
            // Order-free only when collecting back into an ordered or
            // unordered *set/map*, where insertion order can't leak:
            // look for BTreeSet/BTreeMap/HashSet/HashMap in the turbofish.
            for t in toks.iter().skip(pos + 2).take(8) {
                if matches!(
                    t.text.as_str(),
                    "BTreeSet" | "BTreeMap" | "HashSet" | "HashMap"
                ) {
                    return true;
                }
                if matches!(t.text.as_str(), "(" | ";") {
                    break;
                }
            }
            return false;
        }
        // Adapter (`map`, `filter`, `copied`, ...): skip its args.
        match toks.get(pos + 2).map(|t| t.text.as_str()) {
            Some("(") => {
                let mut depth = 1usize;
                let mut j = pos + 3;
                while j < toks.len() && depth > 0 {
                    match toks[j].text.as_str() {
                        "(" => depth += 1,
                        ")" => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                pos = j;
            }
            Some("::") => {
                // Turbofish on an adapter; too rare to chase. Treat as
                // order-sensitive.
                return false;
            }
            _ => return false,
        }
    }
}

/// D05 — order-sensitive reduction on a parallel iterator chain.
fn rule_d05(
    toks: &[Tok],
    in_test: &dyn Fn(u32) -> bool,
    emit: &mut dyn FnMut(&'static str, u32, String),
) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !PAR_ITER.contains(&t.text.as_str()) || in_test(t.line) {
            continue;
        }
        // Scan the rest of the statement for a reducing combinator at
        // chain position (preceded by `.`).
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < toks.len() && j < i + 200 {
            let u = &toks[j];
            match u.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < -1 {
                        break;
                    }
                }
                ";" if depth <= 0 => break,
                name if u.kind == TokKind::Ident
                    && PAR_REDUCERS.contains(&name)
                    && toks[j - 1].text == "." =>
                {
                    emit(
                        "D05",
                        u.line,
                        format!(
                            "`{name}` on a parallel iterator: float accumulation order \
                             depends on chunking; collect and fold serially in index order"
                        ),
                    );
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
}

/// D06: node-id-keyed `BTreeMap<usize, _>` / `BTreeSet<usize>` in the
/// arena-backed construction crates. Matches the literal token shapes
/// `BTreeSet < usize >` and `BTreeMap < usize ,` — the order-load-bearing
/// survivors are keyed by pairs, triples, or tuples and never match.
fn rule_d06(
    path: &str,
    toks: &[Tok],
    in_test: &dyn Fn(u32) -> bool,
    emit: &mut dyn FnMut(&'static str, u32, String),
) {
    if !D06_CRATES.iter().any(|c| path.starts_with(c)) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test(t.line) {
            continue;
        }
        let (name, closer) = match t.text.as_str() {
            "BTreeSet" => ("BTreeSet<usize>", ">"),
            "BTreeMap" => ("BTreeMap<usize, _>", ","),
            _ => continue,
        };
        let keyed_by_node_id = toks.get(i + 1).map(|u| u.text.as_str()) == Some("<")
            && toks.get(i + 2).map(|u| u.text.as_str()) == Some("usize")
            && toks.get(i + 3).map(|u| u.text.as_str()) == Some(closer);
        if keyed_by_node_id {
            emit(
                "D06",
                t.line,
                format!(
                    "`{name}` keyed by node id in a construction crate: use VecSet/VecMap \
                     from geospan-graph (same ascending iteration, flat storage)"
                ),
            );
        }
    }
}
