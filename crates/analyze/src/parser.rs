//! A lightweight structural layer over the token lexer.
//!
//! The cross-file rules (D08–D10) need more than token patterns: they
//! reason about *items* — which fn a token lives in, which variants an
//! enum declares, which arms a match covers. This module recovers that
//! item tree from the token stream with brace matching. It is not a
//! real parser: no expressions, no types, no precedence — just enough
//! shape for the rules, and resilient to anything it does not
//! understand (unknown constructs simply contribute no items).

use crate::lexer::{lex, Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// A `fn` item: name, parameter names, and the token-index span of its
/// brace-matched body (absent for trait-method signatures).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameter names in declaration order, `self` receivers excluded
    /// so positions line up with call-site arguments.
    pub params: Vec<String>,
    /// Token indices of the body's `{` and `}` (inclusive), if any.
    pub body: Option<(usize, usize)>,
}

/// An `enum` declaration with its variant names.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// `(variant name, line)` in declaration order.
    pub variants: Vec<(String, u32)>,
}

/// A `struct` declaration with its named fields (empty for tuple and
/// unit structs).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// `(field name, line)` in declaration order.
    pub fields: Vec<(String, u32)>,
}

/// A `match` expression with the raw text of each arm pattern.
#[derive(Debug, Clone)]
pub struct MatchExpr {
    /// The scrutinee tokens joined with spaces (`self . cause`).
    pub scrutinee: String,
    /// 1-based line of the `match` keyword.
    pub line: u32,
    /// `(pattern tokens joined with spaces, line)` per arm; guards are
    /// included in the pattern text.
    pub arms: Vec<(String, u32)>,
}

/// One file, lexed and structurally indexed.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The lexer output (tokens + directives).
    pub lexed: Lexed,
    /// All fn items, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// All enum declarations.
    pub enums: Vec<EnumItem>,
    /// All struct declarations.
    pub structs: Vec<StructItem>,
    /// All match expressions.
    pub matches: Vec<MatchExpr>,
    /// Lines covered by `#[test]` / `#[cfg(test)]` items.
    pub test_lines: BTreeSet<u32>,
    /// Trimmed source lines, for finding snippets.
    lines: Vec<String>,
}

impl ParsedFile {
    /// True when `line` is inside a test region.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_lines.contains(&line)
    }

    /// The trimmed source text of 1-based `line`.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .cloned()
            .unwrap_or_default()
    }

    /// The innermost fn whose body spans token index `idx`, if any.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(o, c)| o <= idx && idx <= c))
            .min_by_key(|f| f.body.map(|(o, c)| c - o).unwrap_or(usize::MAX))
    }
}

/// Lexes and structurally indexes one file.
pub fn parse(path: &str, src: &str) -> ParsedFile {
    let lexed = lex(src);
    let test_lines = test_regions(&lexed.tokens);
    let mut pf = ParsedFile {
        path: path.to_string(),
        lexed,
        fns: Vec::new(),
        enums: Vec::new(),
        structs: Vec::new(),
        matches: Vec::new(),
        test_lines,
        lines: src.lines().map(|l| l.trim().to_string()).collect(),
    };
    let toks = &pf.lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "fn" => {
                if let Some(item) = parse_fn(toks, i) {
                    pf.fns.push(item);
                }
            }
            "enum" => {
                if let Some(item) = parse_enum(toks, i) {
                    pf.enums.push(item);
                }
            }
            "struct" => {
                if let Some(item) = parse_struct(toks, i) {
                    pf.structs.push(item);
                }
            }
            "match" => {
                if let Some(item) = parse_match(toks, i) {
                    pf.matches.push(item);
                }
            }
            _ => {}
        }
        i += 1;
    }
    pf
}

/// Joins token texts with spaces, merging consecutive `:` tokens into
/// `::` so path patterns read naturally (`DropCause :: Stuck`).
fn join_tokens<'a>(parts: impl Iterator<Item = &'a str>) -> String {
    let mut out = String::new();
    for p in parts {
        if p == ":" && out.ends_with(':') {
            out.push(':');
            continue;
        }
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(p);
    }
    out
}

/// Skips a generic-parameter list starting at `<`, returning the index
/// just past the matching `>`. `->` and `=>` never decrement (`>` with
/// a `-`/`=` directly before it).
fn skip_generics(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" if j > 0 && matches!(toks[j - 1].text.as_str(), "-" | "=") => {}
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            ";" | "{" => return j, // malformed; bail before the body
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Finds the matching close brace for the `{` at `open`.
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

fn parse_fn(toks: &[Tok], kw: usize) -> Option<FnItem> {
    // `fn` in a fn-pointer type (`fn(u32) -> u32`) has no name ident.
    let name_tok = toks.get(kw + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut j = kw + 2;
    if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
        j = skip_generics(toks, j);
    }
    if toks.get(j).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    // Parameter list: idents at paren depth 1 directly followed by `:`
    // (and not part of a `::` path). `self` receivers are skipped.
    let mut params = Vec::new();
    let mut depth = 0usize;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            _ => {
                if depth == 1
                    && toks[j].kind == TokKind::Ident
                    && toks[j].text != "self"
                    && toks.get(j + 1).map(|t| t.text.as_str()) == Some(":")
                    && toks.get(j + 2).map(|t| t.text.as_str()) != Some(":")
                    && !(j > 0 && toks[j - 1].text == ":")
                {
                    params.push(toks[j].text.clone());
                }
            }
        }
        j += 1;
    }
    // Skip the return type / where clause up to the body `{` or a `;`.
    let mut body = None;
    let mut depth = 0usize;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            ">" if j > 0 && !matches!(toks[j - 1].text.as_str(), "-" | "=") => {
                depth = depth.saturating_sub(1)
            }
            ";" if depth == 0 => break,
            "{" if depth == 0 => {
                body = Some((j, match_brace(toks, j)));
                break;
            }
            _ => {}
        }
        j += 1;
    }
    Some(FnItem {
        name: name_tok.text.clone(),
        line: toks[kw].line,
        params,
        body,
    })
}

fn parse_enum(toks: &[Tok], kw: usize) -> Option<EnumItem> {
    let name_tok = toks.get(kw + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut j = kw + 2;
    if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
        j = skip_generics(toks, j);
    }
    if toks.get(j).map(|t| t.text.as_str()) != Some("{") {
        return None;
    }
    let close = match_brace(toks, j);
    let mut variants = Vec::new();
    let mut bdepth = 0usize; // brace depth relative to the enum body
    let mut pdepth = 0usize; // paren/bracket depth (payloads, attrs)
    let mut k = j;
    while k <= close {
        match toks[k].text.as_str() {
            "{" => bdepth += 1,
            "}" => bdepth = bdepth.saturating_sub(1),
            "(" | "[" => pdepth += 1,
            ")" | "]" => pdepth = pdepth.saturating_sub(1),
            _ => {
                if bdepth == 1
                    && pdepth == 0
                    && toks[k].kind == TokKind::Ident
                    && k > 0
                    && matches!(toks[k - 1].text.as_str(), "{" | "," | "]")
                {
                    variants.push((toks[k].text.clone(), toks[k].line));
                }
            }
        }
        k += 1;
    }
    Some(EnumItem {
        name: name_tok.text.clone(),
        line: toks[kw].line,
        variants,
    })
}

fn parse_struct(toks: &[Tok], kw: usize) -> Option<StructItem> {
    let name_tok = toks.get(kw + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut j = kw + 2;
    if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
        j = skip_generics(toks, j);
    }
    // Unit (`;`) and tuple (`(`) structs have no named fields.
    if toks.get(j).map(|t| t.text.as_str()) != Some("{") {
        return Some(StructItem {
            name: name_tok.text.clone(),
            line: toks[kw].line,
            fields: Vec::new(),
        });
    }
    let close = match_brace(toks, j);
    let mut fields = Vec::new();
    let mut bdepth = 0usize;
    let mut pdepth = 0usize;
    let mut k = j;
    while k <= close {
        match toks[k].text.as_str() {
            "{" => bdepth += 1,
            "}" => bdepth = bdepth.saturating_sub(1),
            "(" | "[" | "<" => pdepth += 1,
            ")" | "]" => pdepth = pdepth.saturating_sub(1),
            ">" if k > 0 && !matches!(toks[k - 1].text.as_str(), "-" | "=") => {
                pdepth = pdepth.saturating_sub(1)
            }
            _ => {
                if bdepth == 1
                    && pdepth == 0
                    && toks[k].kind == TokKind::Ident
                    && toks.get(k + 1).map(|t| t.text.as_str()) == Some(":")
                    && toks.get(k + 2).map(|t| t.text.as_str()) != Some(":")
                    && !(k > 0 && toks[k - 1].text == ":")
                {
                    fields.push((toks[k].text.clone(), toks[k].line));
                }
            }
        }
        k += 1;
    }
    Some(StructItem {
        name: name_tok.text.clone(),
        line: toks[kw].line,
        fields,
    })
}

fn parse_match(toks: &[Tok], kw: usize) -> Option<MatchExpr> {
    // Scrutinee: tokens up to the depth-0 `{` that opens the arm block.
    let mut j = kw + 1;
    let mut depth = 0usize;
    let mut scrutinee: Vec<&str> = Vec::new();
    let open = loop {
        let t = toks.get(j)?;
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "{" if depth == 0 => break j,
            ";" => return None, // `match` used as an ident-ish fragment
            _ => {}
        }
        scrutinee.push(t.text.as_str());
        j += 1;
        if j > kw + 200 {
            return None;
        }
    };
    let close = match_brace(toks, open);
    let mut arms = Vec::new();
    let mut k = open + 1;
    let mut pattern_start = k;
    let mut depth = 0usize;
    while k < close {
        match toks[k].text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => depth = depth.saturating_sub(1),
            "=" if depth == 0 && toks.get(k + 1).map(|t| t.text.as_str()) == Some(">") => {
                let pat = join_tokens(toks[pattern_start..k].iter().map(|t| t.text.as_str()));
                let line = toks
                    .get(pattern_start)
                    .map(|t| t.line)
                    .unwrap_or(toks[kw].line);
                arms.push((pat, line));
                // Skip the arm body: a block, or tokens to the next
                // depth-0 comma.
                k += 2;
                if toks.get(k).map(|t| t.text.as_str()) == Some("{") {
                    k = match_brace(toks, k) + 1;
                } else {
                    let mut bd = 0usize;
                    while k < close {
                        match toks[k].text.as_str() {
                            "{" | "(" | "[" => bd += 1,
                            "}" | ")" | "]" => bd = bd.saturating_sub(1),
                            "," if bd == 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                if toks.get(k).map(|t| t.text.as_str()) == Some(",") {
                    k += 1;
                }
                pattern_start = k;
                continue;
            }
            _ => {}
        }
        k += 1;
    }
    Some(MatchExpr {
        scrutinee: join_tokens(scrutinee.into_iter()),
        line: toks[kw].line,
        arms,
    })
}

/// Lines covered by `#[test]` / `#[cfg(test)]` attributes: find `#[...]`,
/// classify it, then extend the region over the next item — the matching
/// `}` of its first depth-0 `{`, or a `;` arriving first.
fn test_regions(toks: &[Tok]) -> BTreeSet<u32> {
    let mut test = BTreeSet::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "#" || toks.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut attr: Vec<&str> = Vec::new();
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {}
            }
            if depth > 0 {
                attr.push(toks[j].text.as_str());
            }
            j += 1;
        }
        let is_test =
            attr.first() == Some(&"test") || (attr.contains(&"cfg") && attr.contains(&"test"));
        if is_test {
            let start_line = toks[i].line;
            let mut k = j;
            let mut bdepth = 0usize;
            let mut end_line = start_line;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "{" => bdepth += 1,
                    "}" => {
                        bdepth = bdepth.saturating_sub(1);
                        if bdepth == 0 {
                            end_line = toks[k].line;
                            break;
                        }
                    }
                    ";" if bdepth == 0 => {
                        end_line = toks[k].line;
                        break;
                    }
                    _ => {}
                }
                end_line = toks[k].line;
                k += 1;
            }
            test.extend(start_line..=end_line);
        }
        i = j;
    }
    test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_items_with_params_and_bodies() {
        let src = "impl S {\n    fn helper(&mut self, seed: u64, n: usize) -> u64 {\n        seed + n as u64\n    }\n}\nfn free(x: u32) {}\nfn sig_only(y: u32);\n";
        let pf = parse("f.rs", src);
        assert_eq!(pf.fns.len(), 3);
        assert_eq!(pf.fns[0].name, "helper");
        assert_eq!(pf.fns[0].params, vec!["seed", "n"]);
        assert!(pf.fns[0].body.is_some());
        assert_eq!(pf.fns[1].params, vec!["x"]);
        assert!(pf.fns[2].body.is_none());
    }

    #[test]
    fn generic_fns_parse_past_arrow_bounds() {
        let src = "fn apply<F: Fn(u32) -> u32>(f: F, v: u32) -> u32 { f(v) }";
        let pf = parse("f.rs", src);
        assert_eq!(pf.fns.len(), 1);
        assert_eq!(pf.fns[0].params, vec!["f", "v"]);
        assert!(pf.fns[0].body.is_some());
    }

    #[test]
    fn enum_variants_skip_payload_fields() {
        let src = "pub enum DropCause {\n    Stuck,\n    #[doc = \"full\"]\n    QueueFull { cap: usize },\n    LinkLoss(u32, u32),\n}\n";
        let pf = parse("f.rs", src);
        assert_eq!(pf.enums.len(), 1);
        let names: Vec<&str> = pf.enums[0]
            .variants
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["Stuck", "QueueFull", "LinkLoss"]);
    }

    #[test]
    fn struct_fields_skip_generics_and_methods() {
        let src = "pub struct DropCounts {\n    pub stuck: usize,\n    pub map: BTreeMap<u32, Vec<u64>>,\n}\nstruct Unit;\nstruct Tuple(u32, u64);\n";
        let pf = parse("f.rs", src);
        assert_eq!(pf.structs.len(), 3);
        let names: Vec<&str> = pf.structs[0]
            .fields
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["stuck", "map"]);
        assert!(pf.structs[1].fields.is_empty());
        assert!(pf.structs[2].fields.is_empty());
    }

    #[test]
    fn match_arms_recover_patterns_and_guards() {
        let src = "fn f(c: DropCause, n: u32) -> u32 {\n    match c {\n        DropCause::Stuck if n >= 3 => 0,\n        DropCause::QueueFull => { n + 1 }\n        _ => match n { 0 => 9, _ => 10 },\n    }\n}\n";
        let pf = parse("f.rs", src);
        assert_eq!(pf.matches.len(), 2);
        let outer = &pf.matches[0];
        assert_eq!(outer.scrutinee, "c");
        assert_eq!(outer.arms.len(), 3);
        assert!(outer.arms[0].0.contains("DropCause :: Stuck"));
        assert!(outer.arms[0].0.contains("if n > = 3"));
        assert!(outer.arms[1].0.contains("QueueFull"));
        assert_eq!(pf.matches[1].arms.len(), 2);
    }

    #[test]
    fn enclosing_fn_picks_the_innermost_body() {
        let src = "fn outer() {\n    fn inner(marker: u32) { let _ = marker; }\n}\n";
        let pf = parse("f.rs", src);
        let idx = pf
            .lexed
            .tokens
            .iter()
            .position(|t| t.text == "marker" && t.line == 2)
            .expect("marker token present");
        // Use the *second* occurrence (inside inner's body).
        let idx2 = pf
            .lexed
            .tokens
            .iter()
            .enumerate()
            .skip(idx + 1)
            .find(|(_, t)| t.text == "marker")
            .map(|(i, _)| i)
            .expect("second marker");
        assert_eq!(pf.enclosing_fn(idx2).expect("inside a fn").name, "inner");
    }

    #[test]
    fn test_regions_still_found() {
        let src = "#[cfg(test)]\nmod tests {\n    fn helper() { panic!(\"test only\"); }\n}\nfn live() {}\n";
        let pf = parse("f.rs", src);
        assert!(pf.in_test(3));
        assert!(!pf.in_test(5));
        // Other cfg attributes open no test region.
        let src = "#[cfg(feature = \"invariant-checks\")]\nfn check() {\n    panic!(\"bad\");\n}\n";
        assert!(parse("f.rs", src).test_lines.is_empty());
    }
}
