//! Lexer edge cases the rule passes depend on — raw strings with hash
//! fences, nested block comments, byte/char literals vs lifetimes —
//! plus a snapshot pinning the `--format json` output schema.

use geospan_analyze::lexer::{lex, TokKind};
use geospan_analyze::{check_source, findings_to_json, Finding};

fn literals(src: &str) -> Vec<String> {
    lex(src)
        .tokens
        .into_iter()
        .filter(|t| t.kind == TokKind::Literal)
        .map(|t| t.text)
        .collect()
}

// ---------------------------------------------------------- raw strings

#[test]
fn raw_string_with_one_hash_is_a_single_literal() {
    let src = "pub fn f() -> &'static str { r#\"has \"quotes\" and \\ inside\"# }";
    let lits = literals(src);
    assert_eq!(lits.len(), 1, "{lits:?}");
    assert_eq!(lits[0], "r#\"has \"quotes\" and \\ inside\"#");
}

#[test]
fn raw_string_fence_counts_hashes_exactly() {
    // `"#` inside an `r##"…"##` string terminates nothing.
    let src = "let s = r##\"inner \"# fence does not close\"##; let t = 1;";
    let lits = literals(src);
    assert_eq!(lits.len(), 2, "{lits:?}");
    assert!(lits[0].contains("fence does not close"), "{lits:?}");
    assert_eq!(lits[1], "1");
}

#[test]
fn raw_byte_string_and_multiline_raw_string_track_lines() {
    let src = "let b = br#\"bytes\"#;\nlet s = r\"line1\nline2\";\nfn after() {}";
    let lexed = lex(src);
    let after = lexed
        .tokens
        .iter()
        .find(|t| t.text == "after")
        .expect("ident after the multi-line literal");
    assert_eq!(after.line, 4, "newlines inside raw strings must count");
}

#[test]
fn string_line_continuations_track_lines() {
    let src = "#[expect(lint, reason = \"one \\\n   two\")]\nfn after() {}";
    let lexed = lex(src);
    let after = lexed
        .tokens
        .iter()
        .find(|t| t.text == "after")
        .expect("ident after the continued literal");
    assert_eq!(after.line, 3, "a backslash-newline ends a line");
}

#[test]
fn rule_tokens_inside_raw_strings_are_inert() {
    let src = "pub fn ok(m: &HashSet<u32>) -> &'static str {\n    r#\"for x in &m {} m.iter().collect()\"#\n}\n";
    assert!(check_source("crates/core/src/f.rs", src).is_empty());
}

// ------------------------------------------------- nested block comments

#[test]
fn nested_block_comments_do_not_leak_tokens() {
    let src = "/* outer /* inner x.unwrap() */ still comment */ pub fn f() {}";
    let lexed = lex(src);
    let idents: Vec<&str> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(idents, ["pub", "fn", "f"], "{idents:?}");
}

#[test]
fn nested_block_comments_preserve_line_numbers() {
    let src = "/* a\n/* b\n*/\n*/\nfn f() {}";
    let lexed = lex(src);
    let f = lexed
        .tokens
        .iter()
        .find(|t| t.text == "fn")
        .expect("fn token");
    assert_eq!(f.line, 5);
}

// ------------------------------------------- chars, bytes, and lifetimes

#[test]
fn char_and_byte_literals_are_not_lifetimes() {
    let src = "fn f<'a>(x: &'a [u8]) -> (char, u8, &'static str) { ('}', b'{', \"s\") }";
    let lexed = lex(src);
    let lifetimes: Vec<&str> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, ["'a", "'a", "'static"], "{lifetimes:?}");
    // The unbalanced-looking brace chars live inside literals: the
    // token stream's real braces still pair up.
    let opens = lexed.tokens.iter().filter(|t| t.text == "{").count();
    let closes = lexed.tokens.iter().filter(|t| t.text == "}").count();
    assert_eq!(opens, 1);
    assert_eq!(closes, 1);
}

#[test]
fn lifetime_in_generics_followed_by_char_literal() {
    let src = "fn g<'s>(v: Vec<&'s str>) -> char { 'x' }";
    let lexed = lex(src);
    assert!(
        lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Literal && t.text == "'x'"),
        "{:?}",
        lexed.tokens
    );
    assert!(
        lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'s"),
        "{:?}",
        lexed.tokens
    );
}

// ------------------------------------------------- JSON schema snapshot

#[test]
fn json_format_schema_is_pinned_exactly() {
    // The `--format json` consumer contract: an array of objects with
    // exactly these keys, in this order. Changing the shape must break
    // this snapshot.
    let f = Finding {
        rule: "D01",
        path: "crates/x/src/lib.rs".to_string(),
        line: 7,
        snippet: "for x in &m {".to_string(),
        message: "say \"why\"".to_string(),
    };
    assert_eq!(
        findings_to_json(&[f]),
        "[\n  {\"rule\":\"D01\",\"path\":\"crates/x/src/lib.rs\",\"line\":7,\
         \"snippet\":\"for x in &m {\",\"message\":\"say \\\"why\\\"\"}\n]"
    );
    assert_eq!(findings_to_json(&[]), "[]");
}

#[test]
fn json_output_of_a_real_finding_round_trips_the_schema_keys() {
    let findings = check_source(
        "crates/x/src/lib.rs",
        "pub fn f(m: &HashSet<u32>) -> Vec<u32> { m.iter().copied().collect() }\n",
    );
    assert_eq!(findings.len(), 1);
    let json = findings_to_json(&findings);
    for key in [
        "\"rule\":",
        "\"path\":",
        "\"line\":",
        "\"snippet\":",
        "\"message\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    assert!(json.starts_with("[\n  {\"rule\":\"D01\""), "{json}");
}
