//! A small token-level lexer for Rust source.
//!
//! The linter needs just enough structure to reason about identifiers,
//! punctuation, and brace nesting while *never* being confused by the
//! contents of strings or comments. Full parsing (`syn`) is deliberately
//! out of scope: the workspace builds offline and the rules below are
//! token-pattern rules.
//!
//! Comments are not discarded: `// geospan-analyze: allow(...)`
//! directives are extracted during the scan (see [`Directive`]).

/// The coarse classification of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`for`, `HashMap`, `unwrap`, ...).
    Ident,
    /// A single punctuation character (`{`, `.`, `<`, ...).
    Punct,
    /// String / char / numeric literal (text is the raw source slice,
    /// so rule passes can inspect e.g. `cfg(feature = "...")` strings).
    Literal,
    /// A lifetime token (`'a`) — distinguished from char literals.
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Token text (for literals, the raw source slice).
    pub text: String,
    /// 1-based line number.
    pub line: u32,
}

/// An inline suppression parsed from a `geospan-analyze:` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// Rule id the directive allows (e.g. `"D01"`), upper-cased.
    pub rule: String,
    /// The stated reason (must be non-empty for the directive to count).
    pub reason: String,
    /// 1-based line the comment sits on.
    pub line: u32,
    /// True when the directive could not be parsed (missing rule or
    /// reason); malformed directives are themselves reported (rule A00).
    pub malformed: bool,
}

/// The full result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream (comments and whitespace removed).
    pub tokens: Vec<Tok>,
    /// All `geospan-analyze:` directives found in comments.
    pub directives: Vec<Directive>,
}

const DIRECTIVE_TAG: &str = "geospan-analyze:";

/// Lexes Rust source into tokens + directives.
///
/// Handles line and (nested) block comments, plain and raw strings,
/// char literals vs lifetimes, and numeric literals. Anything it cannot
/// classify is emitted as single-character punctuation, which is all the
/// rules need.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map_or(b.len(), |p| i + p);
                // Doc comments (`///`, `//!`) can *mention* the directive
                // syntax without carrying directives.
                let text = &src[i..end];
                if !text.starts_with("///") && !text.starts_with("//!") {
                    scan_directive(text, line, &mut out.directives);
                }
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start_line = line;
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let text = &src[i..j.min(b.len())];
                if !text.starts_with("/**") && !text.starts_with("/*!") {
                    scan_directive(text, start_line, &mut out.directives);
                }
                i = j;
            }
            b'r' if starts_raw_string(b, i) => {
                let (end, newlines) = skip_raw_string(b, i);
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: src[i..end.min(b.len())].to_string(),
                    line,
                });
                line += newlines;
                i = end;
            }
            b'b' if i + 1 < b.len() && b[i + 1] == b'"' => {
                let (end, newlines) = skip_string(b, i + 1);
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: src[i..end.min(b.len())].to_string(),
                    line,
                });
                line += newlines;
                i = end;
            }
            b'"' => {
                let (end, newlines) = skip_string(b, i);
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: src[i..end.min(b.len())].to_string(),
                    line,
                });
                line += newlines;
                i = end;
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                if is_lifetime(b, i) {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[i..j].to_string(),
                        line,
                    });
                    i = j;
                } else {
                    let end = skip_char_literal(b, i);
                    out.tokens.push(Tok {
                        kind: TokKind::Literal,
                        text: src[i..end.min(b.len())].to_string(),
                        line,
                    });
                    i = end;
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_' || b[j] == b'.')
                {
                    // `1..=3` range: stop before the second dot.
                    if b[j] == b'.' && j + 1 < b.len() && b[j + 1] == b'.' {
                        break;
                    }
                    j += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
            }
            _ => {
                out.tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Parses `geospan-analyze: allow(RULE, reason...)` out of a comment.
fn scan_directive(comment: &str, line: u32, out: &mut Vec<Directive>) {
    let Some(pos) = comment.find(DIRECTIVE_TAG) else {
        return;
    };
    let rest = comment[pos + DIRECTIVE_TAG.len()..].trim();
    let malformed = |out: &mut Vec<Directive>| {
        out.push(Directive {
            rule: String::new(),
            reason: String::new(),
            line,
            malformed: true,
        });
    };
    let Some(args) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.rfind(')').map(|p| &r[..p]))
    else {
        return malformed(out);
    };
    let Some((rule, reason)) = args.split_once(',') else {
        return malformed(out);
    };
    let rule = rule.trim().to_ascii_uppercase();
    let reason = reason.trim().to_string();
    let rule_ok = rule.len() == 3
        && rule.starts_with(['D', 'A'])
        && rule[1..].bytes().all(|c| c.is_ascii_digit());
    if !rule_ok || reason.is_empty() {
        return malformed(out);
    }
    out.push(Directive {
        rule,
        reason,
        line,
        malformed: false,
    });
}

fn starts_raw_string(b: &[u8], i: usize) -> bool {
    let mut j = i + 1;
    if j < b.len() && b[j] == b'b' {
        j += 1;
    }
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"' && j > i // at least r" or r#"
}

fn skip_raw_string(b: &[u8], i: usize) -> (usize, u32) {
    let mut j = i + 1;
    if j < b.len() && b[j] == b'b' {
        j += 1;
    }
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    let mut newlines = 0u32;
    while j < b.len() {
        if b[j] == b'\n' {
            newlines += 1;
            j += 1;
            continue;
        }
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut h = 0usize;
            while k < b.len() && b[k] == b'#' && h < hashes {
                h += 1;
                k += 1;
            }
            if h == hashes {
                return (k, newlines);
            }
        }
        j += 1;
    }
    (b.len(), newlines)
}

fn skip_string(b: &[u8], open: usize) -> (usize, u32) {
    let mut j = open + 1;
    let mut newlines = 0u32;
    while j < b.len() {
        match b[j] {
            b'\\' => {
                // A `\` line continuation still ends a source line.
                newlines += u32::from(b.get(j + 1) == Some(&b'\n'));
                j += 2;
            }
            b'\n' => {
                newlines += 1;
                j += 1;
            }
            b'"' => return (j + 1, newlines),
            _ => j += 1,
        }
    }
    (b.len(), newlines)
}

fn is_lifetime(b: &[u8], i: usize) -> bool {
    // 'x is a lifetime unless followed by a closing quote ('x').
    let Some(&first) = b.get(i + 1) else {
        return false;
    };
    if first == b'\\' {
        return false;
    }
    if !(first.is_ascii_alphabetic() || first == b'_') {
        return false;
    }
    // `'static`, `'a` — lifetime when the char after the ident run is
    // not a closing quote.
    let mut j = i + 2;
    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
        j += 1;
    }
    b.get(j) != Some(&b'\'')
}

fn skip_char_literal(b: &[u8], open: usize) -> usize {
    let mut j = open + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            b'\n' => return j, // malformed; bail at the line end
            _ => j += 1,
        }
    }
    b.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let src = r##"
            // HashMap in a comment
            /* Instant::now() in a block /* nested */ comment */
            let s = "HashMap::new()";
            let r = r#"thread_rng"#;
            let c = 'H';
            fn real() {}
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"thread_rng".to_string()));
        assert!(ids.contains(&"real".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x';";
        let lx = lex(src);
        let lifetimes: Vec<_> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3);
        assert!(lx
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Literal && t.text == "'x'"));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"x\ny\";\nlet b = 1;";
        let lx = lex(src);
        let b = lx.tokens.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn directives_parse_rule_and_reason() {
        let src = "// geospan-analyze: allow(D01, iteration feeds a sort)\nlet x = 1;";
        let lx = lex(src);
        assert_eq!(lx.directives.len(), 1);
        let d = &lx.directives[0];
        assert!(!d.malformed);
        assert_eq!(d.rule, "D01");
        assert_eq!(d.reason, "iteration feeds a sort");
        assert_eq!(d.line, 1);
    }

    #[test]
    fn directive_without_reason_is_malformed() {
        for bad in [
            "// geospan-analyze: allow(D01)",
            "// geospan-analyze: allow(D01, )",
            "// geospan-analyze: allow(X99, because)",
            "// geospan-analyze: permit(D01, because)",
        ] {
            let lx = lex(bad);
            assert_eq!(lx.directives.len(), 1, "{bad}");
            assert!(lx.directives[0].malformed, "{bad}");
        }
    }
}
