//! The committed baseline: triaged legacy findings the gate tolerates.
//!
//! Format: one tab-separated entry per line —
//!
//! ```text
//! <rule>\t<path>\t<trimmed source line>\t<reason>
//! ```
//!
//! Entries key on the *content* of the offending line, not its number,
//! so unrelated edits above a finding don't invalidate the baseline.
//! Every entry needs a reason; stale entries (matching nothing) fail
//! `--check` so suppressions can't outlive the code they excuse.

use crate::rules::Finding;

/// One parsed baseline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule id the entry suppresses.
    pub rule: String,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Trimmed source line the finding sits on.
    pub snippet: String,
    /// Why this finding is tolerated.
    pub reason: String,
}

/// A parsed baseline file.
#[derive(Debug, Default)]
pub struct Baseline {
    /// The entries, in file order.
    pub entries: Vec<BaselineEntry>,
}

/// The outcome of filtering findings through a baseline.
#[derive(Debug)]
pub struct BaselineResult {
    /// Findings not covered by any entry.
    pub unsuppressed: Vec<Finding>,
    /// Number of findings the baseline absorbed.
    pub suppressed: usize,
    /// Entries that matched nothing (stale — an error under `--check`).
    pub stale: Vec<BaselineEntry>,
}

impl Baseline {
    /// Parses baseline text. Blank lines and `#` comments are ignored.
    ///
    /// # Errors
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = Vec::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.splitn(4, '\t').collect();
            if parts.len() != 4 || parts.iter().any(|p| p.trim().is_empty()) {
                return Err(format!(
                    "baseline line {}: expected `rule<TAB>path<TAB>snippet<TAB>reason`",
                    no + 1
                ));
            }
            entries.push(BaselineEntry {
                rule: parts[0].trim().to_string(),
                path: parts[1].trim().to_string(),
                snippet: parts[2].trim().to_string(),
                reason: parts[3].trim().to_string(),
            });
        }
        Ok(Baseline { entries })
    }

    /// Splits findings into suppressed / unsuppressed and reports stale
    /// entries.
    pub fn apply(&self, findings: Vec<Finding>) -> BaselineResult {
        let mut used = vec![false; self.entries.len()];
        let mut unsuppressed = Vec::new();
        let mut suppressed = 0usize;
        for f in findings {
            let hit = self
                .entries
                .iter()
                .position(|e| e.rule == f.rule && e.path == f.path && e.snippet == f.snippet);
            match hit {
                Some(k) => {
                    used[k] = true;
                    suppressed += 1;
                }
                None => unsuppressed.push(f),
            }
        }
        let stale = self
            .entries
            .iter()
            .zip(&used)
            .filter(|(_, &u)| !u)
            .map(|(e, _)| e.clone())
            .collect();
        BaselineResult {
            unsuppressed,
            suppressed,
            stale,
        }
    }

    /// Renders existing entries back to baseline text, preserving their
    /// reasons and order (for `--prune-baseline`).
    pub fn render_entries(entries: &[BaselineEntry]) -> String {
        let mut out = String::from(
            "# geospan-analyze baseline: triaged legacy findings.\n\
             # Format: rule<TAB>path<TAB>trimmed source line<TAB>reason\n",
        );
        for e in entries {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                e.rule, e.path, e.snippet, e.reason
            ));
        }
        out
    }

    /// Renders findings as baseline text (for `--write-baseline`).
    pub fn render(findings: &[Finding], reason: &str) -> String {
        let mut out = String::from(
            "# geospan-analyze baseline: triaged legacy findings.\n\
             # Format: rule<TAB>path<TAB>trimmed source line<TAB>reason\n",
        );
        let mut seen = std::collections::BTreeSet::new();
        for f in findings {
            if seen.insert((f.rule, f.path.clone(), f.snippet.clone())) {
                out.push_str(&format!(
                    "{}\t{}\t{}\t{}\n",
                    f.rule, f.path, f.snippet, reason
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, snippet: &str) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line: 1,
            snippet: snippet.to_string(),
            message: String::new(),
        }
    }

    #[test]
    fn baseline_suppresses_exactly_matching_findings() {
        let bl = Baseline::parse("D01\tsrc/a.rs\tfor x in &set {\ttriaged\n").unwrap();
        let res = bl.apply(vec![
            finding("D01", "src/a.rs", "for x in &set {"),
            finding("D01", "src/b.rs", "for x in &set {"),
            finding("D05", "src/a.rs", "for x in &set {"),
        ]);
        assert_eq!(res.suppressed, 1);
        assert_eq!(res.unsuppressed.len(), 2);
        assert!(res.stale.is_empty());
    }

    #[test]
    fn stale_entries_are_reported() {
        let bl = Baseline::parse("D01\tsrc/a.rs\tgone line\twas triaged\n").unwrap();
        let res = bl.apply(vec![]);
        assert_eq!(res.stale.len(), 1);
        assert_eq!(res.stale[0].snippet, "gone line");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Baseline::parse("D01\tsrc/a.rs\tmissing reason\n").is_err());
        assert!(Baseline::parse("D01 src/a.rs spaces not tabs reason\n").is_err());
        // Comments and blanks are fine.
        assert!(Baseline::parse("# comment\n\n").unwrap().entries.is_empty());
    }

    #[test]
    fn render_entries_round_trips_through_parse() {
        let text = "D01\tsrc/a.rs\tfor x in &set {\titeration feeds a sort\n";
        let bl = Baseline::parse(text).expect("valid baseline");
        let rendered = Baseline::render_entries(&bl.entries);
        let reparsed = Baseline::parse(&rendered).expect("rendered baseline parses");
        assert_eq!(reparsed.entries, bl.entries);
    }

    #[test]
    fn one_entry_covers_repeated_identical_lines() {
        let bl = Baseline::parse("D01\tsrc/a.rs\tfor x in &set {\tlegacy\n").unwrap();
        let res = bl.apply(vec![
            finding("D01", "src/a.rs", "for x in &set {"),
            finding("D01", "src/a.rs", "for x in &set {"),
        ]);
        assert_eq!(res.suppressed, 2);
        assert!(res.unsuppressed.is_empty());
    }
}
