//! SARIF 2.1.0 output, for CI inline annotations.
//!
//! Hand-rolled JSON (the crate is dependency-free). The document shape
//! is the minimum GitHub code scanning consumes: one run, the full rule
//! table on the driver (so annotations link summaries and rationale),
//! and one `result` per finding with a physical location.

use crate::json_escape as esc;
use crate::rules::{Finding, RULES};

/// Renders findings as a SARIF 2.1.0 document.
pub fn findings_to_sarif(findings: &[Finding]) -> String {
    let mut out = String::with_capacity(4096 + findings.len() * 256);
    out.push_str(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"geospan-analyze\",\n          \
         \"informationUri\": \"DESIGN.md\",\n          \"rules\": [\n",
    );
    for (i, r) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"fullDescription\": {{\"text\": \"{}\"}}, \"defaultConfiguration\": \
             {{\"level\": \"error\"}}}}{}\n",
            r.id,
            esc(r.summary),
            esc(r.rationale),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let rule_index = RULES
            .iter()
            .position(|r| r.id == f.rule)
            .unwrap_or(usize::MAX);
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": \
             {}}}}}}}]}}{}\n",
            f.rule,
            rule_index,
            esc(&format!("{} ({})", f.message, f.snippet)),
            esc(&f.path),
            f.line.max(1),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            rule: "D01",
            path: "crates/x/src/lib.rs".to_string(),
            line: 7,
            snippet: "for x in &set {".to_string(),
            message: "`for` over hash collection `set`".to_string(),
        }
    }

    #[test]
    fn sarif_document_has_schema_rules_and_results() {
        let doc = findings_to_sarif(&[finding()]);
        assert!(doc.contains("\"version\": \"2.1.0\""));
        assert!(doc.contains("\"name\": \"geospan-analyze\""));
        // Every rule in the table is on the driver.
        for r in RULES {
            assert!(doc.contains(&format!("\"id\": \"{}\"", r.id)), "{}", r.id);
        }
        assert!(doc.contains("\"ruleId\": \"D01\""));
        assert!(doc.contains("\"uri\": \"crates/x/src/lib.rs\""));
        assert!(doc.contains("\"startLine\": 7"));
        // ruleIndex points at the driver table position of D01.
        let d01 = RULES
            .iter()
            .position(|r| r.id == "D01")
            .expect("D01 listed");
        assert!(doc.contains(&format!("\"ruleIndex\": {d01}")));
    }

    #[test]
    fn empty_findings_is_still_a_valid_run() {
        let doc = findings_to_sarif(&[]);
        assert!(doc.contains("\"results\": [\n      ]"));
    }
}
