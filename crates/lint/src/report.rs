//! Human (diff-style) and machine-readable (JSON) rendering of a lint run.
//!
//! The JSON is emitted by hand — the workspace has no serde (see the
//! `[workspace.dependencies]` note in the root manifest) — as one object with
//! a stable key order, so CI can archive the report as an artifact.

use crate::rules::Finding;
use crate::waiver::Waiver;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything one run produced, ready to render.
pub struct Report {
    pub findings: Vec<Finding>,
    pub waivers_used: Vec<Waiver>,
    pub files_scanned: usize,
    /// `file -> source` for snippet rendering (relative paths).
    pub sources: BTreeMap<String, String>,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Compiler-style human rendering with the offending source line inlined.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ =
                writeln!(out, "{}:{}: error[{}]: {}", f.file, f.line, f.rule.as_str(), f.message);
            if let Some(src) = self.sources.get(&f.file) {
                if let Some(line) = src.lines().nth(f.line as usize - 1) {
                    let _ = writeln!(out, "  |\n  | {}\n  |", line.trim_end());
                }
            }
        }
        let _ = writeln!(
            out,
            "daris-lint: {} file(s) scanned, {} finding(s), {} waiver(s) in effect",
            self.files_scanned,
            self.findings.len(),
            self.waivers_used.len()
        );
        out
    }

    /// One JSON object; keys in fixed order, strings escaped by hand.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"version\": 1,");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"clean\": {},", self.clean());
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let snippet = self
                .sources
                .get(&f.file)
                .and_then(|s| s.lines().nth(f.line as usize - 1))
                .unwrap_or("")
                .trim();
            let _ = write!(
                out,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \
                 \"snippet\": \"{}\"}}",
                f.rule.as_str(),
                escape(&f.file),
                f.line,
                escape(&f.message),
                escape(snippet)
            );
            out.push_str(if i + 1 < self.findings.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"waivers\": [\n");
        for (i, w) in self.waivers_used.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"rule\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
                w.rule.as_str(),
                w.comment_line,
                escape(&w.reason)
            );
            out.push_str(if i + 1 < self.waivers_used.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        assert_eq!(escape(r#"a "b" \ c"#), r#"a \"b\" \\ c"#);
    }

    #[test]
    fn human_report_includes_snippet() {
        let mut sources = BTreeMap::new();
        sources.insert("f.rs".to_string(), "line one\nlet x = bad();\n".to_string());
        let report = Report {
            findings: vec![Finding {
                rule: RuleId::D001,
                file: "f.rs".to_string(),
                line: 2,
                message: "m".to_string(),
            }],
            waivers_used: Vec::new(),
            files_scanned: 1,
            sources,
        };
        let human = report.render_human();
        assert!(human.contains("f.rs:2: error[D001]: m"));
        assert!(human.contains("let x = bad();"));
        assert!(report.render_json().contains("\"clean\": false"));
    }
}
