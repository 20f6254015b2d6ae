//! Findings and the `LINT_report.json` serialization: a fixed-layout
//! emitter and a reader, both on `mbr_obs::json`, so the report can be
//! round-tripped in tests and consumed by CI.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mbr_obs::json::{self, Value};

use crate::rules::Rule;

/// How severe a finding is. Errors fail the run; warnings do not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint run (exit code 1).
    Error,
    /// Reported but non-fatal (unused suppressions, stale baseline rows).
    Warning,
}

impl Severity {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One lint finding at a source location.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// The rule that fired; `None` for findings about the lint machinery
    /// itself (e.g. a malformed suppression directive).
    pub rule: Option<Rule>,
    /// Error or warning.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (0 when the finding is not tied to a line).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// A complete lint report: findings plus the P1 per-file site counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Unsuppressed `.unwrap()`/`.expect(` sites per file.
    pub p1_counts: BTreeMap<String, u32>,
}

impl Report {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    /// Total P1 sites across the workspace.
    pub fn p1_total(&self) -> u32 {
        self.p1_counts.values().sum()
    }

    /// Renders the human-readable report (one line per finding, then a
    /// summary).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let rule = f.rule.map_or("lint", Rule::id);
            let _ = writeln!(
                out,
                "{}: [{}] {}:{}: {}",
                f.severity.name(),
                rule,
                f.file,
                f.line,
                f.message
            );
        }
        let _ = writeln!(
            out,
            "mbr-lint: {} error(s), {} warning(s), {} P1 site(s) in {} file(s)",
            self.errors(),
            self.warnings(),
            self.p1_total(),
            self.p1_counts.len()
        );
        out
    }

    /// Serializes the report as JSON (the `LINT_report.json` artifact).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"tool\": \"mbr-lint\",\n");
        let _ = writeln!(s, "  \"errors\": {},", self.errors());
        let _ = writeln!(s, "  \"warnings\": {},", self.warnings());
        let _ = writeln!(s, "  \"p1_total\": {},", self.p1_total());
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\"rule\": ");
            match f.rule {
                Some(r) => {
                    s.push('"');
                    s.push_str(r.id());
                    s.push('"');
                }
                None => s.push_str("null"),
            }
            let _ = write!(s, ", \"severity\": \"{}\", \"file\": ", f.severity.name());
            json::write_str(&mut s, &f.file);
            let _ = write!(s, ", \"line\": {}, \"message\": ", f.line);
            json::write_str(&mut s, &f.message);
            s.push('}');
        }
        s.push_str("\n  ],\n  \"p1\": [");
        for (i, (file, count)) in self.p1_counts.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\"file\": ");
            json::write_str(&mut s, file);
            let _ = write!(s, ", \"count\": {count}}}");
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Parses a report back from its JSON form (used by the round-trip
    /// self-test and by tooling that post-processes the artifact).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed construct.
    pub fn from_json(src: &str) -> Result<Report, String> {
        let value = json::parse(src).map_err(|e| e.to_string())?;
        value.as_object().ok_or("top level is not an object")?;
        let as_u32 = |v: &Value| v.as_u64().and_then(|n| u32::try_from(n).ok());
        let mut report = Report::default();
        let findings = value
            .get("findings")
            .and_then(Value::as_array)
            .ok_or("missing `findings` array")?;
        for f in findings {
            f.as_object().ok_or("finding is not an object")?;
            let rule = match f.get("rule") {
                Some(Value::Null) | None => None,
                Some(Value::Str(s)) => {
                    Some(Rule::from_id(s).ok_or_else(|| format!("unknown rule `{s}`"))?)
                }
                Some(_) => return Err("`rule` is neither string nor null".into()),
            };
            let severity = match f.get("severity").and_then(Value::as_str) {
                Some("error") => Severity::Error,
                Some("warning") => Severity::Warning,
                other => return Err(format!("bad severity {other:?}")),
            };
            report.findings.push(Finding {
                rule,
                severity,
                file: f
                    .get("file")
                    .and_then(Value::as_str)
                    .ok_or("finding without `file`")?
                    .to_string(),
                line: f.get("line").and_then(as_u32).ok_or("bad `line`")?,
                message: f
                    .get("message")
                    .and_then(Value::as_str)
                    .ok_or("finding without `message`")?
                    .to_string(),
            });
        }
        let p1 = value
            .get("p1")
            .and_then(Value::as_array)
            .ok_or("missing `p1` array")?;
        for row in p1 {
            row.as_object().ok_or("p1 row is not an object")?;
            let file = row
                .get("file")
                .and_then(Value::as_str)
                .ok_or("p1 row without `file`")?;
            let count = row.get("count").and_then(as_u32).ok_or("bad p1 `count`")?;
            report.p1_counts.insert(file.to_string(), count);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            findings: vec![
                Finding {
                    rule: Some(Rule::D1),
                    severity: Severity::Error,
                    file: "crates/core/src/compat.rs".into(),
                    line: 42,
                    message: "`HashMap` with \"quotes\", a \\ backslash\nand a newline".into(),
                },
                Finding {
                    rule: None,
                    severity: Severity::Warning,
                    file: "crates/lp/src/solver.rs".into(),
                    line: 7,
                    message: "unused suppression".into(),
                },
            ],
            p1_counts: BTreeMap::from([
                ("crates/netlist/src/edit.rs".into(), 12),
                ("crates/liberty/src/builder.rs".into(), 3),
            ]),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample();
        let json = report.to_json();
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back, report);
        // And an empty report round-trips too.
        let empty = Report::default();
        assert_eq!(Report::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn json_artifact_bytes_are_pinned() {
        assert_eq!(
            sample().to_json(),
            r#"{
  "tool": "mbr-lint",
  "errors": 1,
  "warnings": 1,
  "p1_total": 15,
  "findings": [
    {"rule": "D1", "severity": "error", "file": "crates/core/src/compat.rs", "line": 42, "message": "`HashMap` with \"quotes\", a \\ backslash\nand a newline"},
    {"rule": null, "severity": "warning", "file": "crates/lp/src/solver.rs", "line": 7, "message": "unused suppression"}
  ],
  "p1": [
    {"file": "crates/liberty/src/builder.rs", "count": 3},
    {"file": "crates/netlist/src/edit.rs", "count": 12}
  ]
}
"#
        );
        assert_eq!(
            Report::default().to_json(),
            "{\n  \"tool\": \"mbr-lint\",\n  \"errors\": 0,\n  \"warnings\": 0,\n  \"p1_total\": 0,\n  \
             \"findings\": [\n  ],\n  \"p1\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn summary_counts() {
        let r = sample();
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert_eq!(r.p1_total(), 15);
        let human = r.render_human();
        assert!(human.contains("error: [D1] crates/core/src/compat.rs:42:"));
        assert!(human.contains("1 error(s), 1 warning(s), 15 P1 site(s) in 2 file(s)"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Report::from_json("{").is_err());
        assert!(Report::from_json("[]").is_err());
        assert!(Report::from_json("{\"findings\": [], \"p1\": []} trailing").is_err());
    }
}
