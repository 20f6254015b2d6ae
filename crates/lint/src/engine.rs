//! The per-file rule passes (D1, D2, D3, P1) and suppression accounting.
//!
//! The cross-file rules O1/O2 live in [`crate::xref`]; this module drives
//! them and merges everything into one finding list.

use std::collections::{BTreeMap, BTreeSet};

use crate::report::{Finding, Severity};
use crate::rules::Rule;
use crate::source::{Analyzed, Role, Workspace};
use crate::xref;

/// Crates whose iteration order can reach a flow result: D1 applies here.
pub const RESULT_AFFECTING: [&str; 7] = ["core", "cts", "geom", "graph", "lp", "place", "sta"];

/// Crates allowed to touch the wall clock directly: the `mbr-obs` `Clock`
/// abstraction itself and the testkit bench harness that wraps it.
pub const D2_ALLOW: [&str; 2] = ["obs", "testkit"];

/// The one crate allowed to create OS threads.
pub const D3_ALLOW: [&str; 1] = ["par"];

/// What the engine produced for one run.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// All findings except P1 site counts, sorted by (file, line, rule id).
    pub findings: Vec<Finding>,
    /// P1: unsuppressed `.unwrap()`/`.expect(` sites per file (files with
    /// zero sites are absent). Compared against the committed baseline by
    /// [`crate::baseline`].
    pub p1_counts: BTreeMap<String, u32>,
}

/// Runs every enabled rule over the workspace.
pub fn analyze(ws: &Workspace, enabled: &BTreeSet<Rule>) -> Analysis {
    let analyzed: Vec<Analyzed> = ws.files.iter().map(Analyzed::new).collect();
    let mut findings = Vec::new();
    let mut p1_counts = BTreeMap::new();

    for file in &analyzed {
        // A suppression that cannot be parsed is itself an error: a typo'd
        // rule id must never silently disable a rule.
        for bad in &file.bad_suppressions {
            findings.push(Finding {
                rule: None,
                severity: Severity::Error,
                file: file.path.clone(),
                line: bad.line,
                message: bad.message.clone(),
            });
        }

        let mut used = BTreeSet::new();
        check_d1(file, enabled, &mut findings, &mut used);
        check_d2(file, enabled, &mut findings, &mut used);
        check_d3(file, enabled, &mut findings, &mut used);
        check_p1(file, enabled, &mut p1_counts, &mut used);

        for (idx, sup) in file.suppressions.iter().enumerate() {
            if enabled.contains(&sup.rule) && !used.contains(&idx) {
                findings.push(Finding {
                    rule: Some(sup.rule),
                    severity: Severity::Warning,
                    file: file.path.clone(),
                    line: sup.line,
                    message: format!(
                        "unused suppression: no {} finding on this line (reason was: {})",
                        sup.rule, sup.reason
                    ),
                });
            }
        }
    }

    if enabled.contains(&Rule::O1) {
        xref::check_o1(&analyzed, &mut findings);
    }
    if enabled.contains(&Rule::O2) {
        xref::check_o2(&analyzed, &mut findings);
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.map(Rule::id)).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule.map(Rule::id),
        ))
    });
    Analysis {
        findings,
        p1_counts,
    }
}

/// Emits one finding unless a suppression covers it (then records the
/// suppression as used).
fn emit(
    file: &Analyzed,
    rule: Rule,
    line: u32,
    message: String,
    findings: &mut Vec<Finding>,
    used: &mut BTreeSet<usize>,
) {
    if let Some(idx) = file.suppression_for(rule, line) {
        used.insert(idx);
        return;
    }
    findings.push(Finding {
        rule: Some(rule),
        severity: Severity::Error,
        file: file.path.clone(),
        line,
        message,
    });
}

fn check_d1(
    file: &Analyzed,
    enabled: &BTreeSet<Rule>,
    findings: &mut Vec<Finding>,
    used: &mut BTreeSet<usize>,
) {
    if !enabled.contains(&Rule::D1)
        || file.role != Role::Lib
        || !RESULT_AFFECTING.contains(&file.krate.as_str())
    {
        return;
    }
    for (i, t) in file.scan.tokens.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            emit(
                file,
                Rule::D1,
                t.line,
                format!(
                    "`{}` in result-affecting crate `{}`: iteration order is unspecified; \
                     use BTreeMap/BTreeSet or suppress a membership-only use with \
                     `// mbr-lint: allow(D1, reason)`",
                    t.text, file.krate
                ),
                findings,
                used,
            );
        }
    }
}

/// Matches `<first> :: <second>` in the token stream starting at `i`.
fn path2(file: &Analyzed, i: usize, first: &str, seconds: &[&str]) -> bool {
    let toks = &file.scan.tokens;
    toks[i].is_ident(first)
        && i + 3 < toks.len()
        && toks[i + 1].is_punct(':')
        && toks[i + 2].is_punct(':')
        && seconds.iter().any(|s| toks[i + 3].is_ident(s))
}

fn check_d2(
    file: &Analyzed,
    enabled: &BTreeSet<Rule>,
    findings: &mut Vec<Finding>,
    used: &mut BTreeSet<usize>,
) {
    if !enabled.contains(&Rule::D2)
        || file.role != Role::Lib
        || D2_ALLOW.contains(&file.krate.as_str())
    {
        return;
    }
    for (i, t) in file.scan.tokens.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let hit = if t.is_ident("SystemTime") {
            Some("SystemTime")
        } else if path2(file, i, "Instant", &["now"]) {
            Some("Instant::now")
        } else {
            None
        };
        if let Some(what) = hit {
            emit(
                file,
                Rule::D2,
                t.line,
                format!(
                    "wall-clock access `{what}` outside the mbr-obs Clock abstraction; \
                     read time via `mbr_obs::now_ns()` / an injected `Clock` so MockClock \
                     tests can cover this path"
                ),
                findings,
                used,
            );
        }
    }
}

fn check_d3(
    file: &Analyzed,
    enabled: &BTreeSet<Rule>,
    findings: &mut Vec<Finding>,
    used: &mut BTreeSet<usize>,
) {
    if !enabled.contains(&Rule::D3)
        || file.role != Role::Lib
        || D3_ALLOW.contains(&file.krate.as_str())
    {
        return;
    }
    for (i, t) in file.scan.tokens.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        if path2(file, i, "thread", &["spawn", "scope", "Builder"]) {
            emit(
                file,
                Rule::D3,
                t.line,
                format!(
                    "thread creation outside mbr-par (crate `{}`): all parallelism must \
                     flow through the deterministic executor",
                    file.krate
                ),
                findings,
                used,
            );
        }
    }
}

fn check_p1(
    file: &Analyzed,
    enabled: &BTreeSet<Rule>,
    p1_counts: &mut BTreeMap<String, u32>,
    used: &mut BTreeSet<usize>,
) {
    if !enabled.contains(&Rule::P1) || file.role != Role::Lib {
        return;
    }
    let toks = &file.scan.tokens;
    for i in 0..toks.len() {
        if file.in_test[i] || !toks[i].is_punct('.') {
            continue;
        }
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        if (next.is_ident("unwrap") || next.is_ident("expect"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            if let Some(idx) = file.suppression_for(Rule::P1, next.line) {
                used.insert(idx);
            } else {
                *p1_counts.entry(file.path.clone()).or_insert(0) += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_rules() -> BTreeSet<Rule> {
        Rule::ALL.into_iter().collect()
    }

    fn run(files: Vec<(&str, &str)>) -> Analysis {
        analyze(&Workspace::from_files(files), &all_rules())
    }

    fn rule_lines(a: &Analysis, rule: Rule) -> Vec<u32> {
        a.findings
            .iter()
            .filter(|f| f.rule == Some(rule) && f.severity == Severity::Error)
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn d1_fires_only_in_result_affecting_lib_code() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let a = run(vec![("crates/core/src/x.rs", src)]);
        assert_eq!(rule_lines(&a, Rule::D1), [1, 2, 2]);
        // Same text in a non-result-affecting crate, in test code, or in a
        // tests/ file: clean.
        let a = run(vec![
            ("crates/netlist/src/x.rs", src),
            ("crates/core/tests/x.rs", src),
            (
                "crates/core/src/t.rs",
                "#[cfg(test)]\nmod tests { use std::collections::HashSet; }\n",
            ),
        ]);
        assert_eq!(rule_lines(&a, Rule::D1), []);
    }

    #[test]
    fn d1_suppression_consumes_and_unused_warns() {
        let a = run(vec![(
            "crates/core/src/x.rs",
            "use std::collections::HashMap; // mbr-lint: allow(D1, membership-only cache)\n\
             // mbr-lint: allow(D1, covers next line)\n\
             fn f(m: &HashMap<u32, u32>) {}\n\
             // mbr-lint: allow(D1, nothing here fires)\n\
             fn g() {}\n",
        )]);
        assert_eq!(rule_lines(&a, Rule::D1), []);
        let warns: Vec<u32> = a
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Warning && f.rule == Some(Rule::D1))
            .map(|f| f.line)
            .collect();
        assert_eq!(warns, [4]);
    }

    #[test]
    fn d2_fires_outside_allowlist() {
        let src = "use std::time::Instant;\nfn f() -> u64 { let t = Instant::now(); t.elapsed().as_nanos() as u64 }\n";
        let a = run(vec![("crates/bench/src/bin/calibrate.rs", src)]);
        assert_eq!(rule_lines(&a, Rule::D2), [2]);
        let a = run(vec![
            ("crates/obs/src/clock.rs", src),
            ("crates/testkit/src/bench.rs", src),
        ]);
        assert_eq!(rule_lines(&a, Rule::D2), []);
        let a = run(vec![(
            "crates/core/src/x.rs",
            "fn f() { let _ = SystemTime::now(); }\n",
        )]);
        assert_eq!(rule_lines(&a, Rule::D2), [1]);
    }

    #[test]
    fn d3_fires_outside_par() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let a = run(vec![("crates/obs/src/task.rs", src)]);
        assert_eq!(rule_lines(&a, Rule::D3), [1]);
        let a = run(vec![
            ("crates/par/src/lib.rs", src),
            (
                "crates/obs/src/t.rs",
                "#[cfg(test)]\nmod tests { fn t() { std::thread::scope(|s| {}); } }\n",
            ),
        ]);
        assert_eq!(rule_lines(&a, Rule::D3), []);
    }

    #[test]
    fn p1_counts_lib_sites_only() {
        let a = run(vec![
            (
                "crates/netlist/src/x.rs",
                "fn f(o: Option<u32>) -> u32 { o.unwrap() + o.expect(\"set\") }\n\
                 // mbr-lint: allow(P1, infallible: checked above)\n\
                 fn g(o: Option<u32>) -> u32 { o.unwrap() }\n\
                 #[cfg(test)]\nmod tests { fn t(o: Option<u32>) { o.unwrap(); } }\n",
            ),
            (
                "crates/netlist/tests/y.rs",
                "fn t(o: Option<u32>) { o.unwrap(); }\n",
            ),
        ]);
        assert_eq!(
            a.p1_counts,
            BTreeMap::from([("crates/netlist/src/x.rs".to_string(), 2)])
        );
        // `unwrap` without the method-call shape (a string, a doc comment,
        // a bare path) does not count.
        let a = run(vec![(
            "crates/core/src/x.rs",
            "/// call .unwrap() never\nfn f() { let s = \"x.unwrap()\"; let _ = s; }\n",
        )]);
        assert!(a.p1_counts.is_empty());
    }

    #[test]
    fn malformed_suppression_is_an_error() {
        let a = run(vec![(
            "crates/core/src/x.rs",
            "// mbr-lint: allow(D1)\n// mbr-lint: allow(Z9, what)\nfn f() {}\n",
        )]);
        let errs: Vec<u32> = a
            .findings
            .iter()
            .filter(|f| f.rule.is_none() && f.severity == Severity::Error)
            .map(|f| f.line)
            .collect();
        assert_eq!(errs, [1, 2]);
    }
}
