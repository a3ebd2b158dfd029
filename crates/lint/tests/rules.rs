//! Fixture harness: every rule is proven by a failing/passing pair.
//!
//! For each registered rule there must be a
//! `tests/fixtures/<rule-id>/{bad.rs,good.rs}` pair; `bad.rs` must
//! produce at least one finding under that rule (the rule *can* fail)
//! and `good.rs` none (the rule doesn't cry wolf on the idiomatic
//! form). A rule added without fixtures fails this test by
//! construction, which is the point: the fixture pair is the rule's
//! spec and its regression test in one.

use std::path::PathBuf;
use tdp_lint::{lint_file_with_rule, rules};

fn fixture_dir(rule_id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule_id)
}

/// Fixtures are linted under a neutral path so per-path escapes
/// (`crates/sync/`) never kick in.
fn neutral_rel(rule_id: &str, name: &str) -> String {
    format!("crates/fixture/src/{rule_id}/{name}")
}

#[test]
fn every_rule_has_a_failing_and_passing_fixture() {
    let all = rules::all();
    assert!(all.len() >= 7, "rule set shrank: {}", all.len());
    for rule in &all {
        let dir = fixture_dir(rule.id());
        let bad = dir.join("bad.rs");
        let good = dir.join("good.rs");
        assert!(
            bad.is_file() && good.is_file(),
            "rule `{}` is missing its fixture pair under {}",
            rule.id(),
            dir.display()
        );

        let bad_findings = lint_file_with_rule(&bad, &neutral_rel(rule.id(), "bad.rs"), rule.id());
        assert!(
            !bad_findings.is_empty(),
            "rule `{}` produced no findings on its bad fixture — it can't fail",
            rule.id()
        );
        for f in &bad_findings {
            assert_eq!(f.rule, rule.id());
            assert!(f.line > 0, "finding without a line: {f}");
        }

        let good_findings =
            lint_file_with_rule(&good, &neutral_rel(rule.id(), "good.rs"), rule.id());
        assert!(
            good_findings.is_empty(),
            "rule `{}` false-positives on its good fixture:\n{}",
            rule.id(),
            good_findings
                .iter()
                .map(|f| format!("  {f}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// No orphan fixture directories: a deleted rule takes its fixtures
/// with it (otherwise they rot silently).
#[test]
fn no_orphan_fixture_dirs() {
    let ids: Vec<&str> = rules::all().iter().map(|r| r.id()).collect();
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for entry in std::fs::read_dir(&root).expect("fixtures dir") {
        let name = entry.expect("entry").file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(
            ids.contains(&name.as_str()),
            "fixture dir `{name}` matches no registered rule"
        );
    }
}

/// The bad fixtures double as precision checks: each finding lands on
/// the line the fixture comments mark with "flagged".
#[test]
fn findings_land_on_the_marked_lines() {
    for rule in rules::all() {
        let bad = fixture_dir(rule.id()).join("bad.rs");
        let text = std::fs::read_to_string(&bad).expect("bad fixture readable");
        let marked: Vec<u32> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains("// flagged"))
            .map(|(i, _)| (i + 1) as u32)
            .collect();
        if marked.is_empty() {
            continue; // fixture marks nothing line-precisely (multi-line shapes)
        }
        let found: Vec<u32> =
            lint_file_with_rule(&bad, &neutral_rel(rule.id(), "bad.rs"), rule.id())
                .iter()
                .map(|f| f.line)
                .collect();
        for m in &marked {
            assert!(
                found.contains(m),
                "rule `{}`: marked line {m} not flagged (found: {found:?})",
                rule.id()
            );
        }
    }
}
