//! `tdp-lint`: the workspace invariant linter.
//!
//! PR 5's loom models found three real races in code that *looked*
//! disciplined; the invariants those models guard (facade-only locking,
//! no blocking under a guard, bounded channels, named threads, checked
//! FFI returns) were still enforced by
//! convention. This crate turns them into CI-gated errors *before* the
//! CASS-sharding and MRNet fan-in work multiplies the lock sites.
//!
//! There is no `syn` here — the build environment is offline (see
//! `stubs/README.md`) — so the walk is a token-level pass over a
//! hand-rolled lexer ([`lexer`]), the same trade the workspace already
//! makes in `stubs/serde_derive`. Rules are deliberately lexical and
//! conservative: each one matches a *shape* the codebase has agreed
//! never to write, and anything cleverer belongs in loom/TSan/lockdep,
//! not here. Escapes go through the explicit allowlist file
//! (`lint.allow`, [`allowlist`]) with a written reason, never through
//! silencing the rule.
//!
//! Layout mirrors the gateway's one-tool-one-file registry: one rule
//! per file under [`rules`], registered in `rules::all()`. See
//! DESIGN.md §12 for the rule catalog and the how-to-add-a-rule
//! walkthrough.

pub mod allowlist;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod walk;

use std::fs;
use std::path::Path;

use diag::Finding;
use rules::SourceFile;

/// Lex + strip one file into checkable form. `rel` is the
/// workspace-relative path rules match against.
pub fn load_source(path: &Path, rel: &str) -> std::io::Result<SourceFile> {
    let text = fs::read_to_string(path)?;
    let toks = lexer::strip_test_code(&lexer::lex(&text));
    Ok(SourceFile {
        path: rel.to_string(),
        toks,
    })
}

/// Run every rule over every runtime source file under `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let rules = rules::all();
    let mut findings = Vec::new();
    for (abs, rel) in walk::workspace_files(root) {
        let src = load_source(&abs, &rel)?;
        for rule in &rules {
            findings.extend(rule.check(&src));
        }
    }
    Ok(findings)
}

/// Run a single rule (by id) over one file — the fixture harness's
/// entry point.
pub fn lint_file_with_rule(path: &Path, rel: &str, rule_id: &str) -> Vec<Finding> {
    let src = load_source(path, rel).expect("fixture readable");
    let rule = rules::all()
        .into_iter()
        .find(|r| r.id() == rule_id)
        .unwrap_or_else(|| panic!("no rule `{rule_id}`"));
    rule.check(&src)
}
