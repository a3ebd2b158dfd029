//! Manifest hygiene: cargo never reports a dependency that is declared
//! but unused, so this test does. For the root package and every
//! `crates/*` package, each `[dependencies]`/`[dev-dependencies]` entry
//! must be named (`dep::…` or `use dep`) by at least one `.rs` file of
//! that package; and the directories under `stubs/` must be exactly the
//! shims the workspace still points at. Std-only, text-level: it reads
//! manifests line by line and sources with line comments stripped.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Keys of the `[dependencies]`, `[dev-dependencies]` and
/// `[build-dependencies]` tables of one manifest.
fn declared_deps(manifest: &str) -> BTreeSet<String> {
    let mut deps = BTreeSet::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = matches!(
                line,
                "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
            );
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            let key = line
                .split(['.', '=', ' '])
                .next()
                .expect("split yields one");
            deps.insert(key.to_string());
        }
    }
    deps
}

/// Every `.rs` file below `dir`, not descending into a nested package
/// (a directory with its own `Cargo.toml`, e.g. `tdpbench`) or `target`.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|e| e.expect("dir entry").path()) {
        if path.is_dir() {
            if !path.join("Cargo.toml").exists() && !path.ends_with("target") {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Does `code` name the crate `ident` as a path root or in a `use`?
fn names_crate(code: &str, ident: &str) -> bool {
    code.match_indices(ident).any(|(at, _)| {
        let before = &code[..at];
        let after = &code[at + ident.len()..];
        let starts_word = !before.ends_with(|c: char| c.is_alphanumeric() || c == '_');
        let ends_word = !after.starts_with(|c: char| c.is_alphanumeric() || c == '_');
        starts_word && ends_word && (after.starts_with("::") || before.ends_with("use "))
    })
}

fn unused_deps(package_dir: &Path, source_dirs: &[&str]) -> Vec<String> {
    let manifest = fs::read_to_string(package_dir.join("Cargo.toml")).expect("manifest");
    let mut files = Vec::new();
    for d in source_dirs {
        rust_sources(&package_dir.join(d), &mut files);
    }
    let mut code = String::new();
    for f in &files {
        for line in fs::read_to_string(f).expect("source file").lines() {
            code.push_str(line.split("//").next().unwrap_or(""));
            code.push('\n');
        }
    }
    declared_deps(&manifest)
        .into_iter()
        .filter(|dep| !names_crate(&code, &dep.replace('-', "_")))
        .map(|dep| format!("{}: {dep}", package_dir.display()))
        .collect()
}

#[test]
fn every_declared_dependency_is_named_by_the_package() {
    let root = repo();
    let mut unused = unused_deps(&root, &["src", "tests", "examples", "benches"]);
    let mut packages: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").exists())
        .collect();
    packages.sort();
    assert!(packages.len() >= 10, "found only {packages:?}");
    for p in &packages {
        unused.extend(unused_deps(p, &["."]));
    }
    assert!(
        unused.is_empty(),
        "declared but never named in the package's sources:\n  {}",
        unused.join("\n  ")
    );
}

/// `path = "<prefix>NAME"` values in a manifest.
fn path_entries<'a>(manifest: &'a str, prefix: &'a str) -> impl Iterator<Item = String> + 'a {
    let needle = format!("path = \"{prefix}");
    manifest.lines().filter_map(move |l| {
        let rest = &l[l.find(&needle)? + needle.len()..];
        Some(rest[..rest.find('"')?].to_string())
    })
}

#[test]
fn stubs_directory_matches_the_workspace_dependency_table() {
    let root = repo();
    let on_disk: BTreeSet<String> = fs::read_dir(root.join("stubs"))
        .expect("stubs/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .map(|p| p.file_name().expect("name").to_string_lossy().into_owned())
        .collect();
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let wanted: BTreeSet<String> = path_entries(&manifest, "stubs/").collect();
    assert_eq!(
        on_disk, wanted,
        "stubs/ on disk vs. [workspace.dependencies]"
    );
}
