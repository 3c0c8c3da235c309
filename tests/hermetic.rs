//! Guard test for the hermetic build policy: every `[dependencies]`,
//! `[dev-dependencies]` and `[build-dependencies]` entry in every manifest
//! of the workspace must be an in-tree path dependency (or a
//! `workspace = true` inheritance of one). A registry dependency sneaking
//! in breaks `--offline` builds, so it fails this test *before* it breaks
//! CI boxes without a crates.io mirror. Two more guards: every library
//! root forbids unsafe code, and `benchmark/` stays the only performance
//! record, so no package declares a `cargo bench` target.

use std::path::{Path, PathBuf};

/// All Cargo.toml files of the workspace: the root manifest plus every
/// `crates/*/Cargo.toml`.
fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    let entries = std::fs::read_dir(&crates)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", crates.display()));
    for entry in entries {
        let manifest = entry.expect("readable dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            out.push(manifest);
        }
    }
    assert!(out.len() >= 8, "expected the root + >=7 crate manifests");
    out
}

/// Minimal TOML-section walk: yields `(section, line)` for every
/// non-comment line, where `section` is the current `[...]` header.
fn walk_sections(text: &str) -> Vec<(String, String)> {
    let mut section = String::new();
    let mut out = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        out.push((section.clone(), line.to_string()));
    }
    out
}

fn is_dependency_section(section: &str) -> bool {
    section == "dependencies"
        || section == "dev-dependencies"
        || section == "build-dependencies"
        || section == "workspace.dependencies"
        || section.starts_with("target.") && section.ends_with("dependencies")
}

/// A dependency line is hermetic when it resolves in-tree: a `path = ...`
/// table or `workspace = true` inheritance (the workspace table itself is
/// checked for `path` too). Anything else — bare versions, `git = ...`,
/// registry tables — is a violation.
fn line_is_hermetic(line: &str) -> bool {
    let Some((name, spec)) = line.split_once('=') else {
        return false;
    };
    let (name, spec) = (name.trim(), spec.trim());
    // dotted-key inheritance: `foo.workspace = true`
    if name.ends_with(".workspace") && spec == "true" {
        return true;
    }
    // inline-table inheritance: `foo = { workspace = true }`
    if spec.contains("workspace = true") {
        return true;
    }
    // in-tree path table: `foo = { path = "..." }` with no registry escape
    spec.contains("path") && !spec.contains("git =") && !spec.contains("version")
}

#[test]
fn no_registry_dependencies_anywhere() {
    let mut violations = Vec::new();
    for manifest in workspace_manifests() {
        let text = std::fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
        for (section, line) in walk_sections(&text) {
            if !is_dependency_section(&section) {
                continue;
            }
            if !line_is_hermetic(&line) {
                violations.push(format!("{} [{section}]: {line}", manifest.display()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "non-hermetic dependencies found (use an in-tree path dep instead):\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn all_path_dependencies_point_in_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .canonicalize()
        .expect("workspace root resolves");
    for manifest in workspace_manifests() {
        let dir = manifest.parent().unwrap();
        let text = std::fs::read_to_string(&manifest).unwrap();
        for (section, line) in walk_sections(&text) {
            if !is_dependency_section(&section) {
                continue;
            }
            // extract path = "..." if present
            let Some(idx) = line.find("path") else { continue };
            let rest = &line[idx..];
            let Some(start) = rest.find('"') else { continue };
            let Some(end) = rest[start + 1..].find('"') else { continue };
            let rel = &rest[start + 1..start + 1 + end];
            let target = dir
                .join(rel)
                .canonicalize()
                .unwrap_or_else(|e| panic!("{}: dangling path dep `{rel}`: {e}", manifest.display()));
            assert!(
                target.starts_with(&root),
                "{}: path dep `{rel}` escapes the workspace",
                manifest.display()
            );
        }
    }
}

/// The util crate itself must have no dependencies at all — it is the
/// foundation everything else stands on.
#[test]
fn util_crate_is_dependency_free() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/util/Cargo.toml");
    let text = std::fs::read_to_string(&manifest).unwrap();
    for (section, line) in walk_sections(&text) {
        assert!(
            !is_dependency_section(&section),
            "crates/util must stay dependency-free, found [{section}] {line}"
        );
    }
}

/// `benchmark/` (declared in `BENCHMARK.json`) is the one performance
/// record: no workspace package may grow a second one as a `cargo bench`
/// target, declared or auto-discovered from a `benches/` directory.
#[test]
fn no_cargo_bench_targets() {
    let mut found = Vec::new();
    for manifest in workspace_manifests() {
        let text = std::fs::read_to_string(&manifest).unwrap();
        if text.lines().any(|l| l.trim() == "[[bench]]") {
            found.push(format!("{}: declares a [[bench]] target", manifest.display()));
        }
        let benches = manifest.parent().unwrap().join("benches");
        if benches.exists() {
            found.push(format!("{} exists", benches.display()));
        }
    }
    assert!(
        found.is_empty(),
        "performance is measured by benchmark/ only:\n  {}",
        found.join("\n  ")
    );
}

/// Every library root carries `#![forbid(unsafe_code)]`, so rustc rejects
/// an `unsafe` block anywhere in the workspace's libraries.
#[test]
fn every_library_forbids_unsafe_code() {
    let mut missing = Vec::new();
    for manifest in workspace_manifests() {
        let lib = manifest.parent().unwrap().join("src/lib.rs");
        let Ok(text) = std::fs::read_to_string(&lib) else {
            continue;
        };
        if !text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]") {
            missing.push(lib.display().to_string());
        }
    }
    assert!(
        missing.is_empty(),
        "crate roots without #![forbid(unsafe_code)]:\n  {}",
        missing.join("\n  ")
    );
}
