//! End-to-end tests of the `sdm-lint` gate: the library scan and the
//! compiled binary must reject the seeded-violation fixture workspace
//! (`tests/fixtures/bad_workspace`) with every rule firing, and the binary
//! must pass the real workspace clean — exactly what ci.sh relies on.

use std::path::{Path, PathBuf};
use std::process::Command;

use sdm_verify::{lint_workspace, LintConfig};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad_workspace")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn fixture_trips_every_rule() {
    let violations =
        lint_workspace(&LintConfig::new(fixture_root())).expect("fixture scan succeeds");
    let rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
    for rule in [
        sdm_verify::lint::RULE_DEFAULT_HASHER,
        sdm_verify::lint::RULE_WALL_CLOCK,
        sdm_verify::lint::RULE_HOT_PATH_PANIC,
        sdm_verify::lint::RULE_UNSAFE_CODE,
        sdm_verify::lint::RULE_PER_FLOW_MAP,
        sdm_verify::lint::RULE_SET_ORDER,
        sdm_verify::lint::RULE_DOC_PATH,
    ] {
        assert!(
            rules.contains(&rule),
            "fixture must trip {rule}: {violations:?}"
        );
    }
    // The hot-path list covers the epoch loop (and with it the other
    // suffixes added alongside: `oa_table.rs`, `label_table.rs`).
    assert!(
        violations.iter().any(|v| v.rule == sdm_verify::lint::RULE_HOT_PATH_PANIC
            && v.file.ends_with("core/src/epoch.rs")),
        "expect() in the epoch fixture must trip hot-path-panic: {violations:?}"
    );
    // `doc-path` reports a stale symbol as well as a stale file name.
    assert!(
        violations.iter().any(|v| v.rule == sdm_verify::lint::RULE_DOC_PATH
            && v.detail.contains("`RETIRED_BUDGET` names a symbol")),
        "a backticked constant no source defines must trip doc-path: {violations:?}"
    );
    // The missing #![forbid(unsafe_code)] attribute is reported at line 0
    // of lib.rs, distinct from the `unsafe` block inside the function.
    assert!(
        violations
            .iter()
            .any(|v| v.rule == sdm_verify::lint::RULE_UNSAFE_CODE && v.line == 0),
        "missing crate attribute must be reported: {violations:?}"
    );
}

/// The telemetry crate is covered by the gate: a collector that touches
/// the host clock or a randomly seeded map must be rejected (PR-8 —
/// `sdm-telemetry` joined [`sdm_verify::lint::DATA_PLANE_CRATES`]).
#[test]
fn telemetry_fixture_trips_wall_clock_and_hasher() {
    let violations =
        lint_workspace(&LintConfig::new(fixture_root())).expect("fixture scan succeeds");
    let telemetry: Vec<_> = violations
        .iter()
        .filter(|v| v.file.contains("crates/telemetry/"))
        .collect();
    assert!(
        telemetry
            .iter()
            .any(|v| v.rule == sdm_verify::lint::RULE_WALL_CLOCK),
        "Instant::now in the telemetry fixture must trip wall-clock: {telemetry:?}"
    );
    assert!(
        telemetry
            .iter()
            .any(|v| v.rule == sdm_verify::lint::RULE_DEFAULT_HASHER),
        "HashMap in the telemetry fixture must trip default-hasher: {telemetry:?}"
    );
}

/// The verify crate itself is covered by the gate (PR-10 — the reach
/// tier joined [`sdm_verify::lint::DIAGNOSTIC_CRATES`]): both `HashSet`
/// and `FxHashSet` in a diagnostic path must be rejected, since report
/// order must come from the documented sort, not hasher accidents.
#[test]
fn verify_fixture_trips_set_iteration_order() {
    let violations =
        lint_workspace(&LintConfig::new(fixture_root())).expect("fixture scan succeeds");
    let verify: Vec<_> = violations
        .iter()
        .filter(|v| v.file.contains("crates/verify/"))
        .collect();
    assert!(
        verify
            .iter()
            .any(|v| v.rule == sdm_verify::lint::RULE_SET_ORDER),
        "hash sets in the verify fixture must trip set-iteration-order: {verify:?}"
    );
}

#[test]
fn binary_exits_nonzero_on_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_sdm-lint"))
        .arg("--root")
        .arg(fixture_root())
        .output()
        .expect("run sdm-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("default-hasher"), "{stdout}");
    assert!(stdout.contains("crates/core/src/shard.rs"), "{stdout}");
}

#[test]
fn binary_passes_the_real_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_sdm-lint"))
        .arg("--root")
        .arg(workspace_root())
        .output()
        .expect("run sdm-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "the workspace must lint clean:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn binary_reports_usage_error_on_bad_root() {
    let out = Command::new(env!("CARGO_BIN_EXE_sdm-lint"))
        .arg("--root")
        .arg(fixture_root().join("does-not-exist"))
        .output()
        .expect("run sdm-lint");
    assert_eq!(out.status.code(), Some(2), "I/O errors must exit 2");
}
