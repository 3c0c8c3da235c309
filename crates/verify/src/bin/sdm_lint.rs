//! `sdm-lint` — the workspace source-lint gate (Pass 2 of `sdm-verify`).
//!
//! Scans every `crates/*/src` tree (plus the umbrella crate) for
//! violations of the determinism and robustness conventions documented in
//! [`sdm_verify::lint`], and the top-level documents for file names that
//! no longer exist; exits non-zero when any are found so `ci.sh` can gate
//! on it.
//!
//! ```text
//! sdm-lint [--root <workspace-dir>]
//! ```
//!
//! Exit codes: `0` clean, `1` violations found, `2` I/O or usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use sdm_verify::lint::{lint_workspace, LintConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match parse_root(&args) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("sdm-lint: {msg}");
            eprintln!("usage: sdm-lint [--root <workspace-dir>]");
            return ExitCode::from(2);
        }
    };

    // A root with nothing to scan must not pass as "clean" — a typoed
    // --root would otherwise silently disable the gate.
    if !root.join("crates").is_dir() {
        eprintln!(
            "sdm-lint: {} has no crates/ directory — not a workspace root",
            root.display()
        );
        return ExitCode::from(2);
    }

    let violations = match lint_workspace(&LintConfig::new(&root)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("sdm-lint: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if violations.is_empty() {
        println!("sdm-lint: clean ({})", root.display());
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!("sdm-lint: {} violation(s)", violations.len());
        ExitCode::from(1)
    }
}

/// `--root <dir>` if given; otherwise walk up from the current directory
/// to the nearest ancestor containing a `crates/` directory.
fn parse_root(args: &[String]) -> Result<PathBuf, String> {
    if let Some(i) = args.iter().position(|a| a == "--root") {
        return args
            .get(i + 1)
            .map(PathBuf::from)
            .ok_or_else(|| "--root needs a value".to_string());
    }
    if let Some(unknown) = args.first() {
        return Err(format!("unknown argument `{unknown}`"));
    }
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("no workspace root found (looked for crates/ + Cargo.toml); \
pass --root"
                .to_string());
        }
    }
}
