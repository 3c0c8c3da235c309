//! `sdm golden`: the one table of committed outputs under `results/`
//! ([`GOLDENS`]) and the check that re-executes this binary per entry and
//! environment corner and requires its stdout to equal the file
//! byte-for-byte. This is what "the goldens pin behaviour" means: every
//! figure, table and ablation of the evaluation at full paper volume, the
//! control-loop transcripts and the reach reports, at every shard and
//! thread corner they are invariant over.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::cli::{Args, Flag};

/// Environment assignments applied on top of a cleared environment.
pub type Corner = &'static [(&'static str, &'static str)];

/// Variables cleared before a corner is applied, so the caller's
/// environment never leaks into a check.
const CLEARED: [&str; 2] = ["SDM_SHARDS", "SDM_THREADS"];

/// One committed output.
pub struct Golden {
    /// Entry name for `sdm golden --check NAME`.
    pub name: &'static str,
    /// File under `results/` holding the expected stdout.
    pub file: &'static str,
    /// `sdm` arguments that produce it (relative paths: run from the
    /// repository root).
    pub argv: &'static [&'static str],
    /// A flag that makes the run write a second document, and the file
    /// under `results/` that document must equal.
    pub side: Option<(&'static str, &'static str)>,
    /// Every corner must reproduce the same bytes.
    pub corners: &'static [Corner],
}

const ANY: &[Corner] = &[&[]];
const SHARDS_1_4: &[Corner] = &[&[("SDM_SHARDS", "1")], &[("SDM_SHARDS", "4")]];
/// The reach checker's worker count: every core, and one.
const THREADS_ALL_1: &[Corner] = &[&[], &[("SDM_THREADS", "1")]];

const fn entry(name: &'static str, file: &'static str, argv: &'static [&'static str]) -> Golden {
    Golden { name, file, argv, side: None, corners: ANY }
}

/// Every file under `results/` except the `assertions_*.txt` inputs.
pub static GOLDENS: &[Golden] = &[
    entry("fig-campus", "fig_campus.txt", &["fig", "--topology", "campus"]),
    entry("fig-waxman", "fig_waxman.txt", &["fig", "--topology", "waxman"]),
    Golden { corners: SHARDS_1_4, ..entry("table3", "table3.txt", &["table3"]) },
    entry("k-sweep", "k_sweep.txt", &["k-sweep"]),
    entry("lp-formulations", "lp_formulations.txt", &["lp-formulations"]),
    entry("label-switching", "label_switching.txt", &["label-switching"]),
    entry(
        "label-switching-emulate",
        "label_switching_emulate.txt",
        &["label-switching", "--emulate"],
    ),
    entry("flow-cache", "flow_cache.txt", &["flow-cache"]),
    entry("failure-recovery", "failure_recovery.txt", &["failure-recovery"]),
    entry("adaptivity", "adaptivity.txt", &["adaptivity"]),
    entry("path-stretch", "path_stretch.txt", &["path-stretch"]),
    entry("queueing", "queueing.txt", &["queueing"]),
    Golden { corners: SHARDS_1_4, ..entry("exhaustion", "exhaustion.txt", &["exhaustion"]) },
    Golden { corners: SHARDS_1_4, ..entry("resteer", "resteer_golden.txt", &["resteer"]) },
    Golden { corners: SHARDS_1_4, ..entry("metrics", "telemetry_golden.json", &["metrics"]) },
    entry("verify-plan", "verify_plan.txt", &["verify-plan"]),
    Golden {
        side: Some(("--corpus-out", "reach_corpus.json")),
        corners: THREADS_ALL_1,
        ..entry(
            "reach",
            "reach_golden.json",
            &[
                "reach",
                "--campus-assertions",
                "results/assertions_campus.txt",
                "--hier-assertions",
                "results/assertions_hier.txt",
            ],
        )
    },
    Golden {
        corners: THREADS_ALL_1,
        ..entry(
            "reach-waxman",
            "reach_waxman_golden.json",
            &["reach", "--waxman-assertions", "results/assertions_campus.txt"],
        )
    },
    Golden {
        corners: SHARDS_1_4,
        ..entry("reach-replay", "reach_replay.json", &["reach", "--replay", "results/reach_corpus.json"])
    },
];

pub(crate) const FLAGS: &[Flag] = &[
    Flag::switch("--check", "fail unless every corner of every entry reproduces its file"),
    Flag::switch("--regen", "rewrite each entry's file from its first corner"),
];

/// Byte offset at which `want` and `got` first differ — where the shorter
/// one ends, if it is a prefix of the other. `None` when equal.
pub fn first_difference(want: &[u8], got: &[u8]) -> Option<usize> {
    let common = want.iter().zip(got).take_while(|(a, b)| a == b).count();
    (common < want.len().max(got.len())).then_some(common)
}

/// `results/<file>:<line>:<column>` of the first difference and both
/// sides from there: the rest of the line, at most 40 bytes back and 80 on
/// (some goldens are one long JSON line), escapes visible.
fn describe(file: &str, want: &[u8], got: &[u8]) -> Option<String> {
    let at = first_difference(want, got)?;
    let line_start = want[..at].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let line = want[..at].iter().filter(|&&b| b == b'\n').count() + 1;
    let show = |side: &[u8]| {
        if at == side.len() {
            return "<ends here>".to_string();
        }
        let end = side[at..].iter().position(|&b| b == b'\n').map_or(side.len(), |i| at + i + 1);
        let window = &side[line_start.max(at.saturating_sub(40))..end.min(at + 80)];
        format!("`{}`", String::from_utf8_lossy(window).escape_debug())
    };
    Some(format!(
        "results/{file}:{line}:{}: golden {}\n    output {}",
        at - line_start + 1,
        show(want),
        show(got)
    ))
}

fn corner_label(corner: Corner) -> String {
    let pairs: Vec<String> = corner.iter().map(|(k, v)| format!("{k}={v}")).collect();
    if pairs.is_empty() { "default environment".to_string() } else { pairs.join(" ") }
}

/// Runs entry `g` at `corner`; returns its stdout, having written the side
/// document to `side_out` (unused by an entry without one).
fn execute(g: &Golden, corner: Corner, side_out: &Path) -> Result<Vec<u8>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(g.argv);
    if let Some((flag, _)) = g.side {
        cmd.arg(flag).arg(side_out);
    }
    for var in CLEARED {
        cmd.env_remove(var);
    }
    cmd.envs(corner.iter().copied());
    let out = cmd.output().map_err(|e| format!("cannot run sdm {}: {e}", g.argv.join(" ")))?;
    if !out.status.success() {
        return Err(format!(
            "sdm {} exited with {}:\n{}",
            g.argv.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(out.stdout)
}

/// Checks one entry at every corner; the error is the report to print.
fn check(g: &Golden, results: &Path) -> Result<(), String> {
    let read = |file: &str| {
        std::fs::read(results.join(file)).map_err(|e| format!("cannot read results/{file}: {e}"))
    };
    let want = read(g.file)?;
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("sdm-golden-{}-{}", std::process::id(), g.name));
    for &corner in g.corners {
        let got = execute(g, corner, &scratch)?;
        let mut diff = describe(g.file, &want, &got);
        if let Some((flag, side_file)) = g.side {
            let side_got = std::fs::read(&scratch);
            let _ = std::fs::remove_file(&scratch);
            let side_got = side_got.map_err(|e| format!("{flag} wrote nothing: {e}"))?;
            diff = diff.or(describe(side_file, &read(side_file)?, &side_got));
        }
        if let Some(diff) = diff {
            return Err(format!("{diff}\n    ({})", corner_label(corner)));
        }
    }
    Ok(())
}

fn regen(g: &Golden, results: &Path) -> Result<(), String> {
    let side_out = g.side.map(|(_, file)| results.join(file)).unwrap_or_default();
    let stdout = execute(g, g.corners[0], &side_out)?;
    std::fs::write(results.join(g.file), stdout)
        .map_err(|e| format!("cannot write results/{}: {e}", g.file))
}

/// `sdm golden --check | --regen [NAME…]`; run from the repository root.
pub(crate) fn run(args: &Args) -> ExitCode {
    let act: fn(&Golden, &Path) -> Result<(), String> =
        match (args.has("--check"), args.has("--regen")) {
            (true, false) => check,
            (false, true) => regen,
            _ => {
                eprintln!("sdm golden: give exactly one of --check and --regen");
                return ExitCode::FAILURE;
            }
        };
    let results = Path::new("results");
    if !results.is_dir() {
        eprintln!("sdm golden: no results/ directory here — run from the repository root");
        return ExitCode::FAILURE;
    }
    if let Some(unknown) = args.operands.iter().find(|n| !GOLDENS.iter().any(|g| g.name == **n)) {
        let names: Vec<&str> = GOLDENS.iter().map(|g| g.name).collect();
        eprintln!("sdm golden: no entry named '{unknown}' (entries: {})", names.join(" "));
        return ExitCode::FAILURE;
    }

    let selected =
        |g: &&Golden| args.operands.is_empty() || args.operands.iter().any(|n| n == g.name);
    let mut failures = 0;
    for g in GOLDENS.iter().filter(selected) {
        match act(g, results) {
            Ok(()) => println!("ok    {:<24} results/{}", g.name, g.file),
            Err(report) => {
                failures += 1;
                println!("FAIL  {:<24} {report}", g.name);
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        println!("sdm golden: {failures} entr{} failed", if failures == 1 { "y" } else { "ies" });
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No orphan and no phantom golden: every file under `results/` other
    /// than the assertion inputs is named by exactly one entry, and every
    /// entry's file exists.
    #[test]
    fn goldens_and_results_agree() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let named: Vec<&str> = GOLDENS
            .iter()
            .flat_map(|g| std::iter::once(g.file).chain(g.side.map(|(_, file)| file)))
            .collect();
        for file in &named {
            assert!(results.join(file).is_file(), "GOLDENS names results/{file}, which is missing");
        }
        for entry in std::fs::read_dir(&results).expect("results/ exists") {
            let file = entry.expect("readable entry").file_name().into_string().expect("utf-8");
            if file.starts_with("assertions_") {
                continue;
            }
            let count = named.iter().filter(|n| **n == file).count();
            assert_eq!(count, 1, "results/{file} is named by {count} GOLDENS entries");
        }
        let mut names: Vec<&str> = GOLDENS.iter().map(|g| g.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GOLDENS.len(), "entry names are unique");
    }

    #[test]
    fn mismatch_reporter() {
        assert_eq!(first_difference(b"a\nb\n", b"a\nb\n"), None);
        assert_eq!(describe("x.txt", b"a\nb\n", b"a\nb\n"), None);
        // a differing line
        assert_eq!(
            describe("x.txt", b"a\nb 1 c\nd\n", b"a\nb 2 c\nd\n").as_deref(),
            Some("results/x.txt:2:3: golden `b 1 c\\n`\n    output `b 2 c\\n`")
        );
        // one side shorter: a missing last line, and a missing final newline
        assert_eq!(
            describe("x.txt", b"a\nb\n", b"a\n").as_deref(),
            Some("results/x.txt:2:1: golden `b\\n`\n    output <ends here>")
        );
        assert_eq!(
            describe("x.txt", b"a", b"a\n").as_deref(),
            Some("results/x.txt:1:2: golden <ends here>\n    output `a\\n`")
        );
    }
}
