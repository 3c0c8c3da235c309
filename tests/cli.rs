//! Smoke tests of the `sdm` CLI binary: argument handling, policy files,
//! flow-trace save/replay, per-subcommand help, the golden check.

use std::process::Command;

use sdm_bench::experiments::EXPERIMENTS;

fn sdm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sdm"))
}

/// An operator file the world cannot run is refused with exit code 1 and
/// a message naming the file and the reason — never a panic.
fn assert_refused(out: &std::process::Output, path: &std::path::Path, reason: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains(path.to_str().unwrap()), "stderr must name the file: {err}");
    assert!(err.contains(reason), "stderr must say {reason}: {err}");
    assert!(!err.contains("panicked at"), "{err}");
}

#[test]
fn help_prints_usage() {
    let out = sdm().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("--topology"));
}

#[test]
fn bad_arguments_fail_cleanly() {
    for args in [
        vec!["--topology", "torus"],
        vec!["--strategy", "magic"],
        vec!["--encoding", "pigeon"],
        vec!["--k", "0"],
        vec!["--policies", "/definitely/not/a/file"],
        // numeric flags: a typo must not silently run the default
        vec!["--packets", "1e6"],
        vec!["--seed", "x"],
        vec!["--k", "many"],
        // flags and subcommands: a typo must not be silently ignored
        vec!["--packts", "1000"],
        vec!["--packets"],
        vec!["fig", "--volume", "1"],
        vec!["frobnicate"],
        // a value that parses but cannot run
        vec!["queueing", "--window", "0"],
    ] {
        let out = sdm().args(&args).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            args.iter().any(|a| a.starts_with("--") && err.contains(a))
                || err.contains(args.last().unwrap()),
            "{args:?} should explain itself: {err}"
        );
    }
}

#[test]
fn every_subcommand_documents_its_flags() {
    for exp in EXPERIMENTS {
        let out = sdm().args([exp.name, "--help"]).output().expect("binary runs");
        assert!(out.status.success(), "sdm {} --help", exp.name);
        let text = String::from_utf8_lossy(&out.stdout);
        for flag in exp.flags {
            assert!(text.contains(flag.name), "sdm {} --help omits {}", exp.name, flag.name);
        }
    }
}

/// The real golden path — child processes, both shard corners, the
/// committed files — on the two cheapest entries.
#[test]
fn golden_check_passes_on_the_committed_transcripts() {
    let out = sdm()
        .args(["golden", "--check", "resteer", "metrics"])
        .output()
        .expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert_eq!(text.lines().filter(|l| l.starts_with("ok ")).count(), 2, "{text}");
}

#[test]
fn small_hp_run_reports_delivery() {
    let out = sdm()
        .args(["--strategy", "hp", "--packets", "20000"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("per-type loads"), "{text}");
    assert!(text.contains("delivered"), "{text}");
}

#[test]
fn policy_file_drives_enforcement_and_warns_on_shadowing() {
    let dir = std::env::temp_dir();
    let path = dir.join("sdm_cli_test_policies.txt");
    std::fs::write(
        &path,
        "dst=* dport=80 => FW, IDS\nsrc=10.0.0.0/8 dport=80 => IDS\n",
    )
    .unwrap();
    let out = sdm()
        .args(["--strategy", "hp", "--packets", "5000"])
        .arg("--policies")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("shadowed"), "shadow warning expected: {err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 policies"), "{text}");

    // A chain that parses but the plan verifier rejects (repeated function).
    std::fs::write(&path, "src=10.0.0.0/8 dport=80 => FW, FW\n").unwrap();
    let out = sdm()
        .args(["--packets", "1000", "--policies"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert_refused(&out, &path, "V001");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flow_trace_round_trip_via_cli() {
    let dir = std::env::temp_dir();
    let path = dir.join("sdm_cli_test_trace.txt");
    let out = sdm()
        .args(["--strategy", "hp", "--packets", "10000"])
        .arg("--save-flows")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let saved = String::from_utf8_lossy(&out.stdout);
    assert!(saved.contains("saved"), "{saved}");

    let out = sdm()
        .args(["--strategy", "hp"])
        .arg("--load-flows")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let replayed = String::from_utf8_lossy(&out.stdout);
    assert!(replayed.contains("replaying"), "{replayed}");

    // A trace that parses but whose source lies in no stub subnet.
    std::fs::write(&path, "8.8.8.8 10.0.1.1 1000 80 tcp 5 100\n").unwrap();
    let out = sdm().arg("--load-flows").arg(&path).output().expect("binary runs");
    assert_refused(&out, &path, "8.8.8.8:1000");
    let _ = std::fs::remove_file(&path);
}

/// A reach corpus that parses but names middleboxes, stubs or sources
/// the campus world does not have is refused with exit code 2, naming the
/// file and the scenario — before anything replays, never a panic.
#[test]
fn replay_refuses_a_corpus_the_world_cannot_run() {
    use sdm::verify::witness::{corpus_from_json, corpus_to_json, ReplayScenario, ReplayStep};

    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/results/reach_corpus.json");
    let corpus = corpus_from_json(&std::fs::read_to_string(committed).unwrap()).unwrap();
    let path = std::env::temp_dir().join("sdm_cli_test_corpus.json");
    let refused = |reason: &str, edit: &dyn Fn(&mut ReplayScenario)| {
        let mut bad = corpus.clone();
        edit(&mut bad[3]);
        std::fs::write(&path, corpus_to_json(&bad).to_string()).unwrap();
        let out = sdm()
            .args(["reach", "--replay"])
            .arg(&path)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{reason}: {err}");
        let name = &bad[3].name;
        let at = format!("sdm reach: '{}' scenario 3 ({name}): ", path.display());
        assert!(err.contains(&(at + reason)), "{err}");
    };
    refused("middlebox m99999 is out of range", &|sc| {
        sc.steps.push(ReplayStep::FailMbox(99_999))
    });
    refused(
        "middlebox m99999 is out of range",
        &|sc| match &mut sc.steps[0] {
            ReplayStep::Inject { expect, .. } => expect.must_not_process.push(99_999),
            step => panic!("scenario starts with {step:?}"),
        },
    );
    refused("stub 999 is out of range", &|sc| sc.stub = 999);
    refused("flow source 8.8.8.8 lies outside stub 0", &|sc| {
        sc.flow.src = "8.8.8.8".parse().unwrap()
    });
    let _ = std::fs::remove_file(&path);
}
