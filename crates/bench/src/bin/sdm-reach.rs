//! Network-wide isolation verification: checks operator assertion files
//! against the campus and Waxman-425 evaluation worlds and the ≈21k-node
//! hierarchical fabric, entirely symbolically, and lowers every violation
//! into a replayable simulator scenario.
//!
//! Usage:
//!   cargo run --release -p sdm-bench --bin sdm-reach --
//!     [--seed N]                   world seed (default 1)
//!     [--campus-assertions FILE]   check FILE on the campus world
//!     [--hier-assertions FILE]     check FILE on the hierarchical fabric
//!     [--waxman-assertions FILE]   check FILE on the Waxman-425 world
//!     [--corpus-out FILE]          write the campus counterexample corpus
//!     [--replay FILE]              replay a corpus against the campus
//!                                  world; exit 1 on any disagreement
//!
//! In check mode one deterministic JSON document is printed (CI
//! byte-diffs the campus + hierarchical one against
//! `results/reach_golden.json` and the Waxman one against
//! `results/reach_waxman_golden.json`), each check's work counters
//! ([`sdm_verify::reach::ReachStats`]) go to stderr, and the exit code
//! is 0 even when assertions are refuted — the committed assertion sets
//! intentionally contain refutable assertions so the counterexample
//! corpus is non-empty. The campus run additionally verifies a hazard
//! state: the middlebox that hot-potato steering pins first is declared
//! failed, and every stale-pinned-flow window (`R005`) is reported and
//! lowered into the corpus.
//!
//! The hierarchical run never builds a controller (all-pairs routing at
//! that scale is gigabytes); it checks the hand-assembled plan view
//! against on-demand per-destination routes, which is why its witnesses
//! are reported but not replayed.

use std::process::ExitCode;

use sdm_bench::reach_worlds::{hazard_pass, hier_reach, world_reach};
use sdm_bench::replay::replay_corpus;
use sdm_bench::{arg_num, arg_value, ExperimentConfig};
use sdm_core::Strategy;
use sdm_util::json::Json;
use sdm_verify::reach::{check_assertions, parse_assertions};
use sdm_verify::witness::{corpus_from_json, corpus_to_json, ReplayScenario};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 1);

    if let Some(path) = arg_value(&args, "--replay") {
        return replay_mode(seed, &path);
    }

    let mut sections: Vec<(&str, Json)> = vec![("seed", Json::from(seed))];
    let mut corpus: Vec<ReplayScenario> = Vec::new();

    if let Some(path) = arg_value(&args, "--campus-assertions") {
        let assertions = load_assertions(&path);
        let mut wr = world_reach(&ExperimentConfig::campus(seed));
        let report =
            check_assertions(&wr.view, wr.world.controller.routes(), &assertions);
        eprintln!("sdm-reach: campus {:?}", report.stats);
        corpus.extend(report.scenarios());

        let (failed, hazard_report) = hazard_pass(&mut wr);
        corpus.extend(hazard_report.scenarios());
        sections.push((
            "campus",
            Json::obj([
                ("converged", report.to_json()),
                (
                    "hazard",
                    Json::obj([
                        ("failed", Json::from(failed as u64)),
                        ("report", hazard_report.to_json()),
                    ]),
                ),
            ]),
        ));
    }

    if let Some(path) = arg_value(&args, "--hier-assertions") {
        let assertions = load_assertions(&path);
        let hr = hier_reach(seed);
        let routes = hr.plan.topology().dest_routes();
        let report = check_assertions(&hr.view, &routes, &assertions);
        eprintln!("sdm-reach: hierarchical {:?}", report.stats);
        sections.push((
            "hierarchical",
            Json::obj([
                ("nodes", Json::from(hr.view.plan.node_count)),
                ("stubs", Json::from(hr.view.stub_routers.len())),
                ("report", report.to_json()),
            ]),
        ));
    }

    if let Some(path) = arg_value(&args, "--waxman-assertions") {
        let assertions = load_assertions(&path);
        let wr = world_reach(&ExperimentConfig::waxman(seed));
        let report =
            check_assertions(&wr.view, wr.world.controller.routes(), &assertions);
        eprintln!("sdm-reach: waxman {:?}", report.stats);
        sections.push((
            "waxman",
            Json::obj([
                ("nodes", Json::from(wr.view.plan.node_count)),
                ("stubs", Json::from(wr.view.stub_routers.len())),
                ("report", report.to_json()),
            ]),
        ));
    }

    if let Some(path) = arg_value(&args, "--corpus-out") {
        let text = corpus_to_json(&corpus).to_string();
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("sdm-reach: cannot write corpus '{path}': {e}");
            return ExitCode::from(2);
        }
        sections.push(("corpus_scenarios", Json::from(corpus.len())));
    }

    println!("{}", Json::obj(sections));
    ExitCode::SUCCESS
}

fn replay_mode(seed: u64, path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sdm-reach: cannot read corpus '{path}': {e}");
            return ExitCode::from(2);
        }
    };
    let corpus = corpus_from_json(&text).unwrap_or_else(|e| {
        eprintln!("sdm-reach: '{path}' is not a reach corpus: {e}");
        std::process::exit(2);
    });

    let wr = world_reach(&ExperimentConfig::campus(seed));
    let (verdicts, all_agree) = replay_corpus(
        &wr.world.controller,
        Strategy::HotPotato,
        None,
        wr.options,
        &corpus,
    );
    let out = Json::obj([
        ("seed", Json::from(seed)),
        ("scenarios", Json::from(corpus.len())),
        ("agree", Json::Bool(all_agree)),
        (
            "verdicts",
            Json::Arr(verdicts.iter().map(|v| v.to_json()).collect()),
        ),
    ]);
    println!("{out}");
    if all_agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load_assertions(path: &str) -> Vec<sdm_verify::reach::Assertion> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("sdm-reach: cannot read assertions '{path}': {e}");
        std::process::exit(2);
    });
    parse_assertions(&text).unwrap_or_else(|e| {
        eprintln!("sdm-reach: {path}: {e}");
        std::process::exit(2);
    })
}
