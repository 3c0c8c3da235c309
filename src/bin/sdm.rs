//! `sdm` — the one command line of the SDM policy-enforcement
//! reproduction: the scenario runner, every experiment of the paper's
//! evaluation, and the golden check, as subcommands of
//! [`sdm_bench::experiments::EXPERIMENTS`]. `sdm --help` lists them.
//!
//! ```text
//! sdm --topology campus --strategy lb --packets 1000000
//! sdm fig --topology waxman --volumes 1,5,10
//! sdm golden --check
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    sdm_bench::cli::main(&argv)
}
