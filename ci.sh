#!/usr/bin/env sh
# CI entry point. The workspace is hermetic — every dependency is an
# in-tree path dependency (enforced by tests/hermetic.rs) — so everything
# below runs with --offline and must succeed with zero network access.
set -eu

# CI must not modify the tree: the tracked/untracked state is compared
# at the end.
TREE_BEFORE=$(git status --porcelain)

# Per-phase wall-clock: phase <name> ends the previous phase (if any),
# prints its duration, and starts the next.
PHASE_NAME=""
PHASE_START=0
phase() {
    phase_end
    PHASE_NAME="$1"
    PHASE_START=$(date +%s)
    echo "==> $1"
}
phase_end() {
    if [ -n "$PHASE_NAME" ]; then
        echo "    [$PHASE_NAME took $(($(date +%s) - PHASE_START))s]"
    fi
}

phase "cargo build --release --offline"
cargo build --release --offline

# clippy.toml and the crate roots' lint attributes carry the source
# conventions: no std HashMap/HashSet, no host clock, no unwrap/expect on
# the packet path.
phase "cargo clippy --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Includes the checks no compiler makes: docs name no lost file or symbol
# (sdm-verify's lint module), every library forbids unsafe code
# (tests/hermetic.rs).
phase "cargo test -q --offline --workspace"
cargo test -q --offline --workspace

phase "cargo doc --no-deps (rustdoc warnings are errors) + doc-examples"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
cargo test -q --doc --offline --workspace

phase "sdm golden --check: every figure, table, ablation, transcript and reach report byte-identical to results/"
cargo run --release --offline --bin sdm -- golden --check

phase "benchmark/ smoke test: the standalone benchmark still builds against the public API"
cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml

phase "tree unchanged: git status --porcelain identical before and after"
if [ "$(git status --porcelain)" != "$TREE_BEFORE" ]; then
    echo "CI modified the working tree:" >&2
    git status --porcelain >&2
    exit 1
fi

phase_end
echo "==> CI OK"
