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

phase "cargo clippy --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

phase "cargo test -q --offline --workspace"
cargo test -q --offline --workspace

phase "cargo doc --no-deps (rustdoc warnings are errors) + doc-examples"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
cargo test -q --doc --offline --workspace

phase "sdm-lint: hermetic source-lint gate over the workspace"
cargo run --release --offline -p sdm-verify --bin sdm-lint -- --root .

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
