#!/usr/bin/env sh
# CI entry point. The workspace is hermetic — every dependency is an
# in-tree path dependency (enforced by tests/hermetic.rs) — so everything
# below runs with --offline and must succeed with zero network access.
set -eu

# CI must not modify the tree: scratch outputs go under one private
# directory (so concurrent runs cannot clobber each other's cmp inputs),
# and the tracked/untracked state is compared at the end.
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
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

phase "verify-plan smoke: static plan verifier on campus + Waxman"
cargo run --release --offline -p sdm-bench --bin verify_plan -- --packets 100000

phase "table3 smoke run (reduced volume)"
cargo run --release --offline -p sdm-bench --bin table3_distribution -- --packets 1000000

phase "sharded determinism smoke: SDM_SHARDS=1 vs SDM_SHARDS=4 byte-identical"
SDM_SHARDS=1 cargo run --release --offline -p sdm-bench --bin table3_distribution -- \
    --packets 1000000 > "$TMP"/table3_shards1.txt
SDM_SHARDS=4 cargo run --release --offline -p sdm-bench --bin table3_distribution -- \
    --packets 1000000 > "$TMP"/table3_shards4.txt
cmp "$TMP"/table3_shards1.txt "$TMP"/table3_shards4.txt
echo "    table3 output is byte-identical at 1 and 4 shards"

phase "re-steer epoch golden: transcript byte-identical to results/resteer_golden.txt"
for shards in 1 4; do
    SDM_SHARDS=$shards cargo run --release --offline -p sdm-bench --bin resteer \
        > "$TMP"/resteer_s$shards.txt
    cmp results/resteer_golden.txt "$TMP"/resteer_s$shards.txt
done
echo "    re-steer transcript matches the golden at 1 and 4 shards"

phase "telemetry zero-perturbation: table3 byte-identical with SDM_TELEMETRY=1"
SDM_TELEMETRY=1 SDM_SHARDS=1 cargo run --release --offline -p sdm-bench --bin table3_distribution -- \
    --packets 1000000 > "$TMP"/table3_tel.txt
cmp "$TMP"/table3_shards1.txt "$TMP"/table3_tel.txt
echo "    table3 output is byte-identical with telemetry on and off"

phase "telemetry golden: sdm-metrics byte-identical to results/telemetry_golden.json"
for shards in 1 4; do
    SDM_SHARDS=$shards cargo run --release --offline -p sdm-bench --bin sdm-metrics \
        > "$TMP"/metrics_s$shards.json
    cmp results/telemetry_golden.json "$TMP"/metrics_s$shards.json
done
echo "    metrics snapshot matches the golden at 1 and 4 shards"

phase "exhaustion-attack determinism: byte-identical at 1 and 4 shards"
SDM_SHARDS=1 cargo run --release --offline -p sdm-bench --bin exhaustion -- \
    --flows 50000 > "$TMP"/exhaustion_s1.txt
SDM_SHARDS=4 cargo run --release --offline -p sdm-bench --bin exhaustion -- \
    --flows 50000 > "$TMP"/exhaustion_s4.txt
cmp "$TMP"/exhaustion_s1.txt "$TMP"/exhaustion_s4.txt
echo "    exhaustion-attack report (incl. neg-cache evictions) is shard-invariant"

phase "reach golden: symbolic isolation checker on campus + 21k-node hierarchical + Waxman-425"
cargo run --release --offline -p sdm-bench --bin sdm-reach -- \
    --campus-assertions results/assertions_campus.txt \
    --hier-assertions results/assertions_hier.txt \
    --corpus-out "$TMP"/reach_corpus.json > "$TMP"/reach_golden.json
cmp results/reach_golden.json "$TMP"/reach_golden.json
cmp results/reach_corpus.json "$TMP"/reach_corpus.json
cargo run --release --offline -p sdm-bench --bin sdm-reach -- \
    --waxman-assertions results/assertions_campus.txt > "$TMP"/reach_waxman_golden.json
cmp results/reach_waxman_golden.json "$TMP"/reach_waxman_golden.json
echo "    reach reports (incl. the 175k-class Waxman one) and counterexample corpus are byte-identical to the goldens"

phase "reach replay: every committed counterexample confirmed by the simulator"
SDM_SHARDS=1 cargo run --release --offline -p sdm-bench --bin sdm-reach -- \
    --replay results/reach_corpus.json > "$TMP"/reach_replay_s1.json
SDM_SHARDS=4 cargo run --release --offline -p sdm-bench --bin sdm-reach -- \
    --replay results/reach_corpus.json > "$TMP"/reach_replay_s4.json
cmp "$TMP"/reach_replay_s1.json "$TMP"/reach_replay_s4.json
echo "    simulator agrees with every static witness at 1 and 4 shards"

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
