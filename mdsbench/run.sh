#!/usr/bin/env bash
# Builds the workspace's mds-serve and the benchmark into one target
# directory, so mdsbench finds mds-serve next to itself, then runs
# mdsbench with this script's arguments. Run from anywhere; paths are
# taken relative to the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --offline --release --quiet --manifest-path Cargo.toml -p mds-harness --bin mds-serve
cargo build --offline --release --quiet --manifest-path mdsbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/mdsbench" "$@"
