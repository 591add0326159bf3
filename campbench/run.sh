#!/usr/bin/env bash
# Build the release `campion` CLI, `campion-fleetd` and the `campbench` binary
# from source, then run one benchmark workload:
#
#   bash campbench/run.sh --workload acl-10k --seed 1 --seconds 20 --trace 0
#
# Every workload in turn:
#
#   for w in acl-10k rmap-10k fleet-http; do
#     bash campbench/run.sh --workload "$w" --seed 1 --seconds 20 --trace 0
#   done
#
# Everything is built into $CARGO_TARGET_DIR (default `.bench_build`) at the
# repository root. The last line of standard output is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p campion -p campion-fleet --bins >&2
cargo build --release --offline --quiet --manifest-path campbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/campbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
