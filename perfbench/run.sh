#!/usr/bin/env bash
# Build the release server and the benchmark from this checkout, then run
# one benchmark workload against the server.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the JSON result.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
    echo "perfbench: run from the root of an eco-chip checkout" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --bin ecochip >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/ecochip" "$@"
