#!/usr/bin/env bash
# The benchmark's one command: build `ledger` (this package) and `mcc` (the
# repository's node binary, spawned by the grid_served workload) from source,
# then hand every argument to `ledger`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$here/../Cargo.toml" -p mcc --bin mcc
exec "$CARGO_TARGET_DIR/release/ledger" "$@"
