#!/usr/bin/env bash
# The repo benchmark: builds the programs from source, then runs them.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh [--smoke] [--trace 1]      # all five workloads
#   bash perfbench/run.sh --check-repeat             # all five, twice, A/B
#
# Everything it writes stays inside the checkout: build output, result and
# trace files under $CARGO_TARGET_DIR (default .bench_build), and the
# process backend's socket directories under $CARGO_TARGET_DIR/tmp.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# The process backend forks the workspace's real `splice-proc-worker`; the
# benchmark refuses to run the proc_* workloads without it.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin splice-proc-worker 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2

# The process backend binds its sockets under TMPDIR. A path relative to
# the checkout keeps them inside it and short (the limit is 108 bytes)
# wherever the checkout lives.
mkdir -p "$CARGO_TARGET_DIR/tmp"
TMPDIR="$CARGO_TARGET_DIR/tmp"
export TMPDIR="${TMPDIR#"$PWD"/}"

exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
