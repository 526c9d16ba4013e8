#!/usr/bin/env bash
# Builds `hcm` and the benchmark from source, then runs one workload.
#
#   bash hcbench/run.sh --workload <measure_small|ensemble_large|session_edits> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's own messages go to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p hc-cli --bin hcm 1>&2
cargo build --release --offline --quiet --manifest-path hcbench/Cargo.toml 1>&2
exec "$target/release/hcbench" --hcm "$target/release/hcm" --out "$target/hcbench" "$@"
