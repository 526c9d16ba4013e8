#!/usr/bin/env bash
# Benchmark snapshot: runs the dependency-free measure/sinkhorn/spectrum/CSV/
# session-read timings (see crates/bench/src/bin/snapshot.rs) in release mode and writes
# them to BENCH_<date>.json at the repository root for trend tracking.
#
# Usage: scripts/bench_snapshot.sh [output-file]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_$(date +%Y%m%d).json}

echo "== build (release) =="
cargo build --release -q -p hc-bench --bin snapshot

echo "== snapshot -> $OUT =="
./target/release/snapshot > "$OUT"

# Fail loudly on a truncated or malformed run rather than committing garbage.
grep -q '"schema":"hc-bench-snapshot/v2"' "$OUT" || { echo "bad snapshot"; exit 1; }
grep -q '"bench":"measure.characterize"' "$OUT" || { echo "missing measure results"; exit 1; }
grep -q '"bench":"measure.characterize_warm"' "$OUT" || { echo "missing warm measure results"; exit 1; }
grep -q '"bench":"sinkhorn.balance"' "$OUT" || { echo "missing sinkhorn results"; exit 1; }
grep -q '"bench":"linalg.spectrum"' "$OUT" || { echo "missing spectrum results"; exit 1; }
grep -q '"bench":"spec.csv.parse"' "$OUT" || { echo "missing CSV reader results"; exit 1; }
grep -q '"bench":"session.get"' "$OUT" || { echo "missing session read lane"; exit 1; }
grep -q '"bench":"deadline_overhead"' "$OUT" || { echo "missing deadline overhead lane"; exit 1; }
grep -q '"bench":"recorder_overhead"' "$OUT" || { echo "missing recorder overhead lane"; exit 1; }
grep -q '"bench":"profiler_overhead"' "$OUT" || { echo "missing profiler overhead lane"; exit 1; }
grep -q '"bench":"tsdb_overhead"' "$OUT" || { echo "missing tsdb overhead lane"; exit 1; }
grep -q '"bench":"session_warm_vs_cold"' "$OUT" || { echo "missing session warm-vs-cold lane"; exit 1; }
grep -q '"bench":"keepalive_vs_reconnect"' "$OUT" || { echo "missing keepalive-vs-reconnect lane"; exit 1; }
grep -q '"allocs_per_call":' "$OUT" || { echo "missing allocation counts"; exit 1; }
echo "wrote $OUT"
