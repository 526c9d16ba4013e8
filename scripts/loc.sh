#!/usr/bin/env bash
# Counts the workspace's Rust lines by one fixed rule, per crate and in total.
#
#   non-test  the lines above each file's first `#[cfg(test)]` line, in every
#             `.rs` file under `crates/*/src` and `src/`
#   test      every other `.rs` line under `crates/`, `src/` and `tests/`
#             (test modules, `crates/*/tests`, the root `tests/`)
#   examples  every `.rs` line under `examples/`, on a line of its own
#   hcbench   every `.rs` line under `hcbench/` (its build output excluded),
#             on a line of its own
#
# Usage: scripts/loc.sh [repo-root]   (default: this script's repository)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Prints "<non-test> <all>" for the `.rs` files under the given directories;
# only files under `crates/*/src/` and `src/` have a non-test part.
count() {
    find "$@" -name '*.rs' -not -path '*/target/*' -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { in_src = (FILENAME ~ /^(crates\/[^\/]+\/)?src\//); past = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { past = 1 }
            { all++; if (in_src && !past) non++ }
            END { print non + 0, all + 0 }' |
        awk '{ non += $1; all += $2 } END { print non + 0, all + 0 }'
}

printf '%-10s %9s %9s\n' crate non-test test
total_non=0
total_test=0
row() {
    local name=$1 non all
    shift
    read -r non all < <(count "$@")
    printf '%-10s %9d %9d\n' "$name" "$non" "$((all - non))"
    total_non=$((total_non + non))
    total_test=$((total_test + all - non))
}
for dir in crates/*/; do
    dir=${dir%/}
    row "${dir#crates/}" "$dir"
done
row root src tests
printf '%-10s %9d %9d\n' total "$total_non" "$total_test"
read -r _ all < <(count examples)
printf '%-10s %9d\n' examples "$all"
read -r _ all < <(count hcbench)
printf '%-10s %9d\n' hcbench "$all"
