#!/usr/bin/env bash
# Prints the workspace's non-test Rust line counts, the rule CHANGES.md
# records before and after each change:
#   - files: `find crates/*/src src -name '*.rs'`;
#   - each file is cut at its first line starting `#[cfg(test)]`;
#   - total = the lines kept; code = total minus blank and `//` lines.
# Run from anywhere: scripts/loc.sh counts the checkout it lives in.
set -euo pipefail
cd "$(dirname "$0")/.."
mapfile -t files < <(find crates/*/src src -name '*.rs')
awk '
    FNR == 1 { cut = 0 }
    /^#\[cfg\(test\)\]/ { cut = 1 }
    cut { next }
    { total++ }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { code++ }
    END { printf "total %d\ncode %d\n", total, code }
' "${files[@]}"
