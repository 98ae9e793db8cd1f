#!/usr/bin/env bash
# Non-test Rust lines under crates/, the measure ROADMAP.md's line
# trajectory uses: each tracked .rs file is counted up to the first line
# that starts with `#[cfg(test)]`, after any leading whitespace (the whole
# file when none does), then summed per crate and in total. A line that
# only mentions the attribute, a comment say, does not end the count.
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files 'crates/*.rs' | while read -r f; do
    crate=${f#crates/}
    n=$(awk '/^[ \t]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    echo "${crate%%/*} $n"
done | awk '
    { lines[$1] += $2; total += $2 }
    END {
        for (c in lines) printf "%-12s %6d\n", c, lines[c] | "sort -k2,2nr"
        close("sort -k2,2nr")
        printf "%-12s %6d\n", "total", total
    }'
