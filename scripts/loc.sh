#!/usr/bin/env bash
# Non-test lines of Rust source, per file and per source directory.
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (at any indentation); a file without one counts whole. Unit tests sit
# at the end of each file here, so this is the code the crate ships.
#
# Usage: scripts/loc.sh [DIR...]   (default: every crates/*/src and src)
# Run from the repository root. Reports only; it checks nothing.
set -euo pipefail

if [ "$#" -eq 0 ]; then
    set -- crates/*/src src
fi

total=0
for dir in "$@"; do
    sum=0
    while IFS= read -r file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        printf '%7d  %s\n' "$n" "$file"
        sum=$((sum + n))
    done < <(find "$dir" -name '*.rs' | LC_ALL=C sort)
    printf '%7d  %s (total)\n\n' "$sum" "$dir"
    total=$((total + sum))
done
printf '%7d  all\n' "$total"
