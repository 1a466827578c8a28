#!/usr/bin/env bash
# Non-test lines of code per package, by one rule: in every `.rs` file
# under a package's `src/`, the non-blank lines that are not `//`
# comments (`///` and `//!` docs included), up to the file's first
# `#[cfg(test)]`. Integration tests, benches, examples and the vendored
# stand-ins under vendor/ are not counted.
#
#   scripts/loc.sh          the working tree (uncommitted edits included)
#   scripts/loc.sh <rev>    a `git archive` export of <rev>
#
# A change's LOC delta is the difference of two runs, e.g.
# `scripts/loc.sh HEAD~` against `scripts/loc.sh`.
set -euo pipefail

[ $# -le 1 ] || { echo "usage: $0 [rev]" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
tree=$root
if [ $# -eq 1 ]; then
    sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
    tree=$(mktemp -d)
    trap 'rm -rf "$tree"' EXIT
    git -C "$root" archive "$sha" | tar -x -C "$tree"
fi

# Reads file names on stdin; prints the rule's count over all of them.
count() {
    awk '{
        live = 1
        while ((getline line < $0) > 0) {
            if (line ~ /^[[:space:]]*#\[cfg\(test\)\]/) live = 0
            if (live && line !~ /^[[:space:]]*(\/\/|$)/) n++
        }
        close($0)
    } END { print n + 0 }'
}

total=0
for src in "$tree/src" "$tree"/crates/*/src; do
    [ -d "$src" ] || continue
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$src/../Cargo.toml" | head -n 1)
    n=$(find "$src" -name '*.rs' -not -path '*/target/*' | sort | count)
    printf '%-16s %7d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-16s %7d\n' total "$total"
