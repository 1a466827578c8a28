#!/usr/bin/env bash
# Paired parent-vs-change runs of one benchmark workload — the rule every
# performance claim in this repository is judged by (choosing-metrics §8):
# at least ten pairs, alternating which side runs first; each side's
# median and quartiles; the change must win nine tenths of the pairs and
# move the median by more than the parent's own inter-quartile spread.
#
#   scripts/bench-pairs.sh <parent-rev> <workload> [pairs=10]
#
# Both sides are built from the benchmark's own manifest
# (crates/bench/src/bin/bench/Cargo.toml), exactly as BENCHMARK.json's
# command builds them: the parent from a `git archive` export of
# <parent-rev>, the change from the working tree as it stands
# (uncommitted edits included). Checkouts, build outputs and run
# directories live under $BENCH_PAIRS_DIR (default: a directory under
# $TMPDIR), never in the repository.
#
# Environment: SEED (default 1), RUN_SECONDS (default: the benchmark's
# own, BENCHMARK.json's `run_seconds`), BENCH_PAIRS_DIR.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <parent-rev> <workload> [pairs=10]" >&2
    exit 2
fi
parent_rev=$1
workload=$2
pairs=${3:-10}
case $pairs in
    '' | *[!0-9]* | 0) echo "$0: pairs must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac
seed=${SEED:-1}

root=$(git rev-parse --show-toplevel)
manifest=crates/bench/src/bin/bench/Cargo.toml
work=${BENCH_PAIRS_DIR:-${TMPDIR:-/tmp}/essent-bench-pairs}
sha=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")

echo "parent $sha, change: working tree of $root" >&2
rm -rf "$work/parent" "$work/run"
mkdir -p "$work/parent" "$work/run/parent" "$work/run/change"
git -C "$root" archive "$sha" | tar -x -C "$work/parent"

build() { # <source dir> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --quiet --manifest-path "$manifest")
}
build "$work/parent" "$work/target-parent"
build "$root" "$work/target-change"

seconds=()
if [ -n "${RUN_SECONDS:-}" ]; then
    seconds=(--seconds "$RUN_SECONDS")
fi

# One run of one side; appends "<sim_khz> <setup_s> <peak_rss_mb>" to
# $work/<side>.samples. A failed or incorrect run aborts the comparison.
run() { # <side>
    local side=$1 line
    line=$(cd "$work/run/$side" &&
        "$work/target-$side/release/bench" --workload "$workload" --seed "$seed" \
            ${seconds[@]+"${seconds[@]}"} --trace 0 2>/dev/null | tail -n 1)
    case $line in
        *'"correct": true'*'"failed": 0'*) ;;
        *) echo "$0: $side run failed: $line" >&2; exit 1 ;;
    esac
    metric() { sed -n "s/.*\"$1\": {\"value\": \([-0-9.eE+]*\).*/\1/p" <<<"$line"; }
    echo "$(metric sim_khz) $(metric setup_s) $(metric peak_rss_mb)" >>"$work/$side.samples"
}

: >"$work/parent.samples"
: >"$work/change.samples"
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do run "$side"; done
    echo "pair $((i + 1))/$pairs: parent $(tail -n 1 "$work/parent.samples" | cut -d' ' -f1) kHz," \
        "change $(tail -n 1 "$work/change.samples" | cut -d' ' -f1) kHz" >&2
done

# Median and quartiles (linear interpolation) of column $2 of file $1.
quartiles() {
    cut -d' ' -f"$2" "$1" | sort -g | awk '
        { x[NR] = $1 }
        function q(p,   h, lo) { h = 1 + p * (NR - 1); lo = int(h); return x[lo] + (h - lo) * (x[lo < NR ? lo + 1 : lo] - x[lo]) }
        END { printf "%.6g %.6g %.6g", q(0.25), q(0.5), q(0.75) }'
}

printf '\n%s, seed %s, %s pair(s), parent %s\n' "$workload" "$seed" "$pairs" "${sha:0:12}"
printf '%-12s %-7s %12s %12s %12s   %s\n' metric side q1 median q3 "pairs won by change"
col=0
verdict=
for spec in sim_khz:higher setup_s:lower peak_rss_mb:lower; do
    col=$((col + 1))
    name=${spec%%:*}
    better=${spec##*:}
    read -r pq1 pmed pq3 <<<"$(quartiles "$work/parent.samples" $col)"
    read -r cq1 cmed cq3 <<<"$(quartiles "$work/change.samples" $col)"
    wins=$(paste -d' ' "$work/parent.samples" "$work/change.samples" | awk -v c=$col -v b="$better" '
        { p = $c; ch = $(c + 3); if (b == "higher" ? ch > p : ch < p) w++; else if (ch != p) l++ }
        END { printf "%d won, %d lost, %d tied", w, l, NR - w - l }')
    printf '%-12s %-7s %12s %12s %12s\n' "$name" parent "$pq1" "$pmed" "$pq3"
    printf '%-12s %-7s %12s %12s %12s   %s\n' "$name" change "$cq1" "$cmed" "$cq3" "$wins"
    if [ "$name" = sim_khz ]; then
        verdict=$(awk -v w="${wins%% *}" -v n="$pairs" -v pm="$pmed" -v cm="$cmed" -v q1="$pq1" -v q3="$pq3" 'BEGIN {
            ratio = cm / pm
            if (10 * w >= 9 * n && cm - pm > q3 - q1)
                printf "sim_khz gain holds: %.3fx the parent median, %d/%d pairs, past the parent IQR (%.4g kHz)", ratio, w, n, q3 - q1
            else
                printf "no sim_khz gain shown: %.3fx the parent median, %d/%d pairs, parent IQR %.4g kHz", ratio, w, n, q3 - q1
        }')
    fi
done
echo "$verdict"
