#!/usr/bin/env bash
# Paired parent-vs-change runs of benchmark workloads — the rule every
# performance claim in this repository is judged by (choosing-metrics §6
# and §8): at least ten pairs, alternating which side runs first; each
# side's median and quartiles. On the *claimed* (workload, metric) the
# change must win nine tenths of the pairs and move the median by more
# than the parent's own inter-quartile spread; on every other (metric,
# workload) its median must stay within the bound BENCHMARK.json fixes
# for the metric. A row reads `improved` when the median is better by
# more than the bound, `same` when it moved less, `WORSE` when it is
# worse by more; where the parent's own quartile spread is wider than
# the bound it reads `unresolved` instead — unless every run of the
# change is better than every run of the parent.
#
#   scripts/bench-pairs.sh <parent-rev> <workload[:metric]|all>... [pairs=10]
#   scripts/bench-pairs.sh --judge <dir> <workload[:metric]|all>...
#
# The first workload named is the claimed one, judged on `metric`
# (default sim_khz); `all` stands for every workload of BENCHMARK.json
# not already named (`all` alone: no claim, every row is a no-regression
# row). A trailing integer is the number of pairs. Each side is built
# once, whatever the number of workloads.
#
# `--judge <dir>` builds and runs nothing: it judges the sample files a
# comparison left in <dir> (`parent.<workload>.samples` and
# `change.<workload>.samples`, one run per line, one column per
# end-to-end metric in BENCHMARK.json order), the pair count being their
# line count. `all` then stands for the workloads <dir> has samples of.
# scripts/testdata/ holds sample sets the CI checks the verdicts of.
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

usage() {
    echo "usage: $0 <parent-rev> <workload[:metric]|all>... [pairs=10]" >&2
    echo "       $0 --judge <dir> <workload[:metric]|all>..." >&2
    exit 2
}
[ $# -ge 2 ] || usage
judge=
if [ "$1" = --judge ]; then
    judge=$2
    shift 2
    [ -d "$judge" ] || { echo "$0: no sample directory '$judge'" >&2; exit 2; }
else
    parent_rev=$1
    shift
    pairs=10
    case ${!#} in
        *[!0-9]*) ;;
        *) pairs=${!#}; set -- "${@:1:$#-1}" ;;
    esac
    [ "$pairs" -gt 0 ] || { echo "$0: pairs must be a positive integer, got '$pairs'" >&2; exit 2; }
fi
[ $# -ge 1 ] || usage
seed=${SEED:-1}

root=$(git rev-parse --show-toplevel)
manifest=crates/bench/src/bin/bench/Cargo.toml
work=${BENCH_PAIRS_DIR:-${TMPDIR:-/tmp}/essent-bench-pairs}

# BENCHMARK.json, one object per line: the workloads, and each end-to-end
# metric as name:better:bound (the column order of a samples file).
mapfile -t known < <(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$root/BENCHMARK.json")
mapfile -t metrics < <(sed -n \
    's/.*{"name": "\([a-z_]*\)", .*"better": "\([a-z]*\)", "bound": \([0-9.]*\)}.*/\1:\2:\3/p' \
    "$root/BENCHMARK.json")
[ ${#known[@]} -gt 0 ] && [ ${#metrics[@]} -gt 0 ] || {
    echo "$0: no workloads or end-to-end metrics found in BENCHMARK.json" >&2
    exit 2
}

# The claim: `<workload>[:<metric>]`, first on the command line.
claimed=
claim_metric=
if [ "$1" != all ]; then
    claimed=${1%%:*}
    claim_metric=sim_khz
    [ "$claimed" = "$1" ] || claim_metric=${1#*:}
    case " ${metrics[*]%%:*} " in
        *" $claim_metric "*) ;;
        *) echo "$0: no end-to-end metric '$claim_metric' (have: ${metrics[*]%%:*})" >&2; exit 2 ;;
    esac
    set -- "$claimed" "${@:2}"
fi
if [ -n "$judge" ]; then
    mapfile -t present < <(cd "$judge" && ls parent.*.samples 2>/dev/null |
        sed 's/^parent\.\(.*\)\.samples$/\1/')
fi
workloads=()
for w in "$@"; do
    if [ "$w" != all ]; then
        expansion=("$w")
    elif [ -n "$judge" ]; then
        expansion=(${present[@]+"${present[@]}"})
    else
        expansion=("${known[@]}")
    fi
    for e in ${expansion[@]+"${expansion[@]}"}; do
        case " ${workloads[*]-} " in *" $e "*) ;; *) workloads+=("$e") ;; esac
    done
done
[ ${#workloads[@]} -gt 0 ] || { echo "$0: no workloads to judge" >&2; exit 2; }

# Builds both sides and runs the pairs into $samples.
run_pairs() {
    local i order workload side
    sha=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
    echo "parent $sha, change: working tree of $root" >&2
    rm -rf "$work/parent" "$samples"
    mkdir -p "$work/parent" "$samples/parent" "$samples/change"
    git -C "$root" archive "$sha" | tar -x -C "$work/parent"
    build "$work/parent" "$work/target-parent"
    build "$root" "$work/target-change"
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
        for workload in "${workloads[@]}"; do
            for side in $order; do run "$side" "$workload"; done
            echo "pair $((i + 1))/$pairs, $workload:" \
                "parent $(tail -n 1 "$samples/parent.$workload.samples" | cut -d' ' -f1)," \
                "change $(tail -n 1 "$samples/change.$workload.samples" | cut -d' ' -f1) ${metrics[0]%%:*}" >&2
        done
    done
}

build() { # <source dir> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --quiet --manifest-path "$manifest")
}

# One run of one side on one workload; appends one value per end-to-end
# metric, in `metrics` order, to $samples/<side>.<workload>.samples. A
# failed or incorrect run aborts the comparison.
run() { # <side> <workload>
    local side=$1 workload=$2 line spec values= seconds=()
    [ -z "${RUN_SECONDS:-}" ] || seconds=(--seconds "$RUN_SECONDS")
    line=$(cd "$samples/$side" &&
        "$work/target-$side/release/bench" --workload "$workload" --seed "$seed" \
            ${seconds[@]+"${seconds[@]}"} --trace 0 2>/dev/null | tail -n 1)
    case $line in
        *'"correct": true'*'"failed": 0'*) ;;
        *) echo "$0: $side run of $workload failed: $line" >&2; exit 1 ;;
    esac
    for spec in "${metrics[@]}"; do
        values+=" $(sed -n "s/.*\"${spec%%:*}\": {\"value\": \([-0-9.eE+]*\).*/\1/p" <<<"$line")"
    done
    echo "${values# }" >>"$samples/$side.$workload.samples"
}

# Median and quartiles (linear interpolation) of column $2 of file $1.
quartiles() {
    cut -d' ' -f"$2" "$1" | sort -g | awk '
        { x[NR] = $1 }
        function q(p,   h, lo) { h = 1 + p * (NR - 1); lo = int(h); return x[lo] + (h - lo) * (x[lo < NR ? lo + 1 : lo] - x[lo]) }
        END { printf "%.6g %.6g %.6g", q(0.25), q(0.5), q(0.75) }'
}

# The quartile table, the claim's verdict and one no-regression verdict
# per other (metric, workload).
judge_samples() {
    local workload col spec name better bound pq1 pmed pq3 cq1 cmed cq3 wins claim= others=()
    if [ -n "$judge" ]; then
        printf '\nsamples of %s, %s pair(s)\n' "$judge" "$pairs"
    else
        printf '\nseed %s, %s pair(s), parent %s\n' "$seed" "$pairs" "${sha:0:12}"
    fi
    printf '%-20s %-12s %-7s %10s %10s %10s   %s\n' workload metric side q1 median q3 "pairs won by change"
    for workload in "${workloads[@]}"; do
        col=0
        for spec in "${metrics[@]}"; do
            col=$((col + 1))
            IFS=: read -r name better bound <<<"$spec"
            read -r pq1 pmed pq3 <<<"$(quartiles "$samples/parent.$workload.samples" $col)"
            read -r cq1 cmed cq3 <<<"$(quartiles "$samples/change.$workload.samples" $col)"
            wins=$(paste -d' ' "$samples/parent.$workload.samples" "$samples/change.$workload.samples" |
                awk -v c=$col -v n=${#metrics[@]} -v b="$better" '
                    { p = $c; ch = $(c + n); if (b == "higher" ? ch > p : ch < p) w++; else if (ch != p) l++ }
                    END { printf "%d won, %d lost, %d tied", w, l, NR - w - l }')
            printf '%-20s %-12s %-7s %10s %10s %10s\n' "$workload" "$name" parent "$pq1" "$pmed" "$pq3"
            printf '%-20s %-12s %-7s %10s %10s %10s   %s\n' "$workload" "$name" change "$cq1" "$cmed" "$cq3" "$wins"
            if [ "$workload" = "$claimed" ] && [ "$name" = "$claim_metric" ]; then
                claim=$(awk -v what="$name on $workload" -v w="${wins%% *}" -v n="$pairs" \
                    -v pm="$pmed" -v cm="$cmed" -v q1="$pq1" -v q3="$pq3" -v b="$better" 'BEGIN {
                        gain = b == "higher" ? cm - pm : pm - cm
                        held = 10 * w >= 9 * n && gain > q3 - q1
                        printf "%s: %s, %.3fx the parent median, %d/%d pairs, parent IQR %.4g", what,
                            held ? "gain holds" : "no gain shown", cm / pm, w, n, q3 - q1
                    }')
            else
                # Every change run better than every parent run: the
                # parent's extremes on the change's side of the bound.
                others+=("$(paste -d' ' "$samples/parent.$workload.samples" \
                    "$samples/change.$workload.samples" | awk -v c=$col -v n=${#metrics[@]} \
                    -v what="$name on $workload" -v pm="$pmed" -v cm="$cmed" \
                    -v q1="$pq1" -v q3="$pq3" -v b="$better" -v bound="$bound" '
                    {
                        p = $c; ch = $(c + n); if (b == "higher") { p = -p; ch = -ch }
                        if (NR == 1 || p < pbest) pbest = p
                        if (NR == 1 || ch > cworst) cworst = ch
                    }
                    END {
                        worse = b == "higher" ? (pm - cm) / pm : (cm - pm) / pm
                        spread = (q3 - q1) / pm
                        verdict = -worse > bound ? "improved" : worse > bound ? "WORSE" : "same"
                        if (spread > bound && cworst >= pbest) verdict = "unresolved"
                        printf "%-34s %-12s %+.1f%% against a bound of %g%%, parent IQR %.1f%% of its median",
                            what ":", verdict, -100 * worse, 100 * bound, 100 * spread
                    }')")
            fi
        done
    done
    echo
    [ -z "$claim" ] || echo "$claim"
    printf '%s\n' "${others[@]}"
}

if [ -n "$judge" ]; then
    samples=$judge
    for workload in "${workloads[@]}"; do
        for side in parent change; do
            [ -s "$samples/$side.$workload.samples" ] ||
                { echo "$0: no $samples/$side.$workload.samples" >&2; exit 2; }
        done
    done
    pairs=$(wc -l <"$samples/parent.${workloads[0]}.samples")
else
    samples=$work/run
    run_pairs
fi
judge_samples
