#!/usr/bin/env bash
# Run every workload K times back to back (default 3) and print, per
# workload and end-to-end metric, the K values, their median and their
# largest relative spread, (max - min) / median, beside the bound from
# BENCHMARK.json. Exits non-zero when a spread exceeds half its bound.
#
#   perfbench/repeat.sh [K] > perfbench/REPEATABILITY.md
set -euo pipefail

k="${1:-3}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/openmb-perfbench"
seconds="$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')"

# name -> bound, from the end_to_end entries (the only ones with one).
bounds="$(tr -d '\n' < BENCHMARK.json | grep -o '"name": *"[^"]*", *"unit": *"[^"]*", *"better": *"[^"]*", *"bound": *[0-9.]*' |
    sed -E 's/"name": *"([^"]*)".*"bound": *([0-9.]*)/\1 \2/')"

echo "# Repeatability: $k back-to-back runs per workload"
echo
echo "\`nproc\` = $(nproc), $(uname -sm), $(date -u +%Y-%m-%d). Spread is (max - min) / median;"
echo "a spread above half its bound fails this script."
echo
echo "| workload | metric | values | median | spread | bound | |"
echo "|---|---|---|---|---|---|---|"

fail=0
for w in chain_fwd_64B move_live_1400B move_tcp_10k move_threads_2x; do
    lines=""
    for run in $(seq "$k"); do
        json="$("$bin" --workload "$w" --seed "$run" --seconds "$seconds" --trace 0 | tail -n 1)"
        # One "metric value" line per end-to-end metric of this run.
        lines+="$(grep -o '"[a-z_0-9]*": {"value": [-0-9.e]*' <<<"$json" |
            sed -E 's/"([^"]*)": \{"value": (.*)/\1 \2/')"$'\n'
    done
    while read -r metric bound; do
        row="$(awk -v m="$metric" -v b="$bound" '
            $1 == m { v[n++] = $2 }
            END {
                for (i = 0; i < n; i++) for (j = i + 1; j < n; j++)
                    if (v[j] < v[i]) { t = v[i]; v[i] = v[j]; v[j] = t }
                med = (n % 2) ? v[int(n / 2)] : (v[n / 2 - 1] + v[n / 2]) / 2
                spread = (v[n - 1] - v[0]) / med
                vals = ""
                for (i = 0; i < n; i++) vals = vals sprintf("%s%.4g", i ? " " : "", v[i])
                printf "%s | %.4g | %.2f%% | %.0f%% | %s", vals, med, 100 * spread, 100 * b,
                    (spread > b / 2) ? "FAIL" : "ok"
            }' <<<"$lines")"
        echo "| $w | $metric | $row |"
        [[ "$row" == *FAIL ]] && fail=1
    done <<<"$bounds"
done
exit "$fail"
