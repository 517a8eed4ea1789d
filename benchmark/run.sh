#!/usr/bin/env bash
# The repo benchmark. Builds the benchmark's own workspace (release, offline,
# against ../vendor) and runs it, one process per workload so that
# peak_rss_mib is per workload.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of stdout is the result object
#   run.sh [--seed <n>]
#       every workload with tracing off, then every workload traced
#   run.sh --repeat-check | --spread [runs]
#       run-to-run agreement against the bounds of BENCHMARK.json (check.py)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

case "${1:-}" in
--repeat-check) exec python3 "$here/check.py" repeat ;;
--spread) exec python3 "$here/check.py" spread "${2:-10}" ;;
esac

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/maxwarp-benchmark"

if [[ " $* " == *" --workload "* ]]; then
    exec "$bin" "$@" --out-dir "$here/out"
fi

status=0
for trace in 0 1; do
    for workload in family_sweep rmat_large shard_bsp serve_cold serve_hot; do
        "$bin" --workload "$workload" --trace "$trace" "$@" --out-dir "$here/out" || status=1
    done
done
exit "$status"
