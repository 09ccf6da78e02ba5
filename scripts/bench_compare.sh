#!/usr/bin/env bash
# Regression gate for the substrate micro-benchmarks: re-run the bench.sh
# set and diff the fresh numbers against the latest committed BENCH_*.json
# snapshot. Any benchmark whose ns/op or allocs/op regresses by more than
# BENCH_THRESHOLD percent (default 15) fails the gate. Benchmarks with no
# baseline entry are reported but never fail (the set is allowed to grow).
#
# Timing noise: each benchmark runs BENCH_COUNT times (default 3) and the
# minimum ns/op is compared, so only regressions that survive the best of N
# runs fail the gate; allocs/op is deterministic and compared directly.
# Packages run one at a time (-p 1) so that no two benchmarks share the CPU.
#
# Usage:
#   scripts/bench_compare.sh
#   BENCH_THRESHOLD=25 scripts/bench_compare.sh   # looser gate
#   BENCH_TIME=10x scripts/bench_compare.sh       # stabler timing numbers
set -euo pipefail
cd "$(dirname "$0")/.."

threshold=${BENCH_THRESHOLD:-15}
benchtime=${BENCH_TIME:-2x}
count=${BENCH_COUNT:-3}
source scripts/bench_set.sh

# Byte order, so BENCH_<date>b.json sorts after BENCH_<date>.json.
baseline=$(git ls-files 'BENCH_*.json' | LC_ALL=C sort | tail -1)
if [ -z "$baseline" ]; then
  echo "bench_compare: no committed BENCH_*.json snapshot to compare against" >&2
  exit 1
fi
echo "bench_compare: baseline $baseline, threshold ${threshold}%, benchtime $benchtime, best of $count"

raw=$(go test -p 1 -run '^$' -bench "$bench_pattern" -benchmem -benchtime "$benchtime" -count "$count" "${bench_pkgs[@]}")

echo "$raw" | awk -v threshold="$threshold" -v baseline="$baseline" '
  BEGIN {
    # Pull {name, ns_per_op, allocs_per_op} out of the snapshot; each
    # benchmark is one line of flat JSON written by scripts/bench.sh.
    while ((getline line < baseline) > 0) {
      if (line !~ /"name"/) continue
      gsub(/[",{}\[\]]/, "", line)
      n = split(line, f, /[: ]+/)
      name = ""
      for (i = 1; i <= n; i++) {
        if (f[i] == "name") name = f[i+1]
        else if (f[i] == "ns_per_op") base_ns[name] = f[i+1]
        else if (f[i] == "allocs_per_op") base_al[name] = f[i+1]
      }
    }
    close(baseline)
    printf "%-36s %14s %14s %8s %10s %8s\n", "benchmark", "base ns/op", "ns/op", "d%", "allocs/op", "d%"
    fail = 0
  }
  function pct(fresh, base) {
    if (base == 0) return fresh > 0 ? 1e9 : 0
    return (fresh - base) * 100.0 / base
  }
  /^Benchmark/ {
    # Repeated -count runs fold into the per-benchmark minimum. Values are
    # found by unit, since custom metrics (ns/event) shift the columns.
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 3; i < NF; i++) v[$(i+1)] = $i
    ns = v["ns/op"]; al = v["allocs/op"]
    if (!(name in fresh_ns)) { order[++m] = name; fresh_ns[name] = ns; fresh_al[name] = al }
    if (ns + 0 < fresh_ns[name] + 0) fresh_ns[name] = ns
    if (al + 0 < fresh_al[name] + 0) fresh_al[name] = al
  }
  END {
    for (k = 1; k <= m; k++) {
      name = order[k]
      if (!(name in base_ns)) {
        printf "%-36s %14s %14s %8s %10s %8s  (new, no baseline)\n", name, "-", fresh_ns[name], "-", fresh_al[name], "-"
        continue
      }
      seen[name] = 1
      dns = pct(fresh_ns[name], base_ns[name])
      dal = pct(fresh_al[name], base_al[name])
      flag = ""
      if (dns > threshold || dal > threshold) { flag = "  REGRESSION"; fail = 1 }
      printf "%-36s %14d %14d %+7.1f%% %10d %+7.1f%%%s\n", name, base_ns[name], fresh_ns[name], dns, fresh_al[name], dal, flag
    }
    for (name in base_ns) if (!(name in seen))
      printf "%-36s missing from fresh run (pattern drift?)\n", name
    if (fail) {
      printf "bench_compare: FAIL — regression beyond %s%% against %s\n", threshold, baseline
      exit 1
    }
    printf "bench_compare: OK — no regression beyond %s%% against %s\n", threshold, baseline
  }
'
