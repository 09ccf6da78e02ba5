#!/usr/bin/env bash
# Snapshot the substrate micro-benchmarks to BENCH_<date>.json so the perf
# trajectory (ns/op, B/op, allocs/op) is tracked from PR to PR. Each
# benchmark runs BENCH_COUNT times (default 5); the snapshot records the
# median ns/op, a typical run rather than a lucky one, because
# scripts/bench_compare.sh gates a best-of-3 fresh run against it. B/op and
# allocs/op record the minimum, as the gate reads them. Packages run one at
# a time (-p 1), as in the gate.
#
# Usage:
#   scripts/bench.sh                 # defaults: substrate set, -benchtime 2x
#   BENCH_TIME=10x scripts/bench.sh  # more iterations for stabler numbers
#   BENCH_COUNT=9 scripts/bench.sh   # median of 9 runs instead of 5
#   BENCH_PATTERN='BenchmarkSimnet.*' scripts/bench.sh
#   BENCH_DATE=2026-08-06 scripts/bench.sh  # pin the snapshot name
set -euo pipefail
cd "$(dirname "$0")/.."

source scripts/bench_set.sh
benchtime=${BENCH_TIME:-2x}
count=${BENCH_COUNT:-5}
out="BENCH_${BENCH_DATE:-$(date +%Y-%m-%d)}.json"

raw=$(go test -p 1 -run '^$' -bench "$bench_pattern" -benchmem -benchtime "$benchtime" -count "$count" "${bench_pkgs[@]}")
echo "$raw"

{
  printf '{\n'
  printf '  "date": "%s",\n' "${BENCH_DATE:-$(date +%Y-%m-%d)}"
  printf '  "go": "%s",\n' "$(go env GOVERSION)"
  printf '  "cpus": %s,\n' "$(nproc 2>/dev/null || echo 1)"
  printf '  "benchtime": "%s",\n' "$benchtime"
  printf '  "count": %s,\n' "$count"
  printf '  "benchmarks": [\n'
  echo "$raw" | awk '
    /^Benchmark/ {
      # Find each value by its unit: custom metrics (ns/event) shift columns.
      name = $1; sub(/-[0-9]+$/, "", name)
      for (i = 3; i < NF; i++) v[$(i+1)] = $i
      if (!(name in runs)) { order[++m] = name; it[name] = $2; by[name] = v["B/op"]; al[name] = v["allocs/op"] }
      ns[name, ++runs[name]] = v["ns/op"]
      if (v["B/op"] + 0 < by[name] + 0) by[name] = v["B/op"]
      if (v["allocs/op"] + 0 < al[name] + 0) al[name] = v["allocs/op"]
    }
    END {
      for (k = 1; k <= m; k++) {
        name = order[k]; r = runs[name]
        # Insertion-sort the runs; the median is the middle (lower middle).
        for (i = 1; i <= r; i++) s[i] = ns[name, i]
        for (i = 2; i <= r; i++)
          for (j = i; j > 1 && s[j-1] + 0 > s[j] + 0; j--) { t = s[j]; s[j] = s[j-1]; s[j-1] = t }
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", name, it[name], s[int((r + 1) / 2)], by[name], al[name], (k < m ? "," : "")
      }
    }'
  printf '  ]\n}\n'
} >"$out"

echo "wrote $out"
