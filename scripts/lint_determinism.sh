#!/usr/bin/env bash
# Determinism lint for the simulation output paths.
#
# Everything the simulator prints — experiment tables, serving reports,
# trace files — must be a pure function of (code, seed, flags). Tracing
# doubles down on this: tests assert a traced run is byte-identical to an
# untraced one. Three bug classes silently break that guarantee:
#
#   1. wall-clock reads (time.Now / time.Since / time.Sleep),
#   2. unseeded global math/rand,
#   3. iterating a Go map where the iteration order can reach output.
#
# This script greps the simulation packages for all three. A map-range over
# the known stateful maps is allowed only when the preceding line carries a
# "// deterministic:" comment explaining why order cannot leak (e.g. the
# loop computes an order-independent reduction).
set -euo pipefail
cd "$(dirname "$0")/.."

PKGS="internal/sim internal/simnet internal/engine internal/serving internal/cluster internal/trace internal/metrics internal/topology internal/faults internal/capacity internal/monitor internal/hostmem internal/gpumem internal/registry internal/costmodel internal/dnn internal/forecast internal/profiler internal/planner internal/plan internal/stream internal/pcm cmd/deepplan-capacity"
SRC=$(find $PKGS -name '*.go' ! -name '*_test.go')
fail=0

# 1. Wall-clock reads. Simulation code runs on the virtual clock only.
if grep -n 'time\.Now\|time\.Since\|time\.Sleep' $SRC; then
  echo "FAIL: wall-clock use in simulation packages (use sim.Time)" >&2
  fail=1
fi

# 2. math/rand in simulation packages: randomness belongs in
#    internal/workload behind an explicit seed, nowhere else.
if grep -n '"math/rand"' $SRC; then
  echo "FAIL: math/rand import in simulation packages (seeded randomness lives in internal/workload)" >&2
  fail=1
fi

# 3. Map iteration over simulation state without a justification note.
viol=$(awk '
  /\/\/ deterministic:/ { ok = 1; next }
  /^[ \t]*\/\// { next } # comment continuation keeps a pending note alive
  /for[ \t].*range[ \t].*(residents|deployments|NVLinks|entries)/ {
    if (!ok) print FILENAME ":" FNR ": " $0
    ok = 0; next
  }
  { ok = 0 }
' $SRC)
if [ -n "$viol" ]; then
  echo "$viol"
  echo "FAIL: map iteration over simulation state without a '// deterministic:' note" >&2
  echo "      (sort the keys, or explain why order cannot reach output)" >&2
  fail=1
fi

# 4. Goroutine launches in simulation packages. Every simulation runs on
#    one clock in one goroutine (DESIGN.md §10); concurrency belongs between
#    independent simulator instances (experiments/runner worker pools). A
#    `go` statement here must carry a "// deterministic:" note explaining
#    how the goroutine's effects are ordered (channel happens-before,
#    joins) so output stays a pure function of (code, seed, flags).
viol=$(awk '
  /\/\/ deterministic:/ { ok = 1; next }
  /^[ \t]*\/\// { next } # comment continuation keeps a pending note alive
  /^[ \t]*go[ \t]+(func[ \t(]|[A-Za-z_])/ {
    if (!ok) print FILENAME ":" FNR ": " $0
    ok = 0; next
  }
  { ok = 0 }
' $SRC)
if [ -n "$viol" ]; then
  echo "$viol"
  echo "FAIL: goroutine launch in simulation packages without a '// deterministic:' note" >&2
  echo "      (explain the synchronization that keeps output byte-identical, or move the concurrency out)" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "determinism lint: ok"
