#!/usr/bin/env bash
# Instrumentation-spine lint for internal/serving.
#
# Every serving event reaches the series' telemetry columns and the
# monitor registry through one emission point, Server.emit, and the few
# non-event observations (latency samples, queue depth, busy time, gauges)
# live beside it in instruments.go. A sink touched from anywhere else is a
# second, hand-kept copy of a number that the spine's table can no longer
# keep in agreement with the Report. This script fails if any file in
# internal/serving other than instruments.go references srv.ins or calls
# one of the series' recording methods (Record, Arrival, Count, Busy).
#
# Likewise a fleet report is serving.Summarize over the nodes, the one
# derivation a node's own report uses. Non-test internal/cluster code that
# builds a metrics.Digest is re-deriving percentiles or goodput by hand, so
# the script fails on that too.
#
# Outside the node there is one serving path: every serving point is a
# cluster (cluster.New, one node for the paper's single server), and only
# the cluster maps a workload onto (model, key) arrivals, with
# Cluster.Requests or ZooRequests. So non-test Go outside internal/serving,
# internal/cluster and benchmark/ may not call serving.New, and non-test Go
# outside internal/cluster and benchmark/ may not build a cluster.Request
# (or facade ClusterRequest) literal.
#
# An execution mode has one definition: plan.Mode and its constants in
# internal/plan, which serving.Policy and deepplan.Mode alias. Code that
# compares a mode or policy field to a spelled-out name ("baseline") keeps
# a second, untyped copy the compiler cannot check, so non-test Go outside
# internal/plan and benchmark/ may not compare a .Mode or .Policy field to
# a non-empty string literal (use the plan.Mode* constants).
#
# A GPU stream is the engine's: its load, migration and execution streams
# couple through Record and Wait (§4.3.4), and the two hand-built
# experiment simulators drive their own. Anything else that ran work on a
# stream would be a second engine, so non-test Go outside internal/engine,
# internal/experiments and benchmark/ may not import internal/stream.
#
# A run gives back exactly the GPU and instance state it took, and an
# instance gives back exactly the residency it claimed. So in non-test
# internal/serving code a statement that changes .inflight, .loading,
# .activeColds or .secondaryColds, or sets or deletes a residents entry,
# must sit in launch or (*run).done (a run's counts) or in claim or release
# (residency). The one exception is .inflight in llm.go, where decode
# sequences hold the instance busy past their prefill run.
set -euo pipefail
cd "$(dirname "$0")/.."

if grep -nE 'srv\.ins\b|\bseries\.(Record|Arrival|Count|Busy)\(' internal/serving/*.go | grep -v '^internal/serving/instruments\.go:'; then
  echo "FAIL: series recorded into or monitor sinks used outside internal/serving/instruments.go (emit through the spine)" >&2
  exit 1
fi
if grep -nE 'metrics\.Digest\b' internal/cluster/*.go | grep -v '_test\.go:'; then
  echo "FAIL: internal/cluster derives latency figures itself (use serving.Summarize)" >&2
  exit 1
fi
SRC=$(find . -path ./benchmark -prune -o -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print)
if grep -nE 'serving\.New\(' $SRC | grep -vE '^\./internal/(serving|cluster)/'; then
  echo "FAIL: serving.New outside internal/serving and internal/cluster (run the point as a cluster)" >&2
  exit 1
fi
if grep -nE '(cluster\.Request|ClusterRequest)\{' $SRC | grep -vE '^\./internal/cluster/'; then
  echo "FAIL: arrivals addressed outside internal/cluster (use Cluster.Requests or ZooRequests)" >&2
  exit 1
fi
if grep -nE '\.(Mode|Policy) *[!=]= *"[^"]' $SRC | grep -vE '^\./internal/plan/'; then
  echo "FAIL: mode or policy compared to a string literal (use the plan.Mode constants)" >&2
  exit 1
fi
if grep -nE '"deepplan/internal/stream"' $SRC | grep -vE '^\./internal/(engine|experiments)/'; then
  echo "FAIL: internal/stream imported outside internal/engine and internal/experiments (run GPU work through the engine)" >&2
  exit 1
fi
if awk '
  /^func / { fn = $0 }
  /\.(inflight|loading|activeColds|secondaryColds) *(\+\+|--|[-+]?=[^=])|residents\[[^]]*\] *=[^=]|delete\([^,]*residents,/ {
    if (fn ~ /^func \(srv \*Server\) (launch|claim|release)\(|^func \(r \*run\) done\(/) next
    if (FILENAME ~ /llm\.go$/ && $0 ~ /\.inflight *(\+\+|--|[-+]=)/ && $0 !~ /\.(loading|activeColds|secondaryColds)|residents/) next
    printf "%s:%d: %s\n", FILENAME, FNR, $0; bad = 1
  }
  END { exit !bad }
' $(ls internal/serving/*.go | grep -v '_test\.go$'); then
  echo "FAIL: run or residency state changed outside launch, (*run).done, claim and release" >&2
  exit 1
fi
echo "instruments lint: ok"
