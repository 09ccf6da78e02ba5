#!/usr/bin/env bash
# Measures the benchmark's run-to-run spread and checks it against the
# bounds in BENCHMARK.json.
#
#   bash benchmark/noise.sh [-n RUNS] [--vary-seed] [-o SUMMARY.json] [--against SUMMARY.json]
#
# Each of RUNS rounds (default 5) runs every workload in BENCHMARK.json once
# at its run_seconds, alternating the workload order between rounds. For
# each end-to-end metric it prints the
# median, the quartiles, the quartile spread (Q3-Q1)/median and the max/min
# spread (max-min)/median.
#
# With one seed (42, the default) the rounds measure host noise alone: the
# exit status is non-zero when any metric's max/min spread exceeds its bound,
# or when a modelled metric (mean_ms, goodput) differs between runs.
# With --vary-seed round i uses seed i+1, which is how the benchmark's bounds
# are validated: the exit status is non-zero when any quartile spread other
# than setup_s exceeds a third of its bound.
#
# -o writes the per-workload medians to a file; --against compares this
# set's medians with such a file and fails when any metric is worse than
# the earlier median by more than its bound. Every run must report
# correct: true.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
config="$root/BENCHMARK.json"

runs=5
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$config")
workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$config")
vary=0
summary=""
against=""
while [ $# -gt 0 ]; do
	case "$1" in
	-n) runs=$2; shift 2 ;;
	--vary-seed) vary=1; shift ;;
	-o) summary=$2; shift 2 ;;
	--against) against=$2; shift 2 ;;
	*) echo "noise.sh: unknown argument $1" >&2; exit 2 ;;
	esac
done

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
work=$(mktemp -d "$out/noise.XXXXXX")
trap 'rm -rf "$work"' EXIT

read -r -a order <<<"$workloads"
for ((i = 0; i < runs; i++)); do
	seed=42
	if [ "$vary" = 1 ]; then seed=$((i + 1)); fi
	if ((i % 2 == 1)); then
		round=()
		for ((j = ${#order[@]} - 1; j >= 0; j--)); do round+=("${order[j]}"); done
	else
		round=("${order[@]}")
	fi
	for w in "${round[@]}"; do
		echo "run $((i + 1))/$runs: $w seed $seed" >&2
		if ! (cd "$root" && bash "$bench_dir/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) >"$work/out" 2>"$work/err"; then
			cat "$work/err" >&2
			echo "noise.sh: $w seed $seed failed" >&2
			exit 1
		fi
		tail -n 1 "$work/out" >>"$work/$w.jsonl"
	done
done

python3 - "$config" "$work" "$vary" "$summary" "$against" "$workloads" <<'EOF'
import json, statistics, sys

config, work, vary, summary, against, names = sys.argv[1:]
vary = vary == "1"
bench = json.load(open(config))
bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
modelled = {"mean_ms", "goodput"}
ok = True
medians = {}
for w in names.split():
    rows = [json.loads(line) for line in open(f"{work}/{w}.jsonl")]
    if not all(r["correct"] for r in rows):
        print(f"{w}: a run reported correct: false")
        ok = False
    print(f"\n{w} ({len(rows)} runs)")
    print(f"{'metric':18s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr%':>7s} {'max/min%':>8s} {'bound%':>7s}")
    medians[w] = {}
    for name, (bound, better) in bounds.items():
        v = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(v) - min(v)) / med if med else 0.0
        medians[w][name] = med
        flag = ""
        if vary:
            if name != "setup_s" and iqr > bound / 3:
                flag = "  <- quartile spread above bound/3"
        else:
            if name in modelled and len(set(v)) > 1:
                flag = "  <- modelled metric differs between runs"
            elif rng > bound:
                flag = "  <- max/min spread above bound"
        if flag:
            ok = False
        print(f"{name:18s} {med:14.6g} {q1:14.6g} {q3:14.6g} {100*iqr:7.2f} {100*rng:8.2f} {100*bound:7.2f}{flag}")
if summary:
    json.dump(medians, open(summary, "w"), indent=1, sort_keys=True)
if against:
    prev = json.load(open(against))
    print("\nmedian change against", against)
    for w, ms in medians.items():
        for name, med in ms.items():
            old = prev.get(w, {}).get(name)
            if old is None or old == 0:
                continue
            bound, better = bounds[name]
            worse = (med - old) / old if better == "lower" else (old - med) / old
            flag = "  <- worse by more than the bound" if worse > bound else ""
            if flag:
                ok = False
            print(f"{w:11s} {name:18s} {old:14.6g} -> {med:14.6g} {100*worse:+7.2f}%{flag}")
sys.exit(0 if ok else 1)
EOF
