#!/usr/bin/env bash
# Regenerates the committed baseline: two sets of untraced runs (ten
# seeds per workload each), one traced run per workload, and the compare
# of the two sets.  Takes about 35 minutes on the 2-core sandbox.
set -euo pipefail
cd "$(dirname "$0")/../.."
out=benchmark/baseline
rm -f "$out"/set-a.jsonl "$out"/set-b.jsonl "$out"/traced.jsonl
workloads="point_rw olap_scan ingest_merge merge_embedded"
for set in a b; do
	for seed in 1 2 3 4 5 6 7 8 9 10; do
		[ "$set" = b ] && seed=$((seed + 100))
		for w in $workloads; do
			bash benchmark/run.sh --workload "$w" --seed "$seed" --out "$out/set-$set.jsonl" >/dev/null
		done
	done
done
for w in $workloads; do
	bash benchmark/run.sh --workload "$w" --seed 1 --trace 1 --out "$out/traced.jsonl" >/dev/null
done
bash benchmark/run.sh compare "$out/set-a.jsonl" "$out/set-b.jsonl" | tee "$out/compare.txt"
