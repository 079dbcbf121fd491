#!/usr/bin/env bash
# Same-host A/B of the repository benchmark: a base revision against the
# working tree, in alternating pairs.
#
#     ./scripts/ab.sh <base-rev> [workload]
#
# Builds perfbench from `git archive <base-rev>` (cached per commit under
# target/ab/bin/) and from the working tree, then, for each workload in
# BENCHMARK.json (or just [workload]), runs 10 pairs of untraced runs of
# BENCHMARK.json's `run_seconds`, alternating which side runs first.
# Pair k runs seed k on both sides. It prints perfbench's host
# fingerprint, then per end-to-end metric each side's median [q1, q3],
# how many pairs the tree won (ties count for neither side), and a
# verdict. Direction and bound come from BENCHMARK.json's `end_to_end`:
#
#   regression  the tree's median is worse than the base's by more than
#               the bound
#   gain        the tree won at least 9 of 10 pairs and the medians differ
#               by more than the base's interquartile range
#   slower      the mirror of a gain (the tree lost at least 9 of 10 pairs
#               by more than the base's interquartile range), but within
#               the bound: a measured slowdown that is not a regression
#   unresolved  either side's interquartile range exceeds the bound, and
#               not every tree run beats every base run
#   (blank)     no verdict
#
# A failed or incorrect run, a larger failed share on the tree than on
# the base, or any regression exits 1. Every run's last line is kept in
# target/ab/<workload>.<side>.jsonl. Needs bash, git, cargo and python3.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <base-rev> [workload]" >&2
    exit 2
fi
base_sha=$(git rev-parse --verify "$1^{commit}")
pairs=10
work=target/ab
mkdir -p "$work"

run_seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ $# -eq 2 ]; then
    workloads=("$2")
else
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

# Builds the source tar on stdin into the binary $1. Both sides are
# unpacked at the same path, target/ab/src: the source paths compiled
# into the binary shift its code, and two builds of identical source
# from different directories differed by 22 % in rack_modes' sim_rate
# on a 2-vCPU Xeon VM.
# Fresh mtimes (-m) make cargo rebuild every crate from the new copy.
build_from_tar() {
    rm -rf "$work/src"
    mkdir -p "$work/src" "$work/bin"
    tar -x -m -C "$work/src"
    cargo build -q --offline --release --manifest-path "$work/src/perfbench/Cargo.toml" \
        --target-dir "$work/target"
    cp "$work/target/release/gfsc-perfbench" "$1"
}
# A commit's contents never change, so its build is reused.
base_bin="$work/bin/$base_sha"
if [ ! -x "$base_bin" ]; then
    echo "== building perfbench at ${base_sha:0:12}"
    git archive "$base_sha" | build_from_tar "$base_bin"
fi
echo "== building perfbench in the working tree"
tree_bin="$work/bin/tree"
git ls-files -z --cached --others --exclude-standard | tar --null -T - -c | build_from_tar "$tree_bin"

# One run; appends its result line to target/ab/<workload>.<side>.jsonl
# and keeps its fingerprint line. A crash is fatal; incorrect output is
# reported with the verdicts.
run_one() {
    local side=$1 bin=$2 workload=$3 seed=$4 out
    if ! out=$("$bin" --workload "$workload" --seed "$seed" --seconds "$run_seconds" --trace 0); then
        echo "ab: $side run of $workload (seed $seed) failed" >&2
        return 1
    fi
    printf '%s\n' "$out" | tail -n 2 | head -n 1 > "$work/$workload.fingerprint"
    printf '%s\n' "$out" | tail -n 1 >> "$work/$workload.$side.jsonl"
}

status=0
for workload in "${workloads[@]}"; do
    echo
    echo "== $workload: $pairs pairs of ${run_seconds} s runs, base ${base_sha:0:12} vs working tree"
    rm -f "$work/$workload.base.jsonl" "$work/$workload.tree.jsonl"
    for ((k = 1; k <= pairs; k++)); do
        if ((k % 2)); then
            run_one base "$base_bin" "$workload" "$k"
            run_one tree "$tree_bin" "$workload" "$k"
        else
            run_one tree "$tree_bin" "$workload" "$k"
            run_one base "$base_bin" "$workload" "$k"
        fi
        printf '  pair %d/%d done\n' "$k" "$pairs"
    done
    echo "host: $(cat "$work/$workload.fingerprint")"
    python3 - "$work/$workload.base.jsonl" "$work/$workload.tree.jsonl" <<'EOF' || status=1
import json
import statistics
import sys

metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
base = [json.loads(line) for line in open(sys.argv[1])]
tree = [json.loads(line) for line in open(sys.argv[2])]
failed = False


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def share(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


for side, runs in (("base", base), ("tree", tree)):
    bad = [i + 1 for i, r in enumerate(runs) if not r["correct"]]
    if bad:
        print(f"ab: {side} runs of seeds {bad} report incorrect output")
        failed = True
if share(tree) > share(base):
    print(f"ab: failed share rose from {share(base):.4f} to {share(tree):.4f}")
    failed = True

print(f"{'metric':<14} {'unit':<8} {'better':<7} {'bound':>5}  {'base median [q1, q3]':<34} "
      f"{'tree median [q1, q3]':<34} {'wins':>5}  verdict")
for m in metrics:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    b = [r["metrics"][name]["value"] for r in base]
    t = [r["metrics"][name]["value"] for r in tree]
    bq1, bmed, bq3 = quartiles(b)
    tq1, tmed, tq3 = quartiles(t)
    sign = 1.0 if higher else -1.0
    # How much better the tree is, as a fraction of the base: > 0 is better.
    gap = sign * (tmed - bmed) / abs(bmed) if bmed else 0.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(b, t))
    losses = sum(sign * (y - x) < 0 for x, y in zip(b, t))
    clear = abs(tmed - bmed) > bq3 - bq1
    every_tree_run_better = min(t) > max(b) if higher else max(t) < min(b)
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0, (tq3 - tq1) / abs(tmed) if tmed else 0.0)
    if -gap > bound:
        verdict = "REGRESSION"
        failed = True
    elif wins >= 0.9 * len(b) and clear and gap > 0:
        verdict = "gain"
    elif losses >= 0.9 * len(b) and clear and gap < 0:
        verdict = "slower"
    elif spread > bound and not every_tree_run_better:
        verdict = "unresolved"
    else:
        verdict = ""
    print(f"{name:<14} {m['unit']:<8} {m['better']:<7} {bound:>5.0%}  "
          f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':<34} "
          f"{f'{tmed:.4g} [{tq1:.4g}, {tq3:.4g}]':<34} {wins:>2}/{len(b):<2}  {verdict}")
sys.exit(1 if failed else 0)
EOF
done
exit "$status"
