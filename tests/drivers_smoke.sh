#!/usr/bin/env bash
# Driver smoke (`ctest -L smoke`): every table/figure driver no other
# smoke runs finishes at a tiny scale and prints its table titles.
#
# The figure drivers run at --scale=0.005 --instr-scale=0.05 --jobs=2;
# table2_architectures validates on vector-operation.
# sampling_diagnostics runs canneal at 8 threads with a 1% adaptive
# target, a run whose sampling phase the detailed-instruction budget
# closes: it must say "stopped by budget cap", as the figure drivers'
# diagnostics tables do for the same run.
#
# Usage: drivers_smoke.sh <table1> <table2> <ablation> <fig01> <fig05>
#                         <fig08> <sampling-diagnostics>
set -euo pipefail

table1="$1"
table2="$2"
ablation="$3"
fig01="$4"
fig05="$5"
fig08="$6"
diagnostics="$7"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

tiny=(--scale=0.005 --instr-scale=0.05 --jobs=2)

# run <name> <binary> <args...>: the driver must exit 0.
run() {
    local name="$1"
    shift
    echo "--- $name"
    "$@" >"$work/$name.out" 2>"$work/$name.err" || {
        echo "$name failed" >&2
        cat "$work/$name.err" >&2
        return 1
    }
}

# shows <name> <text...>: each text appears in the driver's stdout.
shows() {
    local name="$1"
    shift
    for text in "$@"; do
        grep -qF -- "$text" "$work/$name.out" || {
            echo "$name: stdout lacks '$text'" >&2
            return 1
        }
    done
}

run table1 "$table1" "${tiny[@]}"
shows table1 "Table I: task-based parallel benchmarks"

run table2 "$table2" --validate --workload=vector-operation \
    --scale=0.03125 --jobs=2
shows table2 "Table II: architectural parameters" \
    "model validation (lazy sampling vs detailed reference)"

run ablation "$ablation" "${tiny[@]}"
shows ablation "Ablation: concurrency-trigger hysteresis K" \
    "Ablation: concurrency dead-band tolerance" \
    "Ablation: rare-type sampling cutoff R" \
    "Ablation: runtime scheduler policy" \
    "Ablation: adaptive sampling frontier"

run fig01 "$fig01" "${tiny[@]}"
shows fig01 "Fig. 1: IPC variation per task instance"

run fig05 "$fig05" "${tiny[@]}"
shows fig05 "Fig. 5: IPC variation per task instance"

run fig08 "$fig08" "${tiny[@]}"
shows fig08 "Fig. 8: periodic sampling (P=250), low-power — absolute" \
    "Fig. 8: periodic sampling (P=250), low-power — simulation speedup"

run diagnostics "$diagnostics" --workload=canneal --scale=0.02 \
    --target-error=1%
shows diagnostics "per-type IPC diagnosis" "stopped by budget cap"

echo "drivers smoke ok"
