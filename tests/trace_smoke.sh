#!/usr/bin/env bash
# Execution-trace smoke (`ctest -L trace`).
#
# Proves the tracing contract end to end on a checked-in golden plan:
#
#  1. `--trace-out`/`--trace-stats` leave the deterministic CSV
#     report byte-identical to the untraced run (and to the golden).
#  2. The Chrome trace-event document is valid JSON (when python3 is
#     available), Perfetto-loadable in shape, and byte-stable across
#     reruns — it contains no wall-clock fields.
#  3. The same flags work across every execution mode: in-process,
#     --workers=2, and a distributed dispatch campaign with two local
#     runners — all three produce the identical stripped CSV, and
#     the multi-process trace documents are byte-identical to the
#     in-process one (timelines ship through the result streams and
#     merge in submission order).
#  4. A figure driver running two plans into one document
#     (fig06_sensitivity: references, then a sweep) numbers its jobs
#     run-wide: one process name per trace pid, one stats row per
#     (job, core).
#  5. Every driver's documents come from the one executor: a figure
#     driver's equal replay_plan's of the plan it saved, and a
#     two-plan driver's (ablation_sampling) are identical in-process
#     and under --workers=2, one process name per pid.
#
# Usage: trace_smoke.sh <replay-plan-binary> <dispatch-binary>
#                       <golden-dir> <fig06-binary> <fig07-binary>
#                       <ablation-binary>
set -euo pipefail

replay="$1"
dispatch="$2"
golden_dir="$3"
fig06="$4"
fig07="$5"
ablation="$6"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

plan="$golden_dir/fig07_histogram_spmv.tpplan"
golden="$golden_dir/fig07_histogram_spmv.golden.csv"
test -f "$plan"
test -f "$golden"

strip_host_cols() {
    # The two host-timing columns are last by design (see CsvSink).
    sed -E 's/(,[^,]*){2}$//' "$1"
}

json_check() {
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$1" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "empty traceEvents"
phases = {e["ph"] for e in events}
assert "X" in phases and "M" in phases, phases
print(f"{sys.argv[1]}: {len(events)} events ok")
EOF
    else
        # Fallback shape check without a JSON parser.
        grep -q '"traceEvents"' "$1"
        grep -q '"ph":"X"' "$1"
    fi
}

# --- 1. untraced baseline vs golden -------------------------------
"$replay" --plan="$plan" --csv="$work/plain.csv" \
    >"$work/plain.out" 2>&1
strip_host_cols "$work/plain.csv" >"$work/plain.stripped.csv"
diff -u "$golden" "$work/plain.stripped.csv"

# --- 2. traced in-process run: CSV identical, JSON valid ----------
"$replay" --plan="$plan" --csv="$work/traced.csv" \
    --trace-out="$work/trace.json" \
    --trace-stats="$work/stats.csv" >"$work/traced.out" 2>&1
strip_host_cols "$work/traced.csv" >"$work/traced.stripped.csv"
diff -u "$golden" "$work/traced.stripped.csv"
json_check "$work/trace.json"

# Per-core stats: header plus one row per (job, core).
head -1 "$work/stats.csv" | grep -q '^index,label,core,tasks,'
test "$(wc -l <"$work/stats.csv")" -gt 1

# --- 3. trace byte-stability across reruns ------------------------
"$replay" --plan="$plan" --trace-out="$work/trace2.json" \
    >"$work/rerun.out" 2>&1
cmp "$work/trace.json" "$work/trace2.json"

# --- 4. --workers=2: same CSV, same trace document ----------------
"$replay" --plan="$plan" --workers=2 --csv="$work/workers.csv" \
    --trace-out="$work/workers.json" >"$work/workers.out" 2>&1
strip_host_cols "$work/workers.csv" >"$work/workers.stripped.csv"
diff -u "$golden" "$work/workers.stripped.csv"
cmp "$work/trace.json" "$work/workers.json"

# --- 5. dispatch campaign with two runners ------------------------
"$dispatch" --plan="$plan" --runners=2 --shards=3 \
    --spool="$work/spool" --csv="$work/dispatch.csv" \
    --trace-out="$work/dispatch.json" \
    --trace-stats="$work/dispatch-stats.csv" \
    >"$work/dispatch.out" 2>&1
strip_host_cols "$work/dispatch.csv" >"$work/dispatch.stripped.csv"
diff -u "$golden" "$work/dispatch.stripped.csv"
cmp "$work/trace.json" "$work/dispatch.json"
cmp "$work/stats.csv" "$work/dispatch-stats.csv"
json_check "$work/dispatch.json"

# --- 6. multi-plan figure driver: jobs numbered run-wide ----------
"$fig06" --scale=0.005 --instr-scale=0.05 \
    --trace-out="$work/fig06.json" \
    --trace-stats="$work/fig06-stats.csv" >"$work/fig06.out" 2>&1
json_check "$work/fig06.json"
grep '"ph":"M"' "$work/fig06.json" | grep '"name":"process_name"' |
    sed -E 's/.*"pid":([0-9]+),.*/\1/' >"$work/fig06.pids"
test -s "$work/fig06.pids"
test -z "$(sort "$work/fig06.pids" | uniq -d)" # one name per pid
test -z "$(tail -n +2 "$work/fig06-stats.csv" | cut -d, -f1,3 |
    sort | uniq -d)" # one row per (job, core)

# --- 7. figure drivers: replay_plan's documents, numbered run-wide ---
tiny=(--scale=0.005 --instr-scale=0.05)
"$fig07" --benchmarks=histogram,cholesky "${tiny[@]}" \
    --save-plan="$work/fig07.tpplan" --trace-out="$work/fig07.json" \
    --trace-stats="$work/fig07-stats.csv" >"$work/fig07.out" 2>&1
"$fig07" --benchmarks=histogram,cholesky "${tiny[@]}" --workers=2 \
    --trace-out="$work/fig07-w.json" \
    --trace-stats="$work/fig07-w-stats.csv" >"$work/fig07-w.out" 2>&1
"$replay" --plan="$work/fig07.tpplan" \
    --trace-out="$work/fig07-replay.json" \
    --trace-stats="$work/fig07-replay-stats.csv" \
    >"$work/fig07-replay.out" 2>&1
cmp "$work/fig07.json" "$work/fig07-w.json"
cmp "$work/fig07.json" "$work/fig07-replay.json"
cmp "$work/fig07-stats.csv" "$work/fig07-w-stats.csv"
cmp "$work/fig07-stats.csv" "$work/fig07-replay-stats.csv"

"$ablation" "${tiny[@]}" --trace-out="$work/ablation.json" \
    --trace-stats="$work/ablation-stats.csv" >"$work/ablation.out" 2>&1
"$ablation" "${tiny[@]}" --workers=2 \
    --trace-out="$work/ablation-w.json" \
    --trace-stats="$work/ablation-w-stats.csv" \
    >"$work/ablation-w.out" 2>&1
cmp "$work/ablation.json" "$work/ablation-w.json"
cmp "$work/ablation-stats.csv" "$work/ablation-w-stats.csv"
grep '"ph":"M"' "$work/ablation.json" |
    grep '"name":"process_name"' |
    sed -E 's/.*"pid":([0-9]+),.*/\1/' >"$work/ablation.pids"
test -s "$work/ablation.pids"
test -z "$(sort "$work/ablation.pids" | uniq -d)" # one name per pid

echo "trace smoke ok"
