#!/usr/bin/env bash
# Smoke test of multi-process execution (`ctest -L worker`):
#
#  1. Two figure drivers each run once in-process (--jobs=2) and once
#     as a local dispatch campaign of three spawned runners
#     (--workers=3); the deterministic report (everything before the
#     wall-clock speedup table) must be byte-identical.
#  2. The first driver runs again with --workers=3 while a fault
#     plan (`once` marker + `on worker.stream.append 1 abort`) makes
#     exactly one runner SIGKILL itself after its first published
#     result: the coordinator must log the death and the report must
#     still be byte-identical.
#  3. replay_plan executes a saved plan in-process and multi-process
#     with --csv; the deterministic CSV columns must be identical.
#
# Usage: worker_roundtrip_smoke.sh <fig-driver-1> <fig-driver-2>
#                                  <replay-plan>
set -euo pipefail

fig1="$1"
fig2="$2"
replay="$3"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Two benchmarks x four thread counts = 8 jobs over six tasks (two
# per runner).
common=(--benchmarks=histogram,vector-operation --scale=0.02)

# The deterministic prefix of a figure report: everything up to the
# first blank line (the error table; speedups are wall-clock).
det_prefix() { awk '/^$/{exit} {print}' "$1"; }

for fig in "$fig1" "$fig2"; do
    name="$(basename "$fig")"

    "$fig" "${common[@]}" --jobs=2 \
        >"$work/$name.inproc.txt" 2>"$work/$name.inproc.err"
    "$fig" "${common[@]}" --workers=3 \
        >"$work/$name.workers.txt" 2>"$work/$name.workers.err"
    grep -q "dispatch: runner local-0 -> pid" "$work/$name.workers.err"

    det_prefix "$work/$name.inproc.txt" >"$work/$name.inproc.det"
    det_prefix "$work/$name.workers.txt" >"$work/$name.workers.det"
    test -s "$work/$name.inproc.det"
    diff -u "$work/$name.inproc.det" "$work/$name.workers.det"
done

# 2. Kill one runner mid-run: its unfinished jobs are stolen (when it
# had any left) and the report must not change by a byte.
name="$(basename "$fig1")"
cat >"$work/kill.plan" <<EOF
taskpoint-fault-plan v1
once $work/kill.marker
on worker.stream.append 1 abort
EOF
"$fig1" "${common[@]}" --workers=3 --fault-plan="$work/kill.plan" \
    >"$work/$name.killed.txt" 2>"$work/$name.killed.err"
test -f "$work/kill.marker.worker.stream.append.1" # the kill fired
grep -q "died" "$work/$name.killed.err"
det_prefix "$work/$name.killed.txt" >"$work/$name.killed.det"
diff -u "$work/$name.inproc.det" "$work/$name.killed.det"

# 3. Machine-diffable CSV via replay_plan, in-process vs workers.
"$fig1" "${common[@]}" --jobs=2 --save-plan="$work/fig.tpplan" \
    >/dev/null 2>"$work/save.err"
grep -q "plan written to" "$work/save.err"

"$replay" --plan="$work/fig.tpplan" --jobs=2 \
    --csv="$work/inproc.csv" >"$work/replay1.txt"
"$replay" --plan="$work/fig.tpplan" --workers=3 \
    --csv="$work/workers.csv" >"$work/replay2.txt"

# Columns 1-8 are deterministic; wall_speedup/host_seconds are not.
cut -d, -f1-8 "$work/inproc.csv" >"$work/inproc.csv.det"
cut -d, -f1-8 "$work/workers.csv" >"$work/workers.csv.det"
test "$(wc -l <"$work/inproc.csv.det")" -eq 9 # header + 8 jobs
diff -u "$work/inproc.csv.det" "$work/workers.csv.det"

echo "worker roundtrip smoke: OK"
