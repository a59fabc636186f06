#!/usr/bin/env bash
# Smoke test of distributed campaigns (`ctest -L dispatch`):
#
#  1. A figure driver saves an 8-job plan; replay_plan executes it
#     in-process (--jobs=1) into the baseline CSV.
#  2. taskpoint_dispatch runs the same plan as a campaign over a
#     spool directory with three local runner processes and three
#     shard tasks; the deterministic CSV columns must be
#     byte-identical and the spool must hold O(tasks) result
#     streams, not O(jobs) files.
#  3. The campaign runs again with a fault plan (`once` marker +
#     `on worker.stream.append 1 abort`) making exactly one runner
#     SIGKILL itself after its first published result: the
#     coordinator must detect the death, steal and re-split the dead
#     runner's remaining jobs, and the report must still be
#     byte-identical.
#
# Usage: dispatch_smoke.sh <fig-driver> <replay-plan>
#                          <taskpoint-dispatch>
set -euo pipefail

fig="$1"
replay="$2"
dispatch="$3"
test -x "$dispatch"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Two benchmarks x four thread counts = 8 jobs over 3 shards: every
# shard holds >= 2 jobs, so a runner killed after its first publish
# always leaves work behind — the steal is deterministic.
"$fig" --benchmarks=histogram,vector-operation --scale=0.02 \
    --jobs=2 --save-plan="$work/fig.tpplan" \
    >/dev/null 2>"$work/save.err"
grep -q "plan written to" "$work/save.err"

"$replay" --plan="$work/fig.tpplan" --jobs=1 \
    --csv="$work/base.csv" >"$work/replay.txt"

# 1. Healthy campaign: identical report, O(tasks) result streams.
"$dispatch" --plan="$work/fig.tpplan" --spool="$work/spool" \
    --runners=3 --shards=3 \
    >"$work/dist.txt" 2>"$work/dist.err" \
    --csv="$work/dist.csv"

# Columns 1-8 are deterministic; wall_speedup/host_seconds are not.
cut -d, -f1-8 "$work/base.csv" >"$work/base.csv.det"
cut -d, -f1-8 "$work/dist.csv" >"$work/dist.csv.det"
test "$(wc -l <"$work/base.csv.det")" -eq 9 # header + 8 jobs
diff -u "$work/base.csv.det" "$work/dist.csv.det"

streams="$(find "$work/spool/results" -name '*.tprs' | wc -l)"
test "$streams" -eq 3 # one stream per shard task, not per job

# 2. Kill one runner mid-shard: its remaining jobs must be stolen
# into a next-generation task and the report must not change by a
# byte.
cat >"$work/kill.plan" <<EOF
taskpoint-fault-plan v1
once $work/kill.marker
on worker.stream.append 1 abort
EOF
"$dispatch" --plan="$work/fig.tpplan" --spool="$work/spool" \
    --runners=3 --shards=3 --dead-after=800 \
    --fault-plan="$work/kill.plan" \
    >"$work/killed.txt" 2>"$work/killed.err" \
    --csv="$work/killed.csv"
test -f "$work/kill.marker.worker.stream.append.1" # the kill fired
grep -q "died" "$work/killed.err"
grep -q "stole" "$work/killed.err"

cut -d, -f1-8 "$work/killed.csv" >"$work/killed.csv.det"
diff -u "$work/base.csv.det" "$work/killed.csv.det"

# The stolen work ran as a generation-1 task with its own stream.
find "$work/spool/results" -name 'task-*-g01-*.tprs' | grep -q .

echo "dispatch smoke: OK"
