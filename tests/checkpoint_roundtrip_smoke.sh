#!/usr/bin/env bash
# Smoke test of warm-state checkpoints (live-points) end to end
# (`ctest -L checkpoint`):
#
#  1. A figure driver saves its plan; replay_plan executes it
#     serially (the baseline CSV).
#  2. The same plan runs serially with --checkpoint-dir: the run
#     records checkpoints at every sample boundary and its report
#     must already be byte-identical to the baseline.
#  3. The plan runs again with intra-run parallelism (--jobs=4,
#     --workers=2, and a taskpoint_dispatch campaign of two runners):
#     the recorded checkpoints split each job into per-interval
#     slices ("checkpoints: expanded" must appear) and the
#     reassembled CSV must still be byte-identical in its
#     deterministic columns.
#
# Usage: checkpoint_roundtrip_smoke.sh <fig-driver> <replay-plan>
#                                      <taskpoint-dispatch>
set -euo pipefail

fig="$1"
replay="$2"
dispatch="$3"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# 1. Build and save the plan, then the serial baseline.
"$fig" --benchmarks=histogram,vector-operation,reduction \
    --scale=0.02 --jobs=2 --save-plan="$work/plan.tpplan" \
    >/dev/null 2>"$work/fig.err"
grep -q "plan written to" "$work/fig.err"

"$replay" --plan="$work/plan.tpplan" --jobs=1 \
    --csv="$work/serial.csv" >/dev/null 2>&1

# 2. Recording run: serial, fills the checkpoint store.
"$replay" --plan="$work/plan.tpplan" --jobs=1 \
    --checkpoint-dir="$work/ckpt" \
    --csv="$work/record.csv" >/dev/null 2>"$work/record.err"
test -n "$(ls -A "$work/ckpt")" # store must not be empty

# 3. Checkpoint-parallel runs: threaded, --workers, and dispatch.
"$replay" --plan="$work/plan.tpplan" --jobs=4 \
    --checkpoint-dir="$work/ckpt" \
    --csv="$work/sliced.csv" >/dev/null 2>"$work/sliced.err"
grep -q "checkpoints: expanded" "$work/sliced.err"

"$replay" --plan="$work/plan.tpplan" --workers=2 \
    --checkpoint-dir="$work/ckpt" \
    --csv="$work/pool.csv" >/dev/null 2>"$work/pool.err"
grep -q "checkpoints: expanded" "$work/pool.err"

"$dispatch" --plan="$work/plan.tpplan" --runners=2 \
    --checkpoint-dir="$work/ckpt" \
    --csv="$work/dispatch.csv" >/dev/null 2>"$work/dispatch.err"
grep -q "checkpoints: expanded" "$work/dispatch.err"

# Columns 1-8 are deterministic; the trailing wall_speedup/
# host_seconds columns are host timing.
for mode in serial record sliced pool dispatch; do
    cut -d, -f1-8 "$work/$mode.csv" >"$work/$mode.csv.det"
done
test "$(wc -l <"$work/serial.csv.det")" -gt 1
diff -u "$work/serial.csv.det" "$work/record.csv.det"
diff -u "$work/serial.csv.det" "$work/sliced.csv.det"
diff -u "$work/serial.csv.det" "$work/pool.csv.det"
diff -u "$work/serial.csv.det" "$work/dispatch.csv.det"

echo "checkpoint roundtrip smoke: OK"
