#!/usr/bin/env bash
# Chaos battery (`ctest -L chaos`): deterministic fault schedules
# swept over every execution mode, asserting the campaign report is
# byte-identical to the fault-free serial run — or fails loudly
# naming the injected site — never hangs, never silently corrupts.
#
#  A. in-process + torn rename of a result-cache publish (and a warm
#     re-run over the damaged cache directory)
#  B. --jobs=2 + ENOSPC on a result-cache publish (the store-failure
#     boundary: log once, count it, continue uncached)
#  C. checkpoint recording + a seeded bit flip in a recorded blob
#     (the restoring run must cold-replay, not diverge)
#  D. --workers=2 + short write torn off the final envelope of a
#     runner's task stream, with timeline collection on (the task
#     reaches done/ short of results and is stolen at once)
#  E. --workers=2 + exactly one runner SIGKILLed mid-stream
#  F. dispatch campaign + exactly one runner SIGKILLed mid-stream
#     (dead-runner steal)
#  G. dispatch campaign + one runner wedged 20s mid-stream while its
#     heartbeat keeps beating (stalled-stream watchdog steal)
#  H. injected spawn failure: the run must fail loudly, naming the
#     fault site
#
# Usage: chaos_smoke.sh <fig-driver> <replay-plan>
#                       <taskpoint-dispatch>
set -euo pipefail

fig="$1"
replay="$2"
dispatch="$3"
test -x "$dispatch"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Two benchmarks x four thread counts = 8 jobs: shards and worker
# streams all hold several results, so mid-stream faults always
# leave work behind for retries and steals.
"$fig" --benchmarks=histogram,vector-operation --scale=0.02 \
    --jobs=2 --save-plan="$work/fig.tpplan" \
    >/dev/null 2>"$work/save.err"
grep -q "plan written to" "$work/save.err"

"$replay" --plan="$work/fig.tpplan" --jobs=1 \
    --csv="$work/base.csv" >"$work/base.txt" 2>"$work/base.err"

# Columns 1-6 are the deterministic simulation outcome; 7-8
# (ref_cached/sam_cached) are cache-hit provenance, which warm
# re-runs legitimately change, and the trailing columns are host
# timing.
det() { cut -d, -f1-6 "$1"; }
det "$work/base.csv" >"$work/base.det"
test "$(wc -l <"$work/base.det")" -eq 9 # header + 8 jobs

# identical <csv>: the campaign CSV matches the fault-free baseline.
identical() { det "$1" >"$1.det" && diff -u "$work/base.det" "$1.det"; }

# fired <stderr-file> <site>: the schedule actually injected there.
# (Works for faults firing in the driver process itself; workers and
# runners get their stderr redirected to files, so fleet-side faults
# are proven through their `once` marker file instead.)
fired() { grep -q "fault injection: site '$2'" "$1"; }

# --- A: torn rename of a cache publish, in-process ----------------
cat >"$work/A.plan" <<EOF
taskpoint-fault-plan v1
seed 7
on result_cache.publish 1 torn-rename
EOF
"$replay" --plan="$work/fig.tpplan" --jobs=1 \
    --cache-dir="$work/cacheA" --fault-plan="$work/A.plan" \
    --csv="$work/A.csv" >"$work/A.txt" 2>"$work/A.err"
fired "$work/A.err" result_cache.publish
identical "$work/A.csv"
# Warm re-run over the damaged directory: the torn entry must read
# as a miss and be repaired, with an identical report.
"$replay" --plan="$work/fig.tpplan" --jobs=1 \
    --cache-dir="$work/cacheA" \
    --csv="$work/A2.csv" >"$work/A2.txt" 2>"$work/A2.err"
identical "$work/A2.csv"

# --- B: ENOSPC on a cache publish, threaded -----------------------
cat >"$work/B.plan" <<EOF
taskpoint-fault-plan v1
on result_cache.publish 2 errno ENOSPC
EOF
"$replay" --plan="$work/fig.tpplan" --jobs=2 \
    --cache-dir="$work/cacheB" --fault-plan="$work/B.plan" \
    --csv="$work/B.csv" >"$work/B.txt" 2>"$work/B.err"
fired "$work/B.err" result_cache.publish
grep -q "store failed" "$work/B.err"    # satellite: warn once...
cat "$work/B.txt" "$work/B.err" | grep -q "store-errors=[1-9]"
identical "$work/B.csv"                 # ...and continue uncached

# --- C: bit flip in a recorded checkpoint blob --------------------
cat >"$work/C.plan" <<EOF
taskpoint-fault-plan v1
seed 11
on checkpoint.record 1 bit-flip
EOF
"$replay" --plan="$work/fig.tpplan" --jobs=1 \
    --checkpoint-dir="$work/ckptC" --fault-plan="$work/C.plan" \
    --csv="$work/C.csv" >"$work/C.txt" 2>"$work/C.err"
fired "$work/C.err" checkpoint.record
identical "$work/C.csv"
test -n "$(ls -A "$work/ckptC")"
# Checkpoint-parallel restore over the store holding one damaged
# blob: the damaged slice cold-replays, the answer does not change.
"$replay" --plan="$work/fig.tpplan" --jobs=4 \
    --checkpoint-dir="$work/ckptC" \
    --csv="$work/C2.csv" >"$work/C2.txt" 2>"$work/C2.err"
grep -q "checkpoints: expanded" "$work/C2.err"
identical "$work/C2.csv"

# --- D: short write torn off a runner stream, timelines on --------
# Four 2-job tasks: the second append of a runner is the final
# envelope of its first task.
cat >"$work/D.plan" <<EOF
taskpoint-fault-plan v1
once $work/D.marker
on worker.stream.append 2 short-write 5
EOF
start=$SECONDS
"$replay" --plan="$work/fig.tpplan" --workers=2 \
    --trace-out="$work/D.trace.json" --fault-plan="$work/D.plan" \
    --csv="$work/D.csv" >"$work/D.txt" 2>"$work/D.err"
test -f "$work/D.marker.worker.stream.append.2" # fault fired
grep -q "stole" "$work/D.err"           # the torn task was stolen
# ...at once, not after the 60 s stalled-stream watchdog.
test $((SECONDS - start)) -lt 30
identical "$work/D.csv"
test -s "$work/D.trace.json"            # timelines still merged

# --- E: exactly one runner SIGKILLed mid-stream -------------------
cat >"$work/E.plan" <<EOF
taskpoint-fault-plan v1
once $work/E.marker
on worker.stream.append 1 abort
EOF
"$replay" --plan="$work/fig.tpplan" --workers=2 \
    --fault-plan="$work/E.plan" \
    --csv="$work/E.csv" >"$work/E.txt" 2>"$work/E.err"
test -f "$work/E.marker.worker.stream.append.1" # fault fired
grep -q "died" "$work/E.err"
grep -q "stole" "$work/E.err"
identical "$work/E.csv"

# --- F: exactly one dispatch runner SIGKILLed mid-stream ----------
cat >"$work/F.plan" <<EOF
taskpoint-fault-plan v1
once $work/F.marker
on worker.stream.append 1 abort
EOF
"$dispatch" --plan="$work/fig.tpplan" --spool="$work/spoolF" \
    --runners=2 --shards=2 --dead-after=800 \
    --fault-plan="$work/F.plan" \
    --csv="$work/F.csv" >"$work/F.txt" 2>"$work/F.err"
test -f "$work/F.marker.worker.stream.append.1" # fault fired
grep -q "died" "$work/F.err"
grep -q "stole" "$work/F.err"
identical "$work/F.csv"

# --- G: one runner wedged mid-stream, heartbeat still beating -----
# The delay fires *after* an envelope is flushed, so the runner's
# stream stops growing while its heartbeat thread keeps beating —
# exactly the wedge only the stalled-stream watchdog can catch.
cat >"$work/G.plan" <<EOF
taskpoint-fault-plan v1
once $work/G.marker
on worker.stream.append 2 delay 20000
EOF
# --max-retries=8: under sanitizers a healthy-but-slow stream can
# trip the short watchdog span too; such steals are wasteful but
# safe, and the per-generation span doubling needs gen headroom to
# converge instead of failing the lineage.
"$dispatch" --plan="$work/fig.tpplan" --spool="$work/spoolG" \
    --runners=2 --shards=2 --dead-after=1000 --stalled-after=1500 \
    --max-retries=8 --fault-plan="$work/G.plan" \
    --csv="$work/G.csv" >"$work/G.txt" 2>"$work/G.err"
test -f "$work/G.marker.worker.stream.append.2" # fault fired
grep -q "stalled" "$work/G.err"
identical "$work/G.csv"

# --- H: injected spawn failure fails loudly, naming the site ------
cat >"$work/H.plan" <<EOF
taskpoint-fault-plan v1
on subprocess.spawn 1 errno EIO
EOF
if "$replay" --plan="$work/fig.tpplan" --workers=2 \
    --fault-plan="$work/H.plan" \
    --csv="$work/H.csv" >"$work/H.txt" 2>"$work/H.err"; then
    echo "chaos smoke: injected spawn failure did not fail the run" >&2
    exit 1
fi
grep -q "subprocess.spawn" "$work/H.err"

echo "chaos smoke: OK"
