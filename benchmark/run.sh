#!/usr/bin/env bash
# The repository benchmark: builds the simulator and the taskpoint_bench
# program (Release, into build-bench/) and runs workloads.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1] [--traced] [--trace-out FILE]
#                    [--out FILE]
#
# Options take "--opt value" or "--opt=value"; --traced is --trace 1.
#
# With --workload, runs that workload in one taskpoint_bench process;
# the last line of stdout is its result JSON, and the exit status is
# the program's: 0 when every output was correct, 1 when one was
# wrong, 2 when the run could not complete.
#
# Without --workload, runs every workload, each in a fresh
# taskpoint_bench process, and prints one "<workload> <result JSON>"
# line per workload; the exit status is nonzero when any run failed.
# --out FILE also writes the results as one JSON object, the input of
# compare.py:
#   {"seed": N, "workloads": {"<workload>": <result JSON>, ...}}
#
# --trace-out FILE keeps a traced run's spans as Chrome trace-event
# JSON; with several workloads each gets FILE with its name inserted
# before the extension.
set -euo pipefail

workload=""
seed=42
seconds=20
trace=0
trace_out=""
out=""
while (($#)); do
    opt="$1"
    shift
    case "$opt" in
        --traced) trace=1; continue ;;
        --*=*) value="${opt#*=}"; opt="${opt%%=*}" ;;
        --*)
            if (($# == 0)); then
                echo "run.sh: $opt needs a value" >&2
                exit 2
            fi
            value="$1"
            shift
            ;;
        *) echo "run.sh: unexpected argument '$opt'" >&2; exit 2 ;;
    esac
    case "$opt" in
        --workload) workload="$value" ;;
        --seed) seed="$value" ;;
        --seconds) seconds="$value" ;;
        --trace) trace="$value" ;;
        --trace-out) trace_out="$value" ;;
        --out) out="$value" ;;
        *) echo "run.sh: unknown option '$opt'" >&2; exit 2 ;;
    esac
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
    echo "run.sh: $root does not hold the simulator's sources" >&2
    exit 2
fi

build="$root/build-bench"
# Compiler and executor temporaries stay inside the checkout too.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" --target taskpoint_bench >&2

run_workload() {
    local args=(--workload="$1" --seed="$seed" --seconds="$seconds"
                --trace="$trace" --work-dir="$build/work")
    if [[ -n "$2" ]]; then
        args+=(--trace-out="$2")
    fi
    "$build/taskpoint_bench" "${args[@]}"
}

if [[ -n "$workload" ]]; then
    run_workload "$workload" "$trace_out"
    exit
fi

status=0
results=""
for w in detailed-core sampled-sweep campaign paper-figure \
         checkpoint-slices; do
    file=""
    if [[ -n "$trace_out" ]]; then
        file="${trace_out%.json}.$w.json"
    fi
    code=0
    result="$(run_workload "$w" "$file" | tail -n 1)" || code=$?
    if ((code != 0)); then
        status=1
    fi
    if [[ "$result" == "{"* ]]; then
        echo "$w $result"
        results+="${results:+, }\"$w\": $result"
    else
        echo "run.sh: $w failed with status $code" >&2
    fi
done
if [[ -n "$out" ]]; then
    printf '{"seed": %s, "workloads": {%s}}\n' "$seed" "$results" > "$out"
fi
exit "$status"
