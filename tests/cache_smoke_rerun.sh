#!/usr/bin/env bash
# Smoke test of the shared result cache (`ctest -L cache`): run one
# figure driver twice in the same cache directory and assert that the
# second run (a) reports cache hits and simulates nothing — neither
# the references nor the sampled runs — and (b) prints a
# byte-identical error figure. A third run on the warm cache as a
# local campaign (--workers=2) must report, from the coordinator,
# that every reference and sampled outcome was replayed, and print
# the same error figure.
#
# Usage: cache_smoke_rerun.sh <figure-driver-binary>
set -euo pipefail

bin="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

run() {
    "$bin" --benchmarks=histogram --scale=0.02 --jobs=2 \
        --cache=rw --cache-dir="$work/cache" "${@:2}" \
        >"$work/out$1.txt" 2>"$work/err$1.txt"
}

run 1
run 2
run 3 --workers=2

echo "--- first-run cache stats"
grep "result cache" "$work/err1.txt"
echo "--- second-run cache stats"
grep "result cache" "$work/err2.txt"

# Cold run simulates and stores every reference, hitting nothing.
grep -q "result cache.*hits=0 " "$work/err1.txt"
grep -Eq "result cache.*stores=[1-9]" "$work/err1.txt"

# Warm run hits every entry — references and sampled runs alike —
# and simulates none.
grep -Eq "result cache.*hits=[1-9]" "$work/err2.txt"
grep -q "result cache.*misses=0 " "$work/err2.txt"
grep -q "result cache.*stores=0 " "$work/err2.txt"
grep -q "\[ref cached\]" "$work/err2.txt"
grep -q "\[sam cached\]" "$work/err2.txt"

# The error figure (first table on stdout; everything before the
# wall-clock speedup table) must be byte-identical.
awk '/^$/{exit} {print}' "$work/out1.txt" >"$work/fig1.txt"
awk '/^$/{exit} {print}' "$work/out2.txt" >"$work/fig2.txt"
test -s "$work/fig1.txt"
diff -u "$work/fig1.txt" "$work/fig2.txt"

# The campaign's runners hold the cache; the coordinator counts the
# replays its results carry.
echo "--- campaign cache stats"
grep "result cache" "$work/err3.txt"
replays='([0-9]+) of ([0-9]+) references and ([0-9]+) of ([0-9]+) sampled'
[[ "$(grep "result cache .* (campaign): " "$work/err3.txt")" =~ $replays ]]
test "${BASH_REMATCH[2]}" -gt 0
test "${BASH_REMATCH[1]}" -eq "${BASH_REMATCH[2]}"
test "${BASH_REMATCH[4]}" -gt 0
test "${BASH_REMATCH[3]}" -eq "${BASH_REMATCH[4]}"
awk '/^$/{exit} {print}' "$work/out3.txt" >"$work/fig3.txt"
diff -u "$work/fig1.txt" "$work/fig3.txt"

echo "cache smoke rerun: OK"
