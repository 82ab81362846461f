#!/bin/sh
# Performance-regression gate: write the next BENCH_N.json baseline,
# diff it against the previous committed baseline, and report every key
# that moved past the thresholds (deterministic keys at THRESHOLD,
# default 0.05; wall-clock keys at a fixed loose 0.5 inside bench
# regress itself).
#
# Hard: exits 1 when bench wrote no valid baseline — a run whose result
# differs from the first run's (at either worker count) ends bench
# before the file is written, and a file that does not round-trip
# prints no `BENCH_N.json ok` line.  Advisory: the diff itself —
# timing on shared machines is too noisy for a hard gate — prints an
# escalation note so a human can re-run locally and either investigate
# or deliberately publish a new baseline.
#
# Usage: regress.sh [THRESHOLD] [FLOOR] [HARD]
#   FLOOR: minimum fig5/fig6 sweep speedup at --jobs 2, forwarded to
#          `bench regress --speedup-floor` (empty: no floor check).
#   HARD=1: a floor violation fails the script (callers pass this only
#           on multi-core runners; see check.sh).
set -eu
cd "$(dirname "$0")/.."
threshold="${1:-0.05}"
floor="${2:-}"
hard="${3:-0}"
dune build bench/main.exe
floor_args=""
if [ -n "$floor" ]; then floor_args="--speedup-floor $floor"; fi
status=0
out=$(dune exec bench/main.exe -- regress --jobs 2 --threshold "$threshold" $floor_args 2>&1) || status=$?
printf '%s\n' "$out"
# Drop the freshly written baseline: regress is a check, not a publish.
# New baselines are committed deliberately via `bench baseline`.
path=$(printf '%s\n' "$out" | sed -n 's/^\(BENCH_[0-9]*\.json\) ok.*/\1/p')
if [ -z "$path" ]; then
  echo "regress.sh: bench wrote no valid baseline (a run's result differed, or the file did not round-trip)" >&2
  exit 1
fi
rm -f "$path"
if [ "$status" -ne 0 ]; then
  echo "regress.sh: ADVISORY — metrics moved past the gate (threshold $threshold)." >&2
  echo "regress.sh: if the movement is expected, run 'dune exec bench/main.exe -- baseline'" >&2
  echo "regress.sh: and commit the new BENCH_N.json; otherwise investigate before merging." >&2
  if [ "$hard" = "1" ] && printf '%s\n' "$out" | grep -q 'below the .* floor'; then
    echo "regress.sh: HARD — fig5/fig6 --jobs 2 speedup fell below the $floor floor." >&2
    exit 1
  fi
fi
exit 0
