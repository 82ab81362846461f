#!/bin/sh
# Builds the tmedb CLI and the benchmark harness from source, then runs
# the harness with the given arguments.  Run from the repository root:
#
#   sh benchsuite/run.sh --workload plan-haggle --seed 42 --seconds 20 --trace 0
#
# Build output goes to stderr; the harness's last stdout line is the
# result object.  Everything the run writes stays inside the checkout:
# dune's shared cache is off and temporary files go under .benchsuite-tmp.
set -eu
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
export DUNE_CACHE=disabled
TMPDIR="$(pwd)/.benchsuite-tmp/tmp"
export TMPDIR
mkdir -p "$TMPDIR"
dune build --root . ./bin/tmedb_cli.exe ./benchsuite/main.exe 1>&2
./_build/default/benchsuite/main.exe "$@"
