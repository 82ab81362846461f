#!/bin/sh
# Tier-1 gate: everything must build (including the odoc target), the
# full test suite must pass, the static analyzer must find no
# unsuppressed determinism/doc violations anywhere in the tree, the
# quick bench must emit a valid telemetry metrics snapshot, the
# telemetry overhead budgets must hold, and the baseline kernels must
# give bit-identical results on 1 and 2 domains.
set -eu
cd "$(dirname "$0")/.."
dune build @all
dune build @doc
dune runtest

# Static analysis, both phases over the whole tree: the parsetree
# rules R1-R6 (R6 is the odoc gate on lib/core, lib/obs and
# lib/report) plus the interprocedural rules R7-R9, which read the
# .cmt typed trees — build @check first so every unit has one.
# Stale lint.allowlist entries are hard errors inside the tool.
dune build @check
dune exec bin/tmedb_lint.exe -- --typed lib bin bench test

# Telemetry smoke: the metrics file must carry the schema marker, both
# top-level sections, and counters from every major subsystem the
# quick run exercises (bench/main.exe itself re-parses the file and
# exits non-zero if it is not valid JSON).
m=$(mktemp)
trap 'rm -f "$m"' EXIT
dune exec bench/main.exe -- quick --jobs 2 --metrics "$m" >/dev/null
for key in '"schema": "tmedb.metrics/1"' '"counters"' '"timers"' \
           '"aux_graph.vertices"' '"dst.solves"' '"simulate.trials"' '"pool.tasks"'; do
  grep -q "$key" "$m" || {
    echo "check.sh: metrics file missing $key" >&2
    exit 1
  }
done

# Profiling smoke: a quick figure run with --profile must leave the
# full artifact set — a valid tmedb.profile/1 JSON, non-empty folded
# stacks and the self-contained HTML flamegraph — and a second run at
# a different worker count must reproduce the deterministic artifacts
# byte for byte (docs/PROFILING.md).  The ledger must come out
# byte-identical with and without profiling riding along.
pdir=$(mktemp -d)
pdir2=$(mktemp -d)
ptrace=$(mktemp); l1=$(mktemp); l2=$(mktemp)
trap 'rm -f "$m" "$ptrace" "$l1" "$l2"; rm -rf "$pdir" "$pdir2"' EXIT
dune exec bin/tmedb_cli.exe -- gen --kind haggle --nodes 12 --horizon 8000 \
  --seed 7 -o "$ptrace" >/dev/null
dune exec bin/tmedb_cli.exe -- run -a EEDCB --seed 7 --trials 50 --jobs 2 \
  --ledger "$l1" --ledger-timestamp 2026-01-01T00:00:00Z "$ptrace" >/dev/null
dune exec bin/tmedb_cli.exe -- run -a EEDCB --seed 7 --trials 50 --jobs 2 \
  --ledger "$l2" --ledger-timestamp 2026-01-01T00:00:00Z \
  --profile "$pdir" "$ptrace" >/dev/null
cmp -s "$l1" "$l2" || {
  echo "check.sh: ledger changed when --profile rode along" >&2
  exit 1
}
grep -q '"schema": "tmedb.profile/1"' "$pdir/profile.json" || {
  echo "check.sh: profile.json missing the tmedb.profile/1 schema marker" >&2
  exit 1
}
for f in profile.folded flamegraph.html profile_detail.json profile_wall.folded; do
  test -s "$pdir/$f" || {
    echo "check.sh: profile artifact $f missing or empty" >&2
    exit 1
  }
done
dune exec bin/tmedb_cli.exe -- run -a EEDCB --seed 7 --trials 50 --jobs 4 \
  --ledger-timestamp 2026-01-01T00:00:00Z --profile "$pdir2" "$ptrace" >/dev/null
for f in profile.json profile.folded; do
  cmp -s "$pdir/$f" "$pdir2/$f" || {
    echo "check.sh: $f not byte-deterministic across --jobs" >&2
    exit 1
  }
done

# N-scaling smoke: lazy SPT must keep its >=10x materialization cut
# and reach every node (bench exits non-zero otherwise; its schedule
# is pinned by test_core), and the frontier counters must reach the
# telemetry file.
m2=$(mktemp)
trap 'rm -f "$m" "$m2" "$ptrace" "$l1" "$l2"; rm -rf "$pdir" "$pdir2"' EXIT
dune exec bench/main.exe -- nscale --quick --metrics "$m2" >/dev/null
for key in '"aux_graph.nodes_materialized"' '"aux_graph.lazy_nodes_total"' \
           '"aux_graph.edges_materialized"'; do
  grep -q "$key" "$m2" || {
    echo "check.sh: nscale metrics missing $key" >&2
    exit 1
  }
done

# Pareto sweep smoke (docs/PARETO.md): the tmedb.pareto/1 ledger must
# be byte-identical across worker counts, invalid grids must be
# rejected up front, the dominance marking must match a tiny scenario
# constructed by hand, report diff must speak the per-point dotted
# paths, and the shared-state reuse gates must hold at quick scale.
pl1=$(mktemp); pl2=$(mktemp); pl3=$(mktemp); tt=$(mktemp); m3=$(mktemp)
trap 'rm -f "$m" "$m2" "$m3" "$ptrace" "$l1" "$l2" "$pl1" "$pl2" "$pl3" "$tt"; rm -rf "$pdir" "$pdir2"' EXIT
dune exec bin/tmedb_cli.exe -- pareto -a EEDCB --deadlines 2000:6000:2000 --seed 7 \
  --jobs 1 --ledger "$pl1" --ledger-timestamp 2026-01-01T00:00:00Z "$ptrace" >/dev/null
for j in 2 4; do
  dune exec bin/tmedb_cli.exe -- pareto -a EEDCB --deadlines 2000:6000:2000 --seed 7 \
    --jobs $j --ledger "$pl2" --ledger-timestamp 2026-01-01T00:00:00Z "$ptrace" >/dev/null
  cmp -s "$pl1" "$pl2" || {
    echo "check.sh: pareto ledger not byte-deterministic at --jobs $j" >&2
    exit 1
  }
done
grep -q '"schema": "tmedb.pareto/1"' "$pl1" || {
  echo "check.sh: pareto ledger missing the tmedb.pareto/1 schema marker" >&2
  exit 1
}
# FR ledgers: the FR-EEDCB allocation keeps all its scratch inside one
# call, so its run ledger and its warm-chained pareto ledger (each
# point starts from the previous point's costs) must come out
# byte-identical at every worker count.
fl1=$(mktemp); fl2=$(mktemp)
trap 'rm -f "$m" "$m2" "$m3" "$ptrace" "$l1" "$l2" "$pl1" "$pl2" "$pl3" "$tt" "$fl1" "$fl2"; rm -rf "$pdir" "$pdir2"' EXIT
dune exec bin/tmedb_cli.exe -- run -a FR-EEDCB --seed 7 --trials 50 --jobs 1 \
  --ledger "$fl1" --ledger-timestamp 2026-01-01T00:00:00Z "$ptrace" >/dev/null
dune exec bin/tmedb_cli.exe -- run -a FR-EEDCB --seed 7 --trials 50 --jobs 2 \
  --ledger "$fl2" --ledger-timestamp 2026-01-01T00:00:00Z "$ptrace" >/dev/null
cmp -s "$fl1" "$fl2" || {
  echo "check.sh: FR-EEDCB run ledger not byte-deterministic across --jobs 1/2" >&2
  exit 1
}
dune exec bin/tmedb_cli.exe -- pareto -a FR-EEDCB --deadlines 2000:6000:2000 --seed 7 \
  --jobs 1 --ledger "$fl1" --ledger-timestamp 2026-01-01T00:00:00Z "$ptrace" >/dev/null
for j in 2 4; do
  dune exec bin/tmedb_cli.exe -- pareto -a FR-EEDCB --deadlines 2000:6000:2000 --seed 7 \
    --jobs $j --ledger "$fl2" --ledger-timestamp 2026-01-01T00:00:00Z "$ptrace" >/dev/null
  cmp -s "$fl1" "$fl2" || {
    echo "check.sh: FR-EEDCB pareto ledger not byte-deterministic at --jobs $j" >&2
    exit 1
  }
done
# SPT ledger: the lazy single-scan planner must give the same ledger
# bytes on 1 and 2 domains.
dune exec bin/tmedb_cli.exe -- run -a SPT --seed 7 --trials 50 --jobs 1 \
  --ledger "$fl1" --ledger-timestamp 2026-01-01T00:00:00Z "$ptrace" >/dev/null
dune exec bin/tmedb_cli.exe -- run -a SPT --seed 7 --trials 50 --jobs 2 \
  --ledger "$fl2" --ledger-timestamp 2026-01-01T00:00:00Z "$ptrace" >/dev/null
cmp -s "$fl1" "$fl2" || {
  echo "check.sh: SPT run ledger not byte-deterministic across --jobs 1/2" >&2
  exit 1
}
if dune exec bin/tmedb_cli.exe -- pareto -a EEDCB --deadlines 6000:2000:500 "$ptrace" \
     >/dev/null 2>&1; then
  echo "check.sh: descending --deadlines range was accepted" >&2
  exit 1
fi
if dune exec bin/tmedb_cli.exe -- pareto -a EEDCB --deadline-list 3000,2000 "$ptrace" \
     >/dev/null 2>&1; then
  echo "check.sh: descending --deadline-list was accepted" >&2
  exit 1
fi
# Tiny scenario with a known front: by T=2 only node 1 is reachable
# (the 0-2 contact has not opened yet), so that point is incomplete
# and therefore dominated; by T=8 the cheap two-hop relay covers
# everyone, so it is the whole front.
cat > "$tt" <<'EOF'
# tmedb-trace n=3 span=0,10
0,1,0,10,10
0,2,4,6,50
1,2,5,10,10
EOF
pout=$(dune exec bin/tmedb_cli.exe -- pareto -a EEDCB --deadline-list 2,8 --source 0 \
  --seed 7 "$tt")
printf '%s\n' "$pout" | grep -Eq '^ *2 .*dominated$' || {
  echo "check.sh: pareto did not mark the incomplete T=2 point dominated" >&2
  exit 1
}
printf '%s\n' "$pout" | grep -Eq '^ *8 .*front$' || {
  echo "check.sh: pareto did not keep the T=8 point on the front" >&2
  exit 1
}
printf '%s\n' "$pout" | grep -q '^front: 8$' || {
  echo "check.sh: pareto front line is not 'front: 8'" >&2
  exit 1
}
# report diff flattens sweeps into per-point dotted paths; a shorter
# grid makes the missing deadline show up one-sided.
dune exec bin/tmedb_cli.exe -- pareto -a EEDCB --deadlines 2000:4000:2000 --seed 7 \
  --jobs 1 --ledger "$pl3" --ledger-timestamp 2026-01-01T00:00:00Z "$ptrace" >/dev/null
dout=$(dune exec bin/tmedb_cli.exe -- report diff "$pl1" "$pl3" || true)
printf '%s\n' "$dout" | grep -q 'points\.6000\.energy' || {
  echo "check.sh: report diff did not render per-point pareto paths" >&2
  exit 1
}
# Argument boundary: a deadline outside the trace span (lo, hi] or not
# finite, a source that is not a node and a Steiner level outside 1-2 must
# exit 2 with a message on every planning subcommand — never an
# uncaught exception (exit 125).  $tt spans [0, 10] over 3 nodes; $tt2
# starts at 100.
tt2=$(mktemp)
trap 'rm -f "$m" "$m2" "$m3" "$ptrace" "$l1" "$l2" "$pl1" "$pl2" "$pl3" "$tt" "$tt2" "$fl1" "$fl2"; rm -rf "$pdir" "$pdir2"' EXIT
cat > "$tt2" <<'EOF'
# tmedb-trace n=3 span=100,300
0,1,100,300,10
0,2,140,160,50
1,2,150,300,10
EOF
expect_exit2() {
  rc=0
  dune exec bin/tmedb_cli.exe -- "$@" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "check.sh: 'tmedb_cli $*' exited $rc, expected 2" >&2
    exit 1
  fi
}
for cmd in run compare simulate; do
  expect_exit2 "$cmd" --deadline 20 "$tt"
  expect_exit2 "$cmd" --deadline nan "$tt"
  expect_exit2 "$cmd" --deadline 8 --source 3 "$tt"
done
expect_exit2 pareto --deadline-list 50,150 "$tt2"
expect_exit2 pareto --deadline-list 2,8 --source 3 "$tt"
for cmd in run compare; do
  expect_exit2 "$cmd" --deadline 8 --level 0 "$tt"
  expect_exit2 "$cmd" --deadline 8 --level=-1 "$tt"
  expect_exit2 "$cmd" --deadline 8 --level 3 "$tt"
done
expect_exit2 pareto --deadline-list 2,8 --level 0 "$tt"
expect_exit2 pareto --deadline-list 2,8 --level 3 "$tt"
for cmd in compare simulate; do
  expect_exit2 "$cmd" --deadline 8 --trials 0 "$tt"
  expect_exit2 "$cmd" --deadline 8 --trials=-3 "$tt"
done
expect_exit2 run --deadline 8 --trials=-3 "$tt"
# Pool and watchdog flags: a negative --jobs, and a --watchdog that is
# negative or not a number, exit 2 before anything is armed (they used
# to run with the pool unused or the watchdog silently off).
expect_exit2 run --deadline 8 --jobs=-1 "$tt"
for cmd in run compare simulate; do
  expect_exit2 "$cmd" --deadline 8 --watchdog=-1 "$tt"
  expect_exit2 "$cmd" --deadline 8 --watchdog nan "$tt"
done
expect_exit2 pareto --deadline-list 2,8 --watchdog=-1 "$tt"
expect_exit2 pareto --deadline-list 2,8 --watchdog nan "$tt"
# CSV boundary: a header with trailing text, a second header, a sixth
# field or text after the fifth is a load error naming its line, not a
# silently accepted trace.
tt3=$(mktemp); tt4=$(mktemp)
trap 'rm -f "$m" "$m2" "$m3" "$ptrace" "$l1" "$l2" "$pl1" "$pl2" "$pl3" "$tt" "$tt2" "$tt3" "$tt4" "$fl1" "$fl2"; rm -rf "$pdir" "$pdir2"' EXIT
printf '# tmedb-trace n=3 span=0,10 junk\n0,1,0,10,10\n' > "$tt3"
printf '# tmedb-trace n=3 span=0,10\n0,1,0,10,10\n# tmedb-trace n=3 span=0,10\n' > "$tt4"
expect_exit2 stats "$tt3"
expect_exit2 stats "$tt4"
printf '# tmedb-trace n=3 span=0,10\n0,1,0,10,5,junk\n' > "$tt3"
printf '# tmedb-trace n=3 span=0,20\n1,2,5,20,7 trailing\n' > "$tt4"
expect_exit2 stats "$tt3"
expect_exit2 stats "$tt4"
# Generator boundary: too few nodes, a horizon that is not positive
# and finite, and one whose worst-case work passes the generators'
# ceiling exit 2 (a NaN, infinite or huge finite horizon used to never
# return).
for kind in haggle mobility; do
  expect_exit2 gen --kind "$kind" --nodes 1 -o "$tt3"
  expect_exit2 gen --kind "$kind" --horizon 0 -o "$tt3"
  expect_exit2 gen --kind "$kind" --horizon nan -o "$tt3"
  expect_exit2 gen --kind "$kind" --horizon inf -o "$tt3"
  expect_exit2 gen --kind "$kind" --nodes 4 --horizon 1e12 -o "$tt3"
done

# Bench gates at quick scale: shared == independent point lists and
# sublinear reuse counters (bench exits non-zero on either), with the
# sweep counters reaching the telemetry file.
dune exec bench/main.exe -- pareto --quick --jobs 2 --metrics "$m3" >/dev/null
for key in '"pareto.sweeps"' '"pareto.points"' '"solve_state.creates"' \
           '"dts.points"'; do
  grep -q "$key" "$m3" || {
    echo "check.sh: pareto metrics missing $key" >&2
    exit 1
  }
done

# Telemetry overhead gate: the ns/op budgets of the disabled and armed
# paths, bit-identical results with telemetry off, on and armed, and
# the armed stream and ring bounds (bench exits non-zero on any).
dune exec bench/main.exe -- obs --jobs 2 >/dev/null

# Registry drift gate: the algorithm list the CLI advertises in its
# help text must be exactly the planner registry, in registry order
# (`algorithms --names` prints one registry name per line).
names=$(dune exec bin/tmedb_cli.exe -- algorithms --names | tr '\n' ',' | sed 's/,$//; s/,/, /g')
advertised=$(dune exec bin/tmedb_cli.exe -- run --help=plain | sed -n 's/.*One of \(.*\)\./\1/p' | head -n 1)
if [ "$names" != "$advertised" ]; then
  echo "check.sh: CLI-advertised algorithms ($advertised) drifted from the registry ($names)" >&2
  exit 1
fi

# Performance-regression gate against the last committed BENCH_N.json
# baseline, with a parallel-speedup floor on the fig5/fig6 sweeps:
# `--jobs 2` must not be slower than sequential (floor 1.0).  The
# baseline it writes is hard everywhere: regress.sh exits 1 if any
# kernel's runs at 1 and 2 domains differ or the file does not parse
# back with every kernel's metrics.  The floor is hard only on multi-core runners — a 1-CPU box
# cannot speed anything up, so there it stays advisory like the rest of
# the timing gate (regress.sh prints an escalation note either way).
cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$cores" -ge 2 ]; then
  scripts/regress.sh 0.05 1.0 1
else
  scripts/regress.sh 0.05 1.0 0
fi

echo "check.sh: OK"
