#!/bin/sh
# Part of sharpie. Lint: every Z3 solver the program builds is Z3SolverImpl's
# (src/smt/Z3Solver.cpp), and that one is Z3's incremental SMT kernel,
# z3::solver::simple(). A default z3::solver(ctx) is Z3's combined solver,
# whose tactic front end costs milliseconds per object and per set(params)
# while answering sharpie's incremental checks from the same kernel
# (DESIGN.md section 10). This keeps a new code path from quietly bringing
# it back.
#
#   usage: lint_solver.sh <repo-root>
#
# Scans src/, tools/, examples/ and bench/. tests/ is exempt (it uses raw
# libz3 as an oracle), and so is perfbench/, whose reference solve is the
# benchmark's fixed time scale. Comment-only lines are ignored.
ROOT=${1:?usage: lint_solver.sh repo-root}
IMPL="$ROOT/src/smt/Z3Solver.cpp"

[ -r "$IMPL" ] || { echo "missing $IMPL"; exit 1; }

# Anything that makes a Z3 solver: the C++ class, the C API constructors
# (Z3_mk_solver, Z3_mk_simple_solver, Z3_mk_solver_for_logic, ...), and
# tactics turned into solvers.
PAT='z3::solver|Z3_mk_([a-z_]*_)?solver|mk_solver[[:space:]]*\(|z3::tactic'

HITS=$(grep -rnE "$PAT" "$ROOT/src" "$ROOT/tools" "$ROOT/examples" \
         "$ROOT/bench" --include='*.cpp' --include='*.h' \
       | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//')

# In Z3SolverImpl: the member declaration and the one construction, which
# must name the kernel solver.
BAD=$(echo "$HITS" | grep -v '^$' \
      | grep -vE "^$IMPL:[0-9]+:[[:space:]]*z3::solver Solver;" \
      | grep -vE "^$IMPL:[0-9]+:.*Solver\(Env->context\(\), z3::solver::simple\(\)\)")

if [ -n "$BAD" ]; then
  echo "a Z3 solver is built outside Z3SolverImpl (src/smt/Z3Solver.cpp);"
  echo "make it with smt::makeZ3Solver so it runs on the incremental kernel:"
  echo "$BAD"
  exit 1
fi

echo "$HITS" | grep -qE "^$IMPL:[0-9]+:.*z3::solver::simple\(\)" || {
  echo "Z3SolverImpl no longer builds its solver as"
  echo "z3::solver(context, z3::solver::simple()) -- the default"
  echo "z3::solver(context) is the combined solver (DESIGN.md section 10)"
  exit 1
}
exit 0
