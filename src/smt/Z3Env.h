//===- smt/Z3Env.h - The Z3 context behind an smt::Z3Env ---------*- C++ -*-===//
//
// Part of sharpie. SmtSolver.h declares smt::Z3Env opaquely; this header
// defines it for the Z3 back end (smt/Z3Solver.cpp) and for tests that
// cross-check that back end against raw libz3 calls in the same context.
// Everything else goes through SmtSolver.h.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_SMT_Z3ENV_H
#define SHARPIE_SMT_Z3ENV_H

#include "smt/SmtSolver.h"

#include <map>
#include <z3++.h>

namespace sharpie {
namespace smt {

/// One z3::context plus its Term -> expression translation cache. Every
/// solver and model made in the env holds a shared_ptr to it, so the
/// context outlives all of them. Single-threaded, like the solvers.
class Z3Env {
public:
  z3::context &context() { return C; }

  /// Translates \p T, memoized: a term translates to the same AST for the
  /// life of the env, whichever solver asked first.
  z3::expr toZ3(logic::Term T);

private:
  z3::expr translate(logic::Term T);
  z3::expr mkVar(logic::Term T);

  z3::context C;                      // Declared first: destroyed last.
  std::map<logic::Term, z3::expr> Cache;
};

} // namespace smt
} // namespace sharpie

#endif // SHARPIE_SMT_Z3ENV_H
