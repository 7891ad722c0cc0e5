//===- smt/Z3Solver.cpp - Z3 back end ---------------------------------------===//
//
// Part of sharpie. Translates logic::Term into Z3 expressions. Sort mapping:
// Int -> Int, Tid -> Int (thread identifiers are opaque indices; mapping to
// Int only widens the model class and is sound for validity checking),
// Array -> (Array Int Int).
//
//===----------------------------------------------------------------------===//

#include "smt/Z3Env.h"

#include "logic/TermOps.h"

#include <unordered_map>

using namespace sharpie;
using namespace sharpie::smt;
using logic::Kind;
using logic::Sort;
using logic::Term;

const char *sharpie::smt::satResultName(SatResult R) {
  switch (R) {
  case SatResult::Sat:
    return "sat";
  case SatResult::Unsat:
    return "unsat";
  case SatResult::Unknown:
    return "unknown";
  }
  return "?";
}

SmtModel::~SmtModel() = default;
SmtSolver::~SmtSolver() = default;

// Default emulation for back ends without a native check-sat-assuming: the
// assumptions ride on a throwaway frame. The frame is popped before
// returning -- model() stays valid on back ends whose models are decoupled
// from the assertion stack (MiniSolver), and back ends where it is not
// (Z3) override this with the native call anyway. The core defaults to the
// full assumption list via unsatCore()'s base implementation.
SatResult SmtSolver::checkAssuming(const std::vector<logic::Term> &A) {
  LastAssumptions = A;
  push();
  for (logic::Term T : A)
    add(T);
  SatResult R = check(); // Counts toward NumChecks via the inner call.
  pop();
  return R;
}

z3::expr Z3Env::toZ3(Term T) {
  auto It = Cache.find(T);
  if (It != Cache.end())
    return It->second;
  z3::expr E = translate(T);
  Cache.emplace(T, E);
  return E;
}

z3::expr Z3Env::translate(Term T) {
  const logic::Node *N = T.node();
  switch (N->kind()) {
  case Kind::Var:
    return mkVar(T);
  case Kind::IntConst:
    return C.int_val(static_cast<int64_t>(N->value()));
  case Kind::BoolConst:
    return C.bool_val(N->value() != 0);
  case Kind::Add: {
    z3::expr E = toZ3(N->kid(0));
    for (unsigned I = 1; I < N->numKids(); ++I)
      E = E + toZ3(N->kid(I));
    return E;
  }
  case Kind::Sub:
    return toZ3(N->kid(0)) - toZ3(N->kid(1));
  case Kind::Neg:
    return -toZ3(N->kid(0));
  case Kind::Mul:
    return toZ3(N->kid(0)) * toZ3(N->kid(1));
  case Kind::Ite:
    return z3::ite(toZ3(N->kid(0)), toZ3(N->kid(1)), toZ3(N->kid(2)));
  case Kind::Read:
    return z3::select(toZ3(N->kid(0)), toZ3(N->kid(1)));
  case Kind::Store:
    return z3::store(toZ3(N->kid(0)), toZ3(N->kid(1)), toZ3(N->kid(2)));
  case Kind::Eq:
    return toZ3(N->kid(0)) == toZ3(N->kid(1));
  case Kind::Le:
    return toZ3(N->kid(0)) <= toZ3(N->kid(1));
  case Kind::Lt:
    return toZ3(N->kid(0)) < toZ3(N->kid(1));
  case Kind::And: {
    z3::expr_vector V(C);
    for (Term K : N->kids())
      V.push_back(toZ3(K));
    return z3::mk_and(V);
  }
  case Kind::Or: {
    z3::expr_vector V(C);
    for (Term K : N->kids())
      V.push_back(toZ3(K));
    return z3::mk_or(V);
  }
  case Kind::Not:
    return !toZ3(N->kid(0));
  case Kind::Implies:
    return z3::implies(toZ3(N->kid(0)), toZ3(N->kid(1)));
  case Kind::Forall:
  case Kind::Exists: {
    z3::expr_vector Bound(C);
    for (Term B : N->binders())
      Bound.push_back(mkVar(B));
    z3::expr Body = toZ3(N->body());
    return N->kind() == Kind::Forall ? z3::forall(Bound, Body)
                                     : z3::exists(Bound, Body);
  }
  case Kind::Card:
    assert(false && "Card term reached the SMT back end; run ELIMCARD");
    return C.int_val(0);
  }
  assert(false && "unhandled kind");
  return C.int_val(0);
}

z3::expr Z3Env::mkVar(Term T) {
  const std::string &Name = T->name();
  switch (T.sort()) {
  case Sort::Bool:
    return C.bool_const(Name.c_str());
  case Sort::Int:
  case Sort::Tid:
    return C.int_const(Name.c_str());
  case Sort::Array:
    return C.constant(Name.c_str(), C.array_sort(C.int_sort(), C.int_sort()));
  }
  assert(false && "unhandled sort");
  return C.int_val(0);
}

namespace {

/// A Z3 model. Holding the env keeps the model evaluable after the solver
/// that produced it is gone.
class Z3Model final : public SmtModel {
public:
  Z3Model(std::shared_ptr<Z3Env> Env, z3::model Model)
      : Env(std::move(Env)), Model(std::move(Model)) {}

  std::optional<int64_t> evalInt(Term T) override {
    try {
      z3::expr E = Model.eval(Env->toZ3(T), /*model_completion=*/true);
      if (!E.is_numeral())
        return std::nullopt;
      return E.get_numeral_int64();
    } catch (const z3::exception &) {
      return std::nullopt;
    }
  }

  std::optional<bool> evalBool(Term T) override {
    try {
      z3::expr E = Model.eval(Env->toZ3(T), /*model_completion=*/true);
      if (E.is_true())
        return true;
      if (E.is_false())
        return false;
      return std::nullopt;
    } catch (const z3::exception &) {
      return std::nullopt;
    }
  }

private:
  std::shared_ptr<Z3Env> Env; // Declared first: outlives Model.
  z3::model Model;
};

/// Every solver runs on Z3's incremental SMT kernel (solver::simple()), not
/// the default combined solver, whose tactic front end answers plain checks
/// made before any push (the reduce oracle's, the monolithic recheck's) for
/// ~4 ms more and makes each set(params) cost ~1 ms instead of ~0.02 ms
/// (DESIGN.md section 10). tests/lint_solver.sh keeps this the only Z3
/// solver the program builds.
class Z3SolverImpl final : public SmtSolver {
public:
  explicit Z3SolverImpl(std::shared_ptr<Z3Env> E)
      : Env(std::move(E)), Solver(Env->context(), z3::solver::simple()) {}

  void push() override { Solver.push(); }
  void pop() override { Solver.pop(); }

  void add(Term T) override {
    assert(T.sort() == Sort::Bool && "asserting a non-formula");
    Solver.add(Env->toZ3(T));
  }

  SatResult check() override {
    ++NumChecks;
    LastReason.clear();
    try {
      switch (Solver.check()) {
      case z3::sat:
        return SatResult::Sat;
      case z3::unsat:
        return SatResult::Unsat;
      case z3::unknown:
        LastReason = Solver.reason_unknown();
        return SatResult::Unknown;
      }
    } catch (const z3::exception &E) {
      LastReason = std::string("z3 exception: ") + E.msg();
      return SatResult::Unknown;
    }
    return SatResult::Unknown;
  }

  SatResult checkAssuming(const std::vector<Term> &A) override {
    ++NumChecks;
    LastReason.clear();
    LastAssumptions = A;
    LastCore.clear();
    try {
      z3::expr_vector V(Env->context());
      for (Term T : A)
        V.push_back(Env->toZ3(T));
      z3::check_result R = Solver.check(V);
      if (R == z3::unsat) {
        // Map the core literals back to Terms by AST identity, through one
        // hash of the translated assumptions (first index wins, so a
        // duplicated literal maps to its first occurrence).
        std::unordered_map<Z3_ast, size_t> Index;
        Index.reserve(A.size());
        for (unsigned I = 0; I < V.size(); ++I)
          Index.emplace(static_cast<Z3_ast>(V[static_cast<int>(I)]), I);
        z3::expr_vector Core = Solver.unsat_core();
        LastCore.reserve(Core.size());
        for (unsigned I = 0; I < Core.size(); ++I) {
          auto It = Index.find(static_cast<Z3_ast>(Core[static_cast<int>(I)]));
          if (It != Index.end())
            LastCore.push_back(A[It->second]);
        }
        return SatResult::Unsat;
      }
      if (R == z3::sat)
        return SatResult::Sat;
      LastReason = Solver.reason_unknown();
      return SatResult::Unknown;
    } catch (const z3::exception &E) {
      LastReason = std::string("z3 exception: ") + E.msg();
      return SatResult::Unknown;
    }
  }

  std::vector<Term> unsatCore() const override { return LastCore; }

  std::string reasonUnknown() const override { return LastReason; }

  std::unique_ptr<SmtModel> model() override {
    try {
      return std::make_unique<Z3Model>(Env, Solver.get_model());
    } catch (const z3::exception &) {
      return nullptr;
    }
  }

  void setTimeoutMs(unsigned Ms) override {
    z3::params P(Env->context());
    // Z3's timeout param treats 0 as "0 ms", not "disabled"; the
    // interface contract (SmtSolver.h) says 0 disables, and MiniSolver
    // already honors that, so map 0 to Z3's no-timeout sentinel.
    P.set("timeout", Ms ? Ms : 4294967295u);
    Solver.set(P);
  }

private:
  std::shared_ptr<Z3Env> Env; // Declared first: outlives Solver.
  z3::solver Solver;
  std::string LastReason;
  std::vector<Term> LastCore;
};

} // namespace

std::shared_ptr<Z3Env> sharpie::smt::makeZ3Env() {
  return std::make_shared<Z3Env>();
}

std::unique_ptr<SmtSolver> sharpie::smt::makeZ3Solver(logic::TermManager &M) {
  return makeZ3Solver(M, makeZ3Env());
}

std::unique_ptr<SmtSolver>
sharpie::smt::makeZ3Solver(logic::TermManager &M, std::shared_ptr<Z3Env> Env) {
  (void)M; // Terms are translated as given; the manager is not consulted.
  return std::make_unique<Z3SolverImpl>(std::move(Env));
}

Validity sharpie::smt::checkValid(SmtSolver &S, logic::TermManager &M,
                                  Term T) {
  S.push();
  S.add(M.mkNot(T));
  SatResult R = S.check();
  S.pop();
  switch (R) {
  case SatResult::Unsat:
    return Validity::Valid;
  case SatResult::Sat:
    return Validity::Invalid;
  case SatResult::Unknown:
    return Validity::Unknown;
  }
  return Validity::Unknown;
}
