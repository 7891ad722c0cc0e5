//===- tests/smt_env_test.cpp - Shared Z3 environments and core mapping --------===//
//
// Part of sharpie. Pins the Z3 back end's contracts that the synthesizer's
// one-context-per-tuple-attempt layout relies on:
//   * checkAssuming maps the unsat core back to assumption terms exactly
//     as the former nested scan did (same literals, same order), with the
//     scan kept here as the oracle;
//   * solvers in one smt::Z3Env share nothing but translations --
//     assertions, push/pop frames and timeouts stay per solver;
//   * a model keeps its env alive and stays evaluable after its solver is
//     destroyed;
//   * the incremental SMT kernel the back end runs on answers a first plain
//     check (no push, as the monolithic recheck makes it) and the push/pop
//     and assumption checks after it, and its soft timeout reads as a
//     timeout to resil and can be lifted again.
//
//===----------------------------------------------------------------------===//

#include "resil/Resil.h"
#include "smt/Z3Env.h"

#include <gtest/gtest.h>

using namespace sharpie;
using namespace sharpie::logic;
using smt::SatResult;

namespace {

/// A chain y_0 < y_1 < ... < y_N guarded link by link by assumption
/// literals of alternating polarity, closed by y_N <= y_0 + N - 1: Unsat
/// exactly when every link literal is assumed, so the core holds at least
/// the N link literals. Unrelated literals pad the assumptions.
struct ChainProblem {
  std::vector<Term> Assertions;
  std::vector<Term> Assumptions;

  ChainProblem(TermManager &M, unsigned Links, unsigned Padding) {
    std::vector<Term> Y;
    for (unsigned I = 0; I <= Links; ++I)
      Y.push_back(M.mkVar("y" + std::to_string(I), Sort::Int));
    for (unsigned I = 0; I < Links; ++I) {
      Term B = M.mkVar("b" + std::to_string(I), Sort::Bool);
      // Mixed polarities: odd links are enabled by assuming the negation.
      Term Lit = I % 2 ? M.mkNot(B) : B;
      Assertions.push_back(M.mkImplies(
          Lit, M.mkLe(M.mkAdd(Y[I], M.mkInt(1)), Y[I + 1])));
      Assumptions.push_back(Lit);
    }
    Assertions.push_back(
        M.mkLe(Y[Links], M.mkAdd(Y[0], M.mkInt(Links - 1))));
    Term Z = M.mkVar("z", Sort::Int);
    for (unsigned I = 0; I < Padding; ++I) {
      Term P = M.mkVar("p" + std::to_string(I), Sort::Bool);
      Term Lit = I % 3 ? P : M.mkNot(P);
      Assertions.push_back(M.mkImplies(Lit, M.mkLe(M.mkInt(I), Z)));
      Assumptions.push_back(Lit);
    }
    // One duplicated literal, inside the chain so it is in every core.
    Assumptions.push_back(Assumptions[5]);
  }
};

/// The core mapping checkAssuming used before it hashed the assumptions:
/// for every core literal, the first assumption translating to its AST.
std::vector<Term> nestedScanCore(smt::Z3Env &Env, const z3::expr_vector &Core,
                                 const std::vector<Term> &A) {
  std::vector<Term> Out;
  for (unsigned I = 0; I < Core.size(); ++I) {
    Z3_ast CA = static_cast<Z3_ast>(Core[static_cast<int>(I)]);
    for (Term T : A)
      if (static_cast<Z3_ast>(Env.toZ3(T)) == CA) {
        Out.push_back(T);
        break;
      }
  }
  return Out;
}

TEST(SmtEnv, CoreMatchesNestedScanOverManyAssumptions) {
  TermManager M;
  ChainProblem P(M, /*Links=*/320, /*Padding=*/100);
  ASSERT_GE(P.Assumptions.size(), 400u);

  std::shared_ptr<smt::Z3Env> Env = smt::makeZ3Env();
  std::unique_ptr<smt::SmtSolver> S = smt::makeZ3Solver(M, Env);
  for (Term T : P.Assertions)
    S->add(T);
  ASSERT_EQ(S->checkAssuming(P.Assumptions), SatResult::Unsat);
  std::vector<Term> Core = S->unsatCore();
  ASSERT_GE(Core.size(), 320u);

  // The oracle: the same check through raw libz3 in the same context
  // (identical ASTs, so Z3 answers with the identical core), mapped back
  // by the nested scan.
  z3::solver Raw(Env->context());
  for (Term T : P.Assertions)
    Raw.add(Env->toZ3(T));
  z3::expr_vector V(Env->context());
  for (Term T : P.Assumptions)
    V.push_back(Env->toZ3(T));
  ASSERT_EQ(Raw.check(V), z3::unsat);
  EXPECT_EQ(Core, nestedScanCore(*Env, Raw.unsat_core(), P.Assumptions));

  // Asserting only the core keeps the problem Unsat.
  std::unique_ptr<smt::SmtSolver> Check = smt::makeZ3Solver(M, Env);
  for (Term T : P.Assertions)
    Check->add(T);
  for (Term T : Core)
    Check->add(T);
  EXPECT_EQ(Check->check(), SatResult::Unsat);
}

TEST(SmtEnv, SolversInOneEnvKeepTheirOwnAssertionsAndFrames) {
  TermManager M;
  Term X = M.mkVar("x", Sort::Int);
  std::shared_ptr<smt::Z3Env> Env = smt::makeZ3Env();
  std::unique_ptr<smt::SmtSolver> A = smt::makeZ3Solver(M, Env);
  std::unique_ptr<smt::SmtSolver> B = smt::makeZ3Solver(M, Env);

  // Jointly Unsat, separately Sat.
  A->add(M.mkLe(M.mkInt(1), X));
  B->add(M.mkLe(X, M.mkInt(-1)));
  EXPECT_EQ(A->check(), SatResult::Sat);
  EXPECT_EQ(B->check(), SatResult::Sat);

  A->push();
  A->add(M.mkLe(X, M.mkInt(0)));
  EXPECT_EQ(A->check(), SatResult::Unsat);
  EXPECT_EQ(B->check(), SatResult::Sat) << "B saw A's frame";

  B->push();
  B->add(M.mkLe(M.mkInt(0), X));
  EXPECT_EQ(B->check(), SatResult::Unsat);
  A->pop();
  EXPECT_EQ(A->check(), SatResult::Sat);
  EXPECT_EQ(B->check(), SatResult::Unsat) << "A's pop popped B's frame";
  B->pop();
  EXPECT_EQ(B->check(), SatResult::Sat);

  // Assumption cores stay per solver too.
  Term G = M.mkVar("g", Sort::Bool);
  A->add(M.mkImplies(G, M.mkLe(X, M.mkInt(0))));
  EXPECT_EQ(A->checkAssuming({G}), SatResult::Unsat);
  EXPECT_EQ(B->checkAssuming({G}), SatResult::Sat);
  EXPECT_EQ(A->unsatCore(), std::vector<Term>{G});
}

/// Pigeonhole: \p Holes + 1 pairwise-distinct Ints in [0, Holes). Unsat,
/// and slow enough for Z3 that a 1 ms timeout fires well before an answer.
std::vector<Term> pigeonhole(TermManager &M, unsigned Holes) {
  std::vector<Term> P, Out;
  for (unsigned I = 0; I <= Holes; ++I) {
    Term V = M.mkVar("ph" + std::to_string(I), Sort::Int);
    Out.push_back(M.mkLe(M.mkInt(0), V));
    Out.push_back(M.mkLt(V, M.mkInt(Holes)));
    P.push_back(V);
  }
  for (size_t I = 0; I < P.size(); ++I)
    for (size_t J = I + 1; J < P.size(); ++J)
      Out.push_back(M.mkNot(M.mkEq(P[I], P[J])));
  return Out;
}

TEST(SmtEnv, SolversInOneEnvKeepTheirOwnTimeouts) {
  TermManager M;
  std::shared_ptr<smt::Z3Env> Env = smt::makeZ3Env();
  std::unique_ptr<smt::SmtSolver> Fast = smt::makeZ3Solver(M, Env);
  std::unique_ptr<smt::SmtSolver> Patient = smt::makeZ3Solver(M, Env);
  Fast->setTimeoutMs(1);
  Patient->setTimeoutMs(0); // Disabled.
  for (Term T : pigeonhole(M, 6)) {
    Fast->add(T);
    Patient->add(T);
  }
  EXPECT_EQ(Patient->check(), SatResult::Unsat);
  EXPECT_EQ(Fast->check(), SatResult::Unknown);
  EXPECT_FALSE(Fast->reasonUnknown().empty());
  // Setting one solver's timeout leaves the other's alone.
  Patient->setTimeoutMs(1);
  Fast->setTimeoutMs(0);
  EXPECT_EQ(Fast->check(), SatResult::Unsat);
}

TEST(SmtEnv, FirstPlainCheckThenIncrementalChecks) {
  TermManager M;
  Term X = M.mkVar("x", Sort::Int);
  Term G = M.mkVar("g", Sort::Bool);

  // A fresh solver whose first check is plain, with no push.
  std::unique_ptr<smt::SmtSolver> S = smt::makeZ3Solver(M);
  S->add(M.mkLe(M.mkInt(1), X));
  S->add(M.mkLe(X, M.mkInt(3)));
  S->add(M.mkImplies(G, M.mkLe(M.mkInt(4), X)));
  ASSERT_EQ(S->check(), SatResult::Sat);
  std::unique_ptr<smt::SmtModel> Model = S->model();
  ASSERT_NE(Model, nullptr);
  std::optional<int64_t> V = Model->evalInt(X);
  ASSERT_TRUE(V.has_value());
  EXPECT_TRUE(*V >= 1 && *V <= 3) << *V;

  // Push/pop frames after it.
  S->push();
  S->add(M.mkLe(X, M.mkInt(0)));
  EXPECT_EQ(S->check(), SatResult::Unsat);
  S->pop();
  S->push();
  S->add(M.mkEq(X, M.mkInt(2)));
  ASSERT_EQ(S->check(), SatResult::Sat);
  EXPECT_EQ(S->model()->evalInt(X), std::optional<int64_t>(2));
  S->pop();

  // Assumption checks after it.
  EXPECT_EQ(S->checkAssuming({G}), SatResult::Unsat);
  EXPECT_EQ(S->unsatCore(), std::vector<Term>{G});
  EXPECT_EQ(S->checkAssuming({M.mkNot(G)}), SatResult::Sat);
  EXPECT_EQ(S->check(), SatResult::Sat);

  // A fresh solver whose first plain check is Unsat.
  std::unique_ptr<smt::SmtSolver> U = smt::makeZ3Solver(M);
  U->add(M.mkLe(M.mkInt(1), X));
  U->add(M.mkLe(X, M.mkInt(0)));
  EXPECT_EQ(U->check(), SatResult::Unsat);
}

TEST(SmtEnv, TimeoutReadsAsTimeoutAndCanBeLifted) {
  TermManager M;
  std::unique_ptr<smt::SmtSolver> S = smt::makeZ3Solver(M);
  // Seven holes take Z3 seconds, far past the 50 ms timeout.
  for (Term T : pigeonhole(M, 7))
    S->add(T);
  S->setTimeoutMs(50);
  ASSERT_EQ(S->check(), SatResult::Unknown);
  EXPECT_EQ(resil::classifyUnknownReason(S->reasonUnknown()),
            resil::FailureClass::Timeout)
      << S->reasonUnknown();
  S->setTimeoutMs(0);
  EXPECT_EQ(S->check(), SatResult::Unsat);
}

TEST(SmtEnv, ModelOutlivesItsSolver) {
  TermManager M;
  Term X = M.mkVar("x", Sort::Int);
  Term F = M.mkVar("f", Sort::Bool);
  Term Fact = M.mkAnd({M.mkEq(X, M.mkInt(5)), M.mkNot(F)});

  // In a shared env that outlives the solver ...
  std::shared_ptr<smt::Z3Env> Env = smt::makeZ3Env();
  std::unique_ptr<smt::SmtModel> Shared;
  {
    std::unique_ptr<smt::SmtSolver> S = smt::makeZ3Solver(M, Env);
    S->add(Fact);
    ASSERT_EQ(S->check(), SatResult::Sat);
    Shared = S->model();
  }
  ASSERT_NE(Shared, nullptr);
  EXPECT_EQ(Shared->evalInt(X), std::optional<int64_t>(5));
  EXPECT_EQ(Shared->evalBool(F), std::optional<bool>(false));

  // ... and in a private env, which only the model keeps alive.
  std::unique_ptr<smt::SmtModel> Private;
  {
    std::unique_ptr<smt::SmtSolver> S = smt::makeZ3Solver(M);
    S->add(Fact);
    ASSERT_EQ(S->check(), SatResult::Sat);
    Private = S->model();
  }
  Env.reset();
  ASSERT_NE(Private, nullptr);
  EXPECT_EQ(Private->evalInt(M.mkAdd(X, M.mkInt(1))),
            std::optional<int64_t>(6));
  EXPECT_EQ(Private->evalBool(M.mkNot(F)), std::optional<bool>(true));
  EXPECT_EQ(Shared->evalInt(X), std::optional<int64_t>(5));
}

} // namespace
