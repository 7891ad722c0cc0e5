//===- smt/MiniSolver.cpp - From-scratch DPLL(T) solver -------------------------===//
//
// Part of sharpie. A self-contained SMT solver for the ground fragment the
// reduction pipeline produces: boolean structure over linear integer
// arithmetic atoms and array reads. Used to cross-check the Z3 back end
// (tests/smt_cross_test.cpp) and as a fallback oracle.
//
// Pipeline:
//   1. Lowering: array equalities (g = store(f, j, v), g = f) harvested
//      from top-level conjuncts define rewrite rules; reads over defined
//      arrays become case splits, reads over base arrays become fresh
//      variables with Ackermann congruence constraints; Int-sorted ite
//      terms are lifted into fresh variables.
//   2. Tseitin encoding of the boolean structure over atom literals.
//   3. CDCL: unit propagation, first-UIP conflict learning, restarts-free
//      activity-ordered decisions.
//   4. Theory: at a full assignment the asserted arithmetic literals are
//      checked by simplex + branch-and-bound (Simplex.h); infeasible
//      assignments are excluded by a (deletion-minimized) theory conflict
//      clause.
//
// Anything outside the fragment (quantifiers, cardinalities, non-linear
// multiplication, array equalities below disjunctions) yields Unknown --
// never a wrong verdict.
//
//===----------------------------------------------------------------------===//

#include "smt/SmtSolver.h"

#include "logic/TermOps.h"
#include "smt/Simplex.h"

#include <algorithm>
#include <chrono>
#include <map>

using namespace sharpie;
using namespace sharpie::smt;
using logic::Kind;
using logic::Sort;
using logic::Term;
using logic::TermManager;

namespace {

/// A linear polynomial sum Coeffs[v]*v + Const over solver variables.
struct Poly {
  std::map<unsigned, int64_t> Coeffs;
  int64_t Const = 0;

  Poly operator+(const Poly &O) const {
    Poly R = *this;
    R.Const += O.Const;
    for (auto &[V, C] : O.Coeffs) {
      R.Coeffs[V] += C;
      if (R.Coeffs[V] == 0)
        R.Coeffs.erase(V);
    }
    return R;
  }
  Poly negate() const {
    Poly R;
    R.Const = -Const;
    for (auto &[V, C] : Coeffs)
      R.Coeffs[V] = -C;
    return R;
  }
  Poly scale(int64_t K) const {
    Poly R;
    if (K == 0)
      return R;
    R.Const = Const * K;
    for (auto &[V, C] : Coeffs)
      R.Coeffs[V] = C * K;
    return R;
  }
  bool isConst() const { return Coeffs.empty(); }
};

/// Literal encoding: variable index v, literal 2v (positive) / 2v+1.
using Lit = unsigned;
inline Lit mkLit(unsigned V, bool Neg) { return 2 * V + (Neg ? 1 : 0); }
inline unsigned litVar(Lit L) { return L >> 1; }
inline bool litNeg(Lit L) { return L & 1; }
inline Lit litNot(Lit L) { return L ^ 1; }

/// An arithmetic atom in normalized form: Poly <= 0 (over integers).
struct Atom {
  Poly P;
  bool IsArith = false; ///< False: pure boolean variable.
};

class MiniSolverImpl final : public SmtSolver {
public:
  explicit MiniSolverImpl(TermManager &M) : M(M) {}

  void push() override { Frames.push_back(Assertions.size()); }
  void pop() override {
    assert(!Frames.empty() && "pop without push");
    Assertions.resize(Frames.back());
    Frames.pop_back();
  }
  void add(Term T) override { Assertions.push_back(T); }

  SatResult check() override;
  SatResult checkAssuming(const std::vector<Term> &A) override;
  std::unique_ptr<SmtModel> model() override;
  void setTimeoutMs(unsigned Ms) override { TimeoutMs = Ms; }
  std::string reasonUnknown() const override { return Reason; }

private:
  friend class MiniModel;

  // -- Lowering --------------------------------------------------------------
  bool lower(Term Root, std::vector<Term> &SideConditions);
  std::optional<Poly> linearize(Term T, std::vector<Term> &Side);
  unsigned numericVar(Term T);
  std::optional<Term> rewriteRead(Term ReadT);

  // -- Encoding --------------------------------------------------------------
  unsigned freshBoolVar() {
    Atoms.push_back({});
    return static_cast<unsigned>(Atoms.size() - 1);
  }
  unsigned atomVar(const Poly &P);
  Lit leZeroLit(const Poly &P);
  Lit gateLit(bool IsAnd, const std::vector<Lit> &Ls);
  std::optional<Lit> encode(Term T, std::vector<Term> &Side);
  void addClause(std::vector<Lit> C);

  // -- CDCL + theory ------------------------------------------------------------
  SatResult solve();
  bool propagate(size_t &ConflictClause);
  bool theoryCheck(std::vector<Lit> &ConflictOut);

  TermManager &M;
  std::vector<Term> Assertions;
  std::vector<size_t> Frames;

  // Numeric variables.
  std::map<Term, unsigned> NumVarOf;   ///< Var/loweread read -> id.
  std::vector<Term> NumVarTerm;
  // Array definitions from top-level equalities: array var -> (kind).
  struct ArrayDef {
    Term Base;  ///< Defined equal to Base ...
    Term Index; ///< ... except at Index (null for plain aliasing) ...
    Term Value; ///< ... where it is Value.
  };
  std::map<Term, ArrayDef> ArrayDefs;
  std::map<Term, Term> ReadVarFor; ///< Base read term -> fresh Int var.

  // Boolean atoms/literals.
  std::vector<Atom> Atoms;
  std::map<Term, unsigned> BoolVarOf;
  std::map<std::pair<std::vector<std::pair<unsigned, int64_t>>, int64_t>,
           unsigned>
      AtomCache;
  std::vector<std::vector<Lit>> Clauses;

  // Result model.
  std::vector<int64_t> NumModel;
  std::vector<int8_t> BoolModel;
  bool HaveModel = false;
  bool TheoryUnknown = false; ///< Simplex budget/overflow hit.

  // Soft per-check timeout (0 = none). The CDCL loop polls the deadline
  // every few iterations and answers Unknown past it -- the same contract
  // as Z3's soft timeout, so SynthOptions.SmtTimeoutMs is honored by both
  // back ends.
  unsigned TimeoutMs = 0;
  std::chrono::steady_clock::time_point CheckDeadline;
  std::string Reason; ///< reasonUnknown() of the last Unknown answer.
  bool pastDeadline() const {
    return TimeoutMs != 0 &&
           std::chrono::steady_clock::now() > CheckDeadline;
  }
};

// -- Lowering ---------------------------------------------------------------------

unsigned MiniSolverImpl::numericVar(Term T) {
  auto It = NumVarOf.find(T);
  if (It != NumVarOf.end())
    return It->second;
  unsigned Id = static_cast<unsigned>(NumVarTerm.size());
  NumVarOf.emplace(T, Id);
  NumVarTerm.push_back(T);
  return Id;
}

std::optional<Term> MiniSolverImpl::rewriteRead(Term ReadT) {
  // Rewrites read(g, x) through the array-definition chain into an
  // ite-free term when indices decide syntactically, or an ite otherwise.
  Term Arr = ReadT->kid(0);
  Term Idx = ReadT->kid(1);
  unsigned Steps = 0;
  while (Arr.kind() == Kind::Var) {
    auto It = ArrayDefs.find(Arr);
    if (It == ArrayDefs.end())
      break;
    if (++Steps > 64)
      return std::nullopt; // Cyclic definitions: give up.
    const ArrayDef &D = It->second;
    if (D.Index.isNull()) {
      Arr = D.Base;
      continue;
    }
    if (D.Index == Idx)
      return D.Value;
    // Unknown aliasing: produce an ite for the encoder to lift.
    Term Rest = M.mkRead(D.Base, Idx);
    return M.mkIte(M.mkEq(Idx, D.Index), D.Value, Rest);
  }
  if (Arr.kind() != Kind::Var)
    return std::nullopt;
  // Base read: uninterpreted; a fresh variable per distinct read term.
  Term Key = M.mkRead(Arr, Idx);
  auto It = ReadVarFor.find(Key);
  if (It != ReadVarFor.end())
    return It->second;
  Term Fresh = M.freshVar("mini_rd", Sort::Int);
  ReadVarFor.emplace(Key, Fresh);
  return Fresh;
}

std::optional<Poly> MiniSolverImpl::linearize(Term T,
                                              std::vector<Term> &Side) {
  const logic::Node *N = T.node();
  switch (N->kind()) {
  case Kind::Var: {
    Poly P;
    P.Coeffs[numericVar(T)] = 1;
    return P;
  }
  case Kind::IntConst: {
    Poly P;
    P.Const = N->value();
    return P;
  }
  case Kind::Add: {
    Poly P;
    for (Term K : N->kids()) {
      auto Q = linearize(K, Side);
      if (!Q)
        return std::nullopt;
      P = P + *Q;
    }
    return P;
  }
  case Kind::Sub: {
    auto A = linearize(N->kid(0), Side), B = linearize(N->kid(1), Side);
    if (!A || !B)
      return std::nullopt;
    return *A + B->negate();
  }
  case Kind::Neg: {
    auto A = linearize(N->kid(0), Side);
    if (!A)
      return std::nullopt;
    return A->negate();
  }
  case Kind::Mul: {
    auto A = linearize(N->kid(0), Side), B = linearize(N->kid(1), Side);
    if (!A || !B)
      return std::nullopt;
    if (A->isConst())
      return B->scale(A->Const);
    if (B->isConst())
      return A->scale(B->Const);
    return std::nullopt; // Non-linear.
  }
  case Kind::Read: {
    auto R = rewriteRead(T);
    if (!R)
      return std::nullopt;
    if (*R == T)
      return std::nullopt;
    return linearize(*R, Side);
  }
  case Kind::Ite: {
    // Lift: fresh v with (c -> v = a) /\ (!c -> v = b).
    Term V = M.freshVar("mini_ite", T.sort());
    Side.push_back(M.mkAnd(
        M.mkImplies(N->kid(0), M.mkEq(V, N->kid(1))),
        M.mkImplies(M.mkNot(N->kid(0)), M.mkEq(V, N->kid(2)))));
    Poly P;
    P.Coeffs[numericVar(V)] = 1;
    return P;
  }
  default:
    return std::nullopt;
  }
}

// -- Encoding -----------------------------------------------------------------------

unsigned MiniSolverImpl::atomVar(const Poly &P) {
  std::vector<std::pair<unsigned, int64_t>> Key(P.Coeffs.begin(),
                                                P.Coeffs.end());
  auto CacheKey = std::make_pair(Key, P.Const);
  auto It = AtomCache.find(CacheKey);
  if (It != AtomCache.end())
    return It->second;
  unsigned V = freshBoolVar();
  Atoms[V].P = P;
  Atoms[V].IsArith = true;
  AtomCache.emplace(CacheKey, V);
  return V;
}

/// A literal for P <= 0; a constant P gives a fresh literal pinned to its
/// truth value.
Lit MiniSolverImpl::leZeroLit(const Poly &P) {
  if (P.isConst()) {
    unsigned V = freshBoolVar();
    addClause({mkLit(V, P.Const > 0)});
    return mkLit(V, false);
  }
  return mkLit(atomVar(P), false);
}

/// Tseitin: a fresh v with v <-> AND(ls) or v <-> OR(ls).
Lit MiniSolverImpl::gateLit(bool IsAnd, const std::vector<Lit> &Ls) {
  unsigned V = freshBoolVar();
  Lit Out = mkLit(V, false);
  if (IsAnd) {
    std::vector<Lit> Big{Out};
    for (Lit L : Ls) {
      addClause({litNot(Out), L});
      Big.push_back(litNot(L));
    }
    addClause(Big);
  } else {
    std::vector<Lit> Big{litNot(Out)};
    for (Lit L : Ls) {
      addClause({Out, litNot(L)});
      Big.push_back(L);
    }
    addClause(Big);
  }
  return Out;
}

void MiniSolverImpl::addClause(std::vector<Lit> C) {
  std::sort(C.begin(), C.end());
  C.erase(std::unique(C.begin(), C.end()), C.end());
  for (size_t I = 0; I + 1 < C.size(); ++I)
    if (C[I] == litNot(C[I + 1]))
      return; // Tautology.
  Clauses.push_back(std::move(C));
}

std::optional<Lit> MiniSolverImpl::encode(Term T, std::vector<Term> &Side) {
  const logic::Node *N = T.node();
  switch (N->kind()) {
  case Kind::BoolConst: {
    // Encode as a fresh variable pinned by a unit clause.
    unsigned V = freshBoolVar();
    addClause({mkLit(V, N->value() == 0)});
    return mkLit(V, false);
  }
  case Kind::Var: {
    auto It = BoolVarOf.find(T);
    if (It != BoolVarOf.end())
      return mkLit(It->second, false);
    unsigned V = freshBoolVar();
    BoolVarOf.emplace(T, V);
    return mkLit(V, false);
  }
  case Kind::Not: {
    auto L = encode(N->kid(0), Side);
    if (!L)
      return std::nullopt;
    return litNot(*L);
  }
  case Kind::And:
  case Kind::Or: {
    std::vector<Lit> Ls;
    for (Term K : N->kids()) {
      auto L = encode(K, Side);
      if (!L)
        return std::nullopt;
      Ls.push_back(*L);
    }
    return gateLit(N->kind() == Kind::And, Ls);
  }
  case Kind::Implies: {
    return encode(M.mkOr(M.mkNot(N->kid(0)), N->kid(1)), Side);
  }
  case Kind::Ite: {
    assert(N->kid(1).sort() == Sort::Bool && "Int ite reaches encode");
    return encode(M.mkOr(M.mkAnd(N->kid(0), N->kid(1)),
                         M.mkAnd(M.mkNot(N->kid(0)), N->kid(2))),
                  Side);
  }
  case Kind::Eq: {
    switch (N->kid(0).sort()) {
    case Sort::Array:
      // Array equalities must have been consumed by the definition pass.
      return std::nullopt;
    case Sort::Bool:
      // a = b  <=>  (a -> b) /\ (b -> a), as TermManager::mkEq builds it.
      return encode(M.mkIff(N->kid(0), N->kid(1)), Side);
    case Sort::Int:
    case Sort::Tid: {
      // a = b  <=>  a - b <= 0 /\ b - a <= 0. Thread ids are numbered like
      // Ints, as in the Z3 back end; the bounds are built as polynomials,
      // since Le terms are Int-only.
      auto A = linearize(N->kid(0), Side), B = linearize(N->kid(1), Side);
      if (!A || !B)
        return std::nullopt;
      Poly D = *A + B->negate();
      return gateLit(/*IsAnd=*/true, {leZeroLit(D), leZeroLit(D.negate())});
    }
    }
    return std::nullopt;
  }
  case Kind::Le:
  case Kind::Lt: {
    auto A = linearize(N->kid(0), Side), B = linearize(N->kid(1), Side);
    if (!A || !B)
      return std::nullopt;
    // a <= b  =>  a - b <= 0;   a < b  =>  a - b + 1 <= 0 (integers).
    Poly P = *A + B->negate();
    if (N->kind() == Kind::Lt)
      P.Const += 1;
    return leZeroLit(P);
  }
  case Kind::Forall:
  case Kind::Exists:
  case Kind::Card:
    return std::nullopt; // Outside the ground fragment.
  default:
    return std::nullopt;
  }
}

bool MiniSolverImpl::lower(Term Root, std::vector<Term> &SideConditions) {
  // Harvest array definitions from top-level conjuncts.
  std::vector<Term> Conjs = Root.kind() == Kind::And
                                ? Root->kids()
                                : std::vector<Term>{Root};
  for (Term C : Conjs) {
    if (C.kind() != Kind::Eq || C->kid(0).sort() != Sort::Array)
      continue;
    Term L = C->kid(0), R = C->kid(1);
    if (L.kind() != Kind::Var)
      std::swap(L, R);
    if (L.kind() != Kind::Var)
      return false;
    if (ArrayDefs.count(L)) {
      // Second definition for the same array: treat as alias check only if
      // identical, otherwise out of fragment.
      return false;
    }
    if (R.kind() == Kind::Var) {
      ArrayDefs[L] = {R, Term(), Term()};
    } else if (R.kind() == Kind::Store && R->kid(0).kind() == Kind::Var) {
      ArrayDefs[L] = {R->kid(0), R->kid(1), R->kid(2)};
    } else {
      return false;
    }
    (void)SideConditions;
  }
  // Array equalities below disjunctions are out of fragment.
  std::set<Term> DeepArrayEqs = logic::collectSubterms(Root, [&](Term T) {
    return T.kind() == Kind::Eq && T->kid(0).sort() == Sort::Array;
  });
  for (Term E : DeepArrayEqs) {
    bool TopLevel =
        std::find(Conjs.begin(), Conjs.end(), E) != Conjs.end();
    if (!TopLevel)
      return false;
  }
  return true;
}

// -- CDCL ------------------------------------------------------------------------

namespace cdcl {

struct SolverState {
  std::vector<std::vector<Lit>> *Clauses;
  std::vector<int8_t> Assign;          ///< Per var: -1 unassigned, 0/1.
  std::vector<unsigned> Level;
  std::vector<size_t> Reason;          ///< Clause index or SIZE_MAX.
  std::vector<Lit> Trail;
  std::vector<size_t> TrailLim;
  std::vector<double> Activity;
  double ActivityInc = 1.0;
  size_t PropHead = 0;

  unsigned numVars() const { return static_cast<unsigned>(Assign.size()); }
  unsigned decisionLevel() const {
    return static_cast<unsigned>(TrailLim.size());
  }
  bool value(Lit L) const {
    int8_t A = Assign[litVar(L)];
    assert(A >= 0);
    return litNeg(L) ? !A : A;
  }
  bool isAssigned(Lit L) const { return Assign[litVar(L)] >= 0; }
  bool isTrue(Lit L) const { return isAssigned(L) && value(L); }
  bool isFalse(Lit L) const { return isAssigned(L) && !value(L); }

  void enqueue(Lit L, size_t ReasonClause) {
    unsigned V = litVar(L);
    Assign[V] = litNeg(L) ? 0 : 1;
    Level[V] = decisionLevel();
    Reason[V] = ReasonClause;
    Trail.push_back(L);
  }

  void cancelUntil(unsigned Lvl) {
    if (decisionLevel() <= Lvl)
      return;
    size_t Bound = TrailLim[Lvl];
    for (size_t I = Trail.size(); I > Bound; --I)
      Assign[litVar(Trail[I - 1])] = -1;
    Trail.resize(Bound);
    TrailLim.resize(Lvl);
    PropHead = std::min(PropHead, Trail.size());
  }

  void bump(unsigned V) {
    Activity[V] += ActivityInc;
    if (Activity[V] > 1e100) {
      for (double &A : Activity)
        A *= 1e-100;
      ActivityInc *= 1e-100;
    }
  }
};

} // namespace cdcl

bool MiniSolverImpl::theoryCheck(std::vector<Lit> &ConflictOut) {
  // Collect asserted arithmetic literals (current full assignment stored in
  // BoolModel) and check feasibility; on infeasibility produce a minimized
  // conflict clause. Returns true when consistent.
  std::vector<std::pair<unsigned, bool>> Asserted; // (atom var, positive)
  for (unsigned V = 0; V < Atoms.size(); ++V)
    if (Atoms[V].IsArith && BoolModel[V] >= 0)
      Asserted.push_back({V, BoolModel[V] == 1});

  auto Feasible =
      [&](const std::vector<std::pair<unsigned, bool>> &Subset,
          std::vector<int64_t> *ModelOut) {
        std::vector<LinearConstraint> Cs;
        for (auto [V, Pos] : Subset) {
          const Poly &P = Atoms[V].P;
          LinearConstraint C;
          if (Pos) { // P <= 0.
            for (auto &[Var, Coef] : P.Coeffs)
              C.Coeffs[Var] = Rational(Coef);
            C.Rhs = Rational(-P.Const);
          } else { // !(P <= 0): -P + 1 <= 0.
            for (auto &[Var, Coef] : P.Coeffs)
              C.Coeffs[Var] = Rational(-Coef);
            C.Rhs = Rational(P.Const - 1);
          }
          Cs.push_back(std::move(C));
        }
        return checkIntegerFeasible(
            static_cast<unsigned>(NumVarTerm.size()), Cs, ModelOut);
      };

  SimplexResult R = Feasible(Asserted, &NumModel);
  if (R == SimplexResult::Feasible)
    return true;
  // Treat Unknown pessimistically as conflict over everything; the caller
  // maps an empty model to SatResult::Unknown via the flag below.
  TheoryUnknown = R == SimplexResult::Unknown;
  // Deletion-based minimization of the conflict set.
  std::vector<std::pair<unsigned, bool>> Core = Asserted;
  if (R == SimplexResult::Infeasible && Core.size() <= 40) {
    for (size_t I = 0; I < Core.size();) {
      std::vector<std::pair<unsigned, bool>> Trial = Core;
      Trial.erase(Trial.begin() + I);
      if (Feasible(Trial, nullptr) == SimplexResult::Infeasible)
        Core = std::move(Trial);
      else
        ++I;
    }
  }
  ConflictOut.clear();
  for (auto [V, Pos] : Core)
    ConflictOut.push_back(mkLit(V, Pos)); // Negation of the assignment.
  return false;
}

SatResult MiniSolverImpl::solve() {
  using cdcl::SolverState;
  SolverState S;
  S.Clauses = &Clauses;
  unsigned NV = static_cast<unsigned>(Atoms.size());
  S.Assign.assign(NV, -1);
  S.Level.assign(NV, 0);
  S.Reason.assign(NV, SIZE_MAX);
  S.Activity.assign(NV, 0.0);

  auto Propagate = [&](size_t &Conflict) {
    // Naive clause-scan propagation (clause sets here are modest).
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t CI = 0; CI < Clauses.size(); ++CI) {
        const std::vector<Lit> &C = Clauses[CI];
        Lit Unit = 0;
        unsigned Unassigned = 0;
        bool Satisfied = false;
        for (Lit L : C) {
          if (S.isTrue(L)) {
            Satisfied = true;
            break;
          }
          if (!S.isAssigned(L)) {
            ++Unassigned;
            Unit = L;
          }
        }
        if (Satisfied)
          continue;
        if (Unassigned == 0) {
          Conflict = CI;
          return false;
        }
        if (Unassigned == 1) {
          S.enqueue(Unit, CI);
          Changed = true;
        }
      }
    }
    return true;
  };

  auto Analyze = [&](size_t ConflictClause, std::vector<Lit> &Learnt,
                     unsigned &BackLevel) {
    // First-UIP resolution.
    std::vector<bool> Seen(NV, false);
    Learnt.clear();
    Learnt.push_back(0); // Placeholder for the asserting literal.
    unsigned Counter = 0;
    Lit P = UINT32_MAX;
    std::vector<Lit> Reason = Clauses[ConflictClause];
    size_t Index = S.Trail.size();
    for (;;) {
      for (Lit Q : Reason) {
        if (P != UINT32_MAX && Q == litNot(P))
          continue;
        unsigned V = litVar(Q);
        if (Seen[V] || S.Level[V] == 0)
          continue;
        Seen[V] = true;
        S.bump(V);
        if (S.Level[V] == S.decisionLevel())
          ++Counter;
        else
          Learnt.push_back(Q);
      }
      // Pick the next trail literal at the current level.
      while (Index > 0 && !Seen[litVar(S.Trail[Index - 1])])
        --Index;
      if (Index == 0)
        break;
      P = S.Trail[--Index];
      Seen[litVar(P)] = false;
      if (--Counter == 0)
        break;
      size_t RC = S.Reason[litVar(P)];
      if (RC == SIZE_MAX)
        break;
      Reason = Clauses[RC];
    }
    Learnt[0] = litNot(P);
    BackLevel = 0;
    for (size_t I = 1; I < Learnt.size(); ++I)
      BackLevel = std::max(BackLevel, S.Level[litVar(Learnt[I])]);
  };

  uint64_t Conflicts = 0;
  uint64_t Iters = 0;
  for (;;) {
    if ((++Iters & 63) == 0 && pastDeadline()) {
      Reason = "timeout";
      return SatResult::Unknown;
    }
    size_t ConflictClause = SIZE_MAX;
    if (!Propagate(ConflictClause)) {
      if (S.decisionLevel() == 0)
        return SatResult::Unsat;
      if (++Conflicts > 200000) {
        Reason = "conflict budget exceeded";
        return SatResult::Unknown;
      }
      std::vector<Lit> Learnt;
      unsigned BackLevel = 0;
      Analyze(ConflictClause, Learnt, BackLevel);
      S.cancelUntil(BackLevel);
      if (Learnt.size() == 1) {
        S.cancelUntil(0);
        if (S.isFalse(Learnt[0]))
          return SatResult::Unsat;
        Clauses.push_back(Learnt);
        if (!S.isAssigned(Learnt[0]))
          S.enqueue(Learnt[0], Clauses.size() - 1);
      } else {
        Clauses.push_back(Learnt);
        if (!S.isAssigned(Learnt[0]))
          S.enqueue(Learnt[0], Clauses.size() - 1);
      }
      S.ActivityInc *= 1.05;
      continue;
    }
    // Find an unassigned variable (highest activity).
    unsigned Best = UINT32_MAX;
    for (unsigned V = 0; V < NV; ++V)
      if (S.Assign[V] < 0 &&
          (Best == UINT32_MAX || S.Activity[V] > S.Activity[Best]))
        Best = V;
    if (Best == UINT32_MAX) {
      // Full assignment: theory check.
      BoolModel.assign(NV, -1);
      for (unsigned V = 0; V < NV; ++V)
        BoolModel[V] = S.Assign[V];
      std::vector<Lit> Conflict;
      TheoryUnknown = false;
      if (theoryCheck(Conflict))
        return SatResult::Sat;
      if (TheoryUnknown) {
        Reason = "incomplete: arithmetic budget or overflow";
        return SatResult::Unknown;
      }
      // Exclude this theory-inconsistent assignment and restart the search
      // from level 0 (simple and complete: each learnt theory clause
      // excludes at least the current assignment).
      addClause(Conflict);
      S.cancelUntil(0);
      continue;
    }
    S.TrailLim.push_back(S.Trail.size());
    S.enqueue(mkLit(Best, S.Activity[Best] == 0.0), SIZE_MAX);
  }
}

// MiniSolver re-encodes the assertion set from scratch on every check, so
// there is no persistent CDCL trail to attach assumptions to: the base
// push/add/check/pop emulation is already the natural implementation.
// This override improves on the base's full-list core by deletion
// minimization -- re-check without each assumption in turn and drop the
// ones that were not needed -- bounded so a pathological assumption list
// cannot multiply the check cost. A superset of a minimal core is always
// a sound (conservative) answer, so every bound below only costs
// precision, never correctness.
SatResult MiniSolverImpl::checkAssuming(const std::vector<Term> &A) {
  SatResult R = SmtSolver::checkAssuming(A);
  constexpr size_t MaxMinimizeAssumptions = 16;
  if (R != SatResult::Unsat || A.size() <= 1 ||
      A.size() > MaxMinimizeAssumptions)
    return R;
  std::vector<Term> Core = A;
  for (size_t I = 0; I < Core.size() && !pastDeadline();) {
    push();
    for (size_t J = 0; J < Core.size(); ++J)
      if (J != I)
        add(Core[J]);
    SatResult Trial = check();
    pop();
    if (Trial == SatResult::Unsat)
      Core.erase(Core.begin() + static_cast<ptrdiff_t>(I));
    else
      ++I;
  }
  LastAssumptions = Core; // unsatCore() reports the minimized set.
  return SatResult::Unsat;
}

SatResult MiniSolverImpl::check() {
  ++NumChecks;
  Reason.clear();
  CheckDeadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  // Reset per-check state.
  NumVarOf.clear();
  NumVarTerm.clear();
  ArrayDefs.clear();
  ReadVarFor.clear();
  Atoms.clear();
  BoolVarOf.clear();
  AtomCache.clear();
  Clauses.clear();
  HaveModel = false;

  Term Root = M.mkAnd(Assertions);
  if (Root.kind() == Kind::BoolConst) {
    HaveModel = Root->value() != 0; // Trivial (empty) model.
    return Root->value() ? SatResult::Sat : SatResult::Unsat;
  }

  std::vector<Term> Side;
  if (!lower(Root, Side)) {
    Reason = "incomplete: outside the ground fragment";
    return SatResult::Unknown;
  }

  // Encode the root and all side conditions produced during lowering
  // (lowering may generate more side conditions while encoding them).
  std::vector<Lit> Roots;
  std::vector<Term> Pending{Root};
  size_t Emitted = 0;
  while (Emitted < Pending.size()) {
    Term T = Pending[Emitted++];
    // Skip top-level array equalities (consumed as definitions).
    if (T.kind() == Kind::And) {
      std::vector<Term> Keep;
      for (Term K : T->kids())
        if (!(K.kind() == Kind::Eq && K->kid(0).sort() == Sort::Array))
          Keep.push_back(K);
      T = M.mkAnd(Keep);
    }
    if (T.kind() == Kind::Eq && T->kid(0).sort() == Sort::Array)
      continue;
    std::vector<Term> NewSide;
    auto L = encode(T, NewSide);
    if (!L) {
      Reason = "incomplete: outside the ground fragment";
      return SatResult::Unknown;
    }
    Roots.push_back(*L);
    for (Term NS : NewSide)
      Pending.push_back(NS);
  }
  for (Lit L : Roots)
    addClause({L});

  // Ackermann congruence for base reads over the same array.
  {
    std::vector<std::pair<Term, Term>> Reads(ReadVarFor.begin(),
                                             ReadVarFor.end());
    for (size_t I = 0; I < Reads.size(); ++I)
      for (size_t J = I + 1; J < Reads.size(); ++J) {
        Term R1 = Reads[I].first, R2 = Reads[J].first;
        if (R1->kid(0) != R2->kid(0))
          continue;
        Term Cong = M.mkImplies(M.mkEq(R1->kid(1), R2->kid(1)),
                                M.mkEq(Reads[I].second, Reads[J].second));
        std::vector<Term> NoSide;
        auto L = encode(Cong, NoSide);
        if (!L || !NoSide.empty()) {
          Reason = "incomplete: outside the ground fragment";
          return SatResult::Unknown;
        }
        addClause({*L});
      }
  }

  SatResult R = solve();
  HaveModel = R == SatResult::Sat;
  return R;
}

// -- Model ---------------------------------------------------------------------------

class MiniModel final : public SmtModel {
public:
  explicit MiniModel(MiniSolverImpl &S) : S(S) {}

  std::optional<int64_t> evalInt(Term T) override {
    std::vector<Term> Side;
    auto P = S.linearize(T, Side);
    if (!P || !Side.empty())
      return std::nullopt;
    int64_t V = P->Const;
    for (auto &[Var, Coef] : P->Coeffs) {
      if (Var >= S.NumModel.size())
        return std::nullopt;
      V += Coef * S.NumModel[Var];
    }
    return V;
  }

  std::optional<bool> evalBool(Term T) override {
    const logic::Node *N = T.node();
    switch (N->kind()) {
    case Kind::BoolConst:
      return N->value() != 0;
    case Kind::Var: {
      auto It = S.BoolVarOf.find(T);
      if (It == S.BoolVarOf.end() || S.BoolModel[It->second] < 0)
        return std::nullopt;
      return S.BoolModel[It->second] == 1;
    }
    case Kind::Not: {
      auto B = evalBool(N->kid(0));
      return B ? std::optional<bool>(!*B) : std::nullopt;
    }
    case Kind::And: {
      for (Term K : N->kids()) {
        auto B = evalBool(K);
        if (!B)
          return std::nullopt;
        if (!*B)
          return false;
      }
      return true;
    }
    case Kind::Or: {
      for (Term K : N->kids()) {
        auto B = evalBool(K);
        if (!B)
          return std::nullopt;
        if (*B)
          return true;
      }
      return false;
    }
    case Kind::Implies: {
      auto A = evalBool(N->kid(0));
      if (A && !*A)
        return true;
      auto B = evalBool(N->kid(1));
      if (!A || !B)
        return std::nullopt;
      return !*A || *B;
    }
    case Kind::Eq:
    case Kind::Le:
    case Kind::Lt: {
      auto A = evalInt(N->kid(0)), B = evalInt(N->kid(1));
      if (!A || !B)
        return std::nullopt;
      if (N->kind() == Kind::Eq)
        return *A == *B;
      return N->kind() == Kind::Le ? *A <= *B : *A < *B;
    }
    default:
      return std::nullopt;
    }
  }

private:
  MiniSolverImpl &S;
};

std::unique_ptr<SmtModel> MiniSolverImpl::model() {
  if (!HaveModel)
    return nullptr;
  return std::make_unique<MiniModel>(*this);
}

} // namespace

std::unique_ptr<SmtSolver> sharpie::smt::makeMiniSolver(TermManager &M) {
  return std::make_unique<MiniSolverImpl>(M);
}
