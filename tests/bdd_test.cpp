//===--- bdd_test.cpp - ROBDD package unit & property tests ---------------===//

#include "bdd/Bdd.h"
#include "bdd/BddDot.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <random>
#include <set>
#include <thread>

using namespace sigc;

namespace {

class BddTest : public ::testing::Test {
protected:
  BddManager M;
};

} // namespace

TEST_F(BddTest, TerminalIdentities) {
  EXPECT_TRUE(M.top().isTrue());
  EXPECT_TRUE(M.bottom().isFalse());
  EXPECT_NE(M.top(), M.bottom());
}

TEST_F(BddTest, VarAndComplement) {
  BddRef X = M.var(0);
  BddRef NX = M.nvar(0);
  EXPECT_EQ(M.apply_not(X), NX);
  EXPECT_EQ(M.apply_not(NX), X);
}

TEST_F(BddTest, CanonicalSharing) {
  // Same function built two ways must be the same node.
  BddRef A = M.var(0), B = M.var(1);
  BddRef F1 = M.apply_or(A, B);
  BddRef F2 = M.apply_not(M.apply_and(M.apply_not(A), M.apply_not(B)));
  EXPECT_EQ(F1, F2) << "De Morgan failed canonicity";
}

TEST_F(BddTest, AndIdentities) {
  BddRef A = M.var(0);
  EXPECT_EQ(M.apply_and(A, M.top()), A);
  EXPECT_EQ(M.apply_and(A, M.bottom()), M.bottom());
  EXPECT_EQ(M.apply_and(A, A), A);
  EXPECT_EQ(M.apply_and(A, M.apply_not(A)), M.bottom());
}

TEST_F(BddTest, OrIdentities) {
  BddRef A = M.var(0);
  EXPECT_EQ(M.apply_or(A, M.bottom()), A);
  EXPECT_EQ(M.apply_or(A, M.top()), M.top());
  EXPECT_EQ(M.apply_or(A, A), A);
  EXPECT_EQ(M.apply_or(A, M.apply_not(A)), M.top());
}

TEST_F(BddTest, DiffSemantics) {
  BddRef A = M.var(0), B = M.var(1);
  BddRef D = M.apply_diff(A, B);
  // A\B == A ∧ ¬B
  EXPECT_EQ(D, M.apply_and(A, M.apply_not(B)));
  EXPECT_EQ(M.apply_diff(A, A), M.bottom());
  EXPECT_EQ(M.apply_diff(A, M.bottom()), A);
}

TEST_F(BddTest, XorIffDuality) {
  BddRef A = M.var(0), B = M.var(1);
  EXPECT_EQ(M.apply_xor(A, B), M.apply_not(M.apply_iff(A, B)));
  EXPECT_EQ(M.apply_xor(A, A), M.bottom());
  EXPECT_EQ(M.apply_iff(A, A), M.top());
}

TEST_F(BddTest, ImpliesIsInclusion) {
  BddRef A = M.var(0), B = M.var(1);
  BddRef AB = M.apply_and(A, B);
  EXPECT_TRUE(M.implies(AB, A));
  EXPECT_TRUE(M.implies(AB, B));
  EXPECT_FALSE(M.implies(A, AB));
  EXPECT_TRUE(M.implies(M.bottom(), A));
  EXPECT_TRUE(M.implies(A, M.top()));
}

TEST_F(BddTest, IteBasis) {
  BddRef A = M.var(0), B = M.var(1), C = M.var(2);
  BddRef F = M.ite(A, B, C);
  // Shannon expansion check against evaluation.
  for (int Bits = 0; Bits < 8; ++Bits) {
    std::vector<bool> Env{(Bits & 1) != 0, (Bits & 2) != 0, (Bits & 4) != 0};
    bool Expect = Env[0] ? Env[1] : Env[2];
    EXPECT_EQ(M.evaluate(F, Env), Expect);
  }
}

TEST_F(BddTest, RestrictCofactors) {
  BddRef A = M.var(0), B = M.var(1);
  BddRef F = M.apply_and(A, B);
  EXPECT_EQ(M.restrict(F, 0, true), B);
  EXPECT_EQ(M.restrict(F, 0, false), M.bottom());
  // Restricting an absent variable is the identity.
  EXPECT_EQ(M.restrict(F, 7, true), F);
}

TEST_F(BddTest, ExistsForall) {
  BddRef A = M.var(0), B = M.var(1);
  BddRef F = M.apply_and(A, B);
  EXPECT_EQ(M.exists(F, 0), B);
  EXPECT_EQ(M.forall(F, 0), M.bottom());
  BddRef G = M.apply_or(A, B);
  EXPECT_EQ(M.exists(G, 0), M.top());
  EXPECT_EQ(M.forall(G, 0), B);
}

TEST_F(BddTest, ExistsMany) {
  BddRef F = M.apply_and(M.var(0), M.apply_and(M.var(1), M.var(2)));
  EXPECT_EQ(M.existsMany(F, {0, 1, 2}), M.top());
  EXPECT_EQ(M.existsMany(F, {0, 1}), M.var(2));
}

TEST_F(BddTest, ComposeSubstitutes) {
  BddRef A = M.var(0), B = M.var(1), C = M.var(2);
  BddRef F = M.apply_or(A, B);
  // F[B := A∧C] = A ∨ (A∧C) = A... no: A ∨ (A∧C) simplifies to A.
  BddRef G = M.compose(F, 1, M.apply_and(A, C));
  EXPECT_EQ(G, A);
  // F[A := C] = C ∨ B.
  EXPECT_EQ(M.compose(F, 0, C), M.apply_or(C, B));
}

TEST_F(BddTest, SupportIsSorted) {
  BddRef F = M.apply_and(M.var(3), M.apply_or(M.var(1), M.var(5)));
  std::vector<BddVar> S = M.support(F);
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[0], 1u);
  EXPECT_EQ(S[1], 3u);
  EXPECT_EQ(S[2], 5u);
}

TEST_F(BddTest, SatCount) {
  BddRef A = M.var(0), B = M.var(1);
  EXPECT_DOUBLE_EQ(M.satCount(M.apply_and(A, B), 2), 1.0);
  EXPECT_DOUBLE_EQ(M.satCount(M.apply_or(A, B), 2), 3.0);
  EXPECT_DOUBLE_EQ(M.satCount(M.top(), 2), 4.0);
  EXPECT_DOUBLE_EQ(M.satCount(M.bottom(), 2), 0.0);
  EXPECT_DOUBLE_EQ(M.satCount(M.apply_xor(A, B), 5), 16.0);
}

TEST_F(BddTest, AnySatFindsWitness) {
  BddRef F = M.apply_and(M.var(0), M.apply_not(M.var(2)));
  auto Path = M.anySat(F);
  std::vector<bool> Env(3, false);
  for (auto &[Var, Val] : Path)
    Env[Var] = Val;
  EXPECT_TRUE(M.evaluate(F, Env));
}

TEST_F(BddTest, CountNodes) {
  BddRef A = M.var(0), B = M.var(1);
  EXPECT_EQ(M.countNodes(M.top()), 0u);
  EXPECT_EQ(M.countNodes(A), 1u);
  BddRef F = M.apply_and(A, B);
  EXPECT_EQ(M.countNodes(F), 2u);
  // Shared counting does not double count.
  EXPECT_EQ(M.countNodesMany({F, A}), 3u); // F's two nodes + A's own node.
}

TEST_F(BddTest, CountNodesSharedSubgraph) {
  BddRef A = M.var(0), B = M.var(1);
  BddRef F = M.apply_and(A, B);
  // B's projection node is exactly the inner node of F, so the union is 2.
  EXPECT_EQ(M.countNodesMany({F, M.var(1)}), 2u);
}

TEST_F(BddTest, NodeBudgetYieldsInvalid) {
  Budget Bud(0, 16);
  M.setBudget(&Bud);
  // Build a function that needs far more than 16 nodes.
  BddRef F = M.top();
  for (BddVar V = 0; V < 32; ++V) {
    F = M.apply_and(F, M.apply_xor(M.var(2 * V), M.var(2 * V + 1)));
    if (!F.isValid())
      break;
  }
  EXPECT_FALSE(F.isValid());
  EXPECT_EQ(Bud.verdict(), BudgetVerdict::UnableMem);
}

TEST_F(BddTest, InvalidPropagates) {
  EXPECT_FALSE(M.apply_and(BddRef::invalid(), M.top()).isValid());
  EXPECT_FALSE(M.ite(M.top(), BddRef::invalid(), M.top()).isValid());
  EXPECT_FALSE(M.restrict(BddRef::invalid(), 0, true).isValid());
}

TEST_F(BddTest, DotExportMentionsNodes) {
  BddRef F = M.apply_and(M.var(0), M.var(1));
  std::string Dot = bddToDot(M, {F});
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("x0"), std::string::npos);
  EXPECT_NE(Dot.find("x1"), std::string::npos);
}

TEST_F(BddTest, DotCustomNames) {
  BddRef F = M.var(0);
  std::string Dot =
      bddToDot(M, {F}, [](BddVar) { return std::string("COND"); });
  EXPECT_NE(Dot.find("COND"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Property tests: random formula pairs, BDD equality ⇔ semantic equality.
//===----------------------------------------------------------------------===//

namespace {

/// A tiny random boolean formula evaluator + BDD builder.
struct Formula {
  // Encoded as a postfix program over N variables.
  enum OpCode { PushVar, Not, And, Or, Xor };
  struct Op {
    OpCode Code;
    unsigned Var = 0;
  };
  std::vector<Op> Code;

  static Formula random(std::mt19937 &Rng, unsigned NumVars, unsigned Size) {
    Formula F;
    unsigned Depth = 0;
    while (F.Code.size() < Size || Depth < 1) {
      unsigned Choice = Rng() % 5;
      if (Depth == 0 || Choice == 0) {
        F.Code.push_back({PushVar, static_cast<unsigned>(Rng() % NumVars)});
        ++Depth;
      } else if (Choice == 1) {
        F.Code.push_back({Not});
      } else if (Depth >= 2) {
        F.Code.push_back({static_cast<OpCode>(2 + Rng() % 3)});
        --Depth;
      } else {
        F.Code.push_back({PushVar, static_cast<unsigned>(Rng() % NumVars)});
        ++Depth;
      }
      if (F.Code.size() > 4 * Size)
        break;
    }
    return F;
  }

  bool eval(const std::vector<bool> &Env) const {
    std::vector<bool> Stack;
    for (const Op &O : Code) {
      switch (O.Code) {
      case PushVar:
        Stack.push_back(Env[O.Var]);
        break;
      case Not:
        Stack.back() = !Stack.back();
        break;
      case And:
      case Or:
      case Xor: {
        bool B = Stack.back();
        Stack.pop_back();
        bool A = Stack.back();
        Stack.back() = O.Code == And ? (A && B) : O.Code == Or ? (A || B)
                                                               : (A != B);
        break;
      }
      }
    }
    bool R = Stack.back();
    return R;
  }

  BddRef build(BddManager &M) const {
    std::vector<BddRef> Stack;
    for (const Op &O : Code) {
      switch (O.Code) {
      case PushVar:
        Stack.push_back(M.var(O.Var));
        break;
      case Not:
        Stack.back() = M.apply_not(Stack.back());
        break;
      case And:
      case Or:
      case Xor: {
        BddRef B = Stack.back();
        Stack.pop_back();
        BddRef A = Stack.back();
        Stack.back() = O.Code == And ? M.apply_and(A, B)
                       : O.Code == Or ? M.apply_or(A, B)
                                      : M.apply_xor(A, B);
        break;
      }
      }
    }
    return Stack.back();
  }
};

class BddPropertyTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(BddPropertyTest, BddMatchesTruthTable) {
  std::mt19937 Rng(GetParam());
  BddManager M;
  constexpr unsigned NumVars = 5;
  Formula F = Formula::random(Rng, NumVars, 12);
  BddRef B = F.build(M);
  for (unsigned Bits = 0; Bits < (1u << NumVars); ++Bits) {
    std::vector<bool> Env;
    for (unsigned V = 0; V < NumVars; ++V)
      Env.push_back((Bits >> V) & 1);
    EXPECT_EQ(M.evaluate(B, Env), F.eval(Env)) << "seed " << GetParam();
  }
}

TEST_P(BddPropertyTest, EqualFunctionsShareNode) {
  std::mt19937 Rng(GetParam() * 7919 + 13);
  BddManager M;
  constexpr unsigned NumVars = 4;
  Formula F = Formula::random(Rng, NumVars, 10);
  Formula G = Formula::random(Rng, NumVars, 10);
  BddRef BF = F.build(M);
  BddRef BG = G.build(M);
  bool SameSemantics = true;
  for (unsigned Bits = 0; Bits < (1u << NumVars); ++Bits) {
    std::vector<bool> Env;
    for (unsigned V = 0; V < NumVars; ++V)
      Env.push_back((Bits >> V) & 1);
    if (F.eval(Env) != G.eval(Env)) {
      SameSemantics = false;
      break;
    }
  }
  EXPECT_EQ(BF == BG, SameSemantics) << "canonicity violated, seed "
                                     << GetParam();
}

TEST_P(BddPropertyTest, QuantifierShannon) {
  // ∃x.F == F|x=0 ∨ F|x=1 and ∀x.F == F|x=0 ∧ F|x=1 for random F.
  std::mt19937 Rng(GetParam() * 31337 + 5);
  BddManager M;
  Formula F = Formula::random(Rng, 5, 14);
  BddRef B = F.build(M);
  for (BddVar V = 0; V < 5; ++V) {
    BddRef E = M.exists(B, V);
    BddRef A = M.forall(B, V);
    EXPECT_EQ(E, M.apply_or(M.restrict(B, V, false), M.restrict(B, V, true)));
    EXPECT_EQ(A, M.apply_and(M.restrict(B, V, false), M.restrict(B, V, true)));
    // ∀x.F ⇒ F ⇒ ∃x.F
    EXPECT_TRUE(M.implies(A, B));
    EXPECT_TRUE(M.implies(B, E));
  }
}

TEST_P(BddPropertyTest, ThenEdgesAreNeverComplemented) {
  // The complement-edge canonical form: only else-edges (and external
  // references) may carry the complement bit. Walk every reachable node of
  // a random BDD and check the stored then-edge is regular.
  std::mt19937 Rng(GetParam() * 48271 + 3);
  BddManager M;
  Formula F = Formula::random(Rng, 6, 16);
  BddRef B = F.build(M);
  std::vector<BddRef> Stack{B.regular()};
  std::set<uint32_t> Seen;
  while (!Stack.empty()) {
    BddRef Cur = Stack.back();
    Stack.pop_back();
    if (Cur.isTerminal() || !Seen.insert(Cur.nodeIndex()).second)
      continue;
    // Cur is regular, so nodeHigh returns the stored then-edge verbatim.
    BddRef High = M.nodeHigh(Cur);
    EXPECT_FALSE(High.isComplement())
        << "complemented then-edge stored, seed " << GetParam();
    Stack.push_back(M.nodeLow(Cur).regular());
    Stack.push_back(High.regular());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFormulas, BddPropertyTest,
                         ::testing::Range(0u, 24u));

//===----------------------------------------------------------------------===//
// Complement-edge structural properties
//===----------------------------------------------------------------------===//

TEST_F(BddTest, NegationIsFreeAndShared) {
  BddRef F = M.apply_and(M.var(0), M.apply_or(M.var(1), M.nvar(2)));
  uint64_t Before = M.numNodes();
  BddRef NF = M.apply_not(F);
  // ¬ is a complement-bit flip: no allocation, same node, involution.
  EXPECT_EQ(M.numNodes(), Before);
  EXPECT_EQ(NF.nodeIndex(), F.nodeIndex());
  EXPECT_NE(NF, F);
  EXPECT_EQ(M.apply_not(NF), F);
  // F and ¬F share every node.
  EXPECT_EQ(M.countNodes(F), M.countNodes(NF));
  EXPECT_EQ(M.countNodesMany({F, NF}), M.countNodes(F));
}

TEST_F(BddTest, SingleTerminalComplementPair) {
  EXPECT_EQ(M.bottom(), !M.top());
  EXPECT_EQ(M.top().nodeIndex(), M.bottom().nodeIndex());
  EXPECT_EQ(M.numNodes(), 0u);
}

TEST_F(BddTest, ImpliesAllocatesNoNodes) {
  // The inclusion test the forest's hot loops run per candidate parent:
  // an ITE-to-constant check that recurses over existing edges only.
  BddRef F = M.top(), G = M.top();
  for (BddVar V = 0; V < 12; ++V) {
    F = M.apply_and(F, M.apply_or(M.var(2 * V), M.var(2 * V + 1)));
    if (V % 2 == 0)
      G = M.apply_and(G, M.apply_or(M.var(2 * V), M.var(2 * V + 1)));
  }
  uint64_t Before = M.numNodes();
  // Cold queries allocate nothing...
  EXPECT_TRUE(M.implies(F, G));
  EXPECT_FALSE(M.implies(G, F));
  EXPECT_TRUE(M.implies(M.apply_and(F, G), F));
  EXPECT_EQ(M.numNodes(), Before);
  // ...and neither do cache-warm repeats.
  for (int I = 0; I < 100; ++I) {
    EXPECT_TRUE(M.implies(F, G));
    EXPECT_FALSE(M.implies(G, F));
  }
  EXPECT_EQ(M.numNodes(), Before);
}

//===----------------------------------------------------------------------===//
// Regression: op-cache collisions must miss, not corrupt
//===----------------------------------------------------------------------===//

TEST(BddCollisionTest, TinyCacheStaysSound) {
  // Pre-rework, cache entries stored only a mixed 64-bit hash: two triples
  // colliding on the full hash silently returned the wrong BDD. With a
  // 1-entry cache every second operation collides, so any keyed-by-hash
  // bug turns into immediate truth-table mismatches.
  BddManager M;
  M.setCacheCapacityForTesting(1);
  std::mt19937 Rng(20260728);
  constexpr unsigned NumVars = 6;
  for (int Round = 0; Round < 40; ++Round) {
    Formula F = Formula::random(Rng, NumVars, 14);
    BddRef B = F.build(M);
    ASSERT_TRUE(B.isValid());
    for (unsigned Bits = 0; Bits < (1u << NumVars); ++Bits) {
      std::vector<bool> Env;
      for (unsigned V = 0; V < NumVars; ++V)
        Env.push_back((Bits >> V) & 1);
      ASSERT_EQ(M.evaluate(B, Env), F.eval(Env))
          << "round " << Round << " row " << Bits;
    }
  }
  // The tiny cache really did collide; the operand check turned every
  // collision into a miss instead of a wrong result.
  EXPECT_GT(M.cacheCollisions(), 0u);
  EXPECT_GT(M.cacheHits(), 0u);
}

TEST(BddCollisionTest, TinyCacheQuantifiersAndCofactors) {
  BddManager M;
  M.setCacheCapacityForTesting(2);
  std::mt19937 Rng(7);
  constexpr unsigned NumVars = 5;
  for (int Round = 0; Round < 25; ++Round) {
    Formula F = Formula::random(Rng, NumVars, 12);
    BddRef B = F.build(M);
    for (BddVar V = 0; V < NumVars; ++V) {
      BddRef R0 = M.restrict(B, V, false), R1 = M.restrict(B, V, true);
      EXPECT_EQ(M.exists(B, V), M.apply_or(R0, R1));
      EXPECT_EQ(M.forall(B, V), M.apply_and(R0, R1));
    }
  }
  EXPECT_GT(M.cacheCollisions(), 0u);
}

//===----------------------------------------------------------------------===//
// Regression: budget-tripped var() must not skew numVars()
//===----------------------------------------------------------------------===//

TEST(BddBudgetTest, FailedVarDoesNotGrowNumVars) {
  BddManager M;
  Budget Bud(0, 3);
  M.setBudget(&Bud);
  ASSERT_TRUE(M.var(0).isValid());
  ASSERT_TRUE(M.var(1).isValid());
  ASSERT_TRUE(M.var(2).isValid());
  ASSERT_EQ(M.numVars(), 3u);
  // The node budget is now exhausted: the allocation fails and the
  // variable count must not move (pre-fix it jumped to 41 and skewed
  // every later satCount(F, numVars())).
  EXPECT_FALSE(M.var(40).isValid());
  EXPECT_EQ(M.numVars(), 3u);
  EXPECT_FALSE(M.nvar(50).isValid());
  EXPECT_EQ(M.numVars(), 3u);
  EXPECT_EQ(Bud.verdict(), BudgetVerdict::UnableMem);
}

//===----------------------------------------------------------------------===//
// existsMany: descending order, early exit, set semantics
//===----------------------------------------------------------------------===//

TEST_F(BddTest, ExistsManyOrderIndependentWithDuplicates) {
  BddRef F = M.apply_and(M.apply_xor(M.var(0), M.var(3)),
                         M.apply_or(M.var(1), M.nvar(2)));
  std::vector<BddVar> Asc{0, 1, 2, 3};
  std::vector<BddVar> Desc{3, 2, 1, 0};
  std::vector<BddVar> Dup{1, 3, 1, 0, 2, 3};
  BddRef Seq = F;
  for (BddVar V : Asc)
    Seq = M.exists(Seq, V);
  EXPECT_EQ(M.existsMany(F, Asc), Seq);
  EXPECT_EQ(M.existsMany(F, Desc), Seq);
  EXPECT_EQ(M.existsMany(F, Dup), Seq);
}

TEST_F(BddTest, ExistsManyEarlyExitsOnTerminal) {
  BddRef F = M.apply_and(M.var(0), M.var(1));
  // Quantifying the deepest variables first collapses to a terminal before
  // the shallow ones are ever visited; after that no work may happen.
  EXPECT_EQ(M.existsMany(F, {0, 1, 5, 9}), M.top());
  uint64_t Before = M.numNodes();
  EXPECT_EQ(M.existsMany(M.top(), {0, 1, 2, 3}), M.top());
  EXPECT_EQ(M.existsMany(M.bottom(), {0, 1, 2, 3}), M.bottom());
  EXPECT_EQ(M.numNodes(), Before);
}

//===----------------------------------------------------------------------===//
// Randomized truth-table cross-check of every public operation (≤8 vars):
// the safety net of the complement-edge migration.
//===----------------------------------------------------------------------===//

namespace {

class BddOpsCrossCheckTest : public ::testing::TestWithParam<unsigned> {};

/// Brute-force truth table of \p F over \p NumVars variables; row index
/// bit V holds variable V's value.
std::vector<bool> tableOf(const BddManager &M, BddRef F, unsigned NumVars) {
  std::vector<bool> Table;
  Table.reserve(1u << NumVars);
  for (unsigned Bits = 0; Bits < (1u << NumVars); ++Bits) {
    std::vector<bool> Env;
    for (unsigned V = 0; V < NumVars; ++V)
      Env.push_back((Bits >> V) & 1);
    Table.push_back(M.evaluate(F, Env));
  }
  return Table;
}

} // namespace

TEST_P(BddOpsCrossCheckTest, EveryOpMatchesBruteForce) {
  std::mt19937 Rng(GetParam() * 2654435761u + 17);
  BddManager M;
  constexpr unsigned NumVars = 8;
  const unsigned Rows = 1u << NumVars;
  Formula FF = Formula::random(Rng, NumVars, 18);
  Formula GG = Formula::random(Rng, NumVars, 18);
  Formula HH = Formula::random(Rng, NumVars, 12);
  BddRef F = FF.build(M), G = GG.build(M), H = HH.build(M);
  std::vector<bool> TF = tableOf(M, F, NumVars);
  std::vector<bool> TG = tableOf(M, G, NumVars);
  std::vector<bool> TH = tableOf(M, H, NumVars);

  auto check = [&](BddRef R, const std::function<bool(unsigned)> &Expect,
                   const char *Op) {
    ASSERT_TRUE(R.isValid()) << Op;
    std::vector<bool> TR = tableOf(M, R, NumVars);
    for (unsigned I = 0; I < Rows; ++I)
      ASSERT_EQ(TR[I], Expect(I))
          << Op << " mismatch at row " << I << ", seed " << GetParam();
  };

  check(M.apply_and(F, G), [&](unsigned I) { return TF[I] && TG[I]; }, "and");
  check(M.apply_or(F, G), [&](unsigned I) { return TF[I] || TG[I]; }, "or");
  check(M.apply_not(F), [&](unsigned I) { return !TF[I]; }, "not");
  check(M.apply_xor(F, G), [&](unsigned I) { return TF[I] != TG[I]; }, "xor");
  check(M.apply_iff(F, G), [&](unsigned I) { return TF[I] == TG[I]; }, "iff");
  check(M.apply_diff(F, G), [&](unsigned I) { return TF[I] && !TG[I]; },
        "diff");
  check(M.apply_imp(F, G), [&](unsigned I) { return !TF[I] || TG[I]; },
        "imp");
  check(M.ite(F, G, H), [&](unsigned I) { return TF[I] ? TG[I] : TH[I]; },
        "ite");

  BddVar V = static_cast<BddVar>(Rng() % NumVars);
  auto rowWith = [&](unsigned I, bool Val) {
    return Val ? (I | (1u << V)) : (I & ~(1u << V));
  };
  check(M.restrict(F, V, true),
        [&](unsigned I) { return TF[rowWith(I, true)]; }, "restrict1");
  check(M.restrict(F, V, false),
        [&](unsigned I) { return TF[rowWith(I, false)]; }, "restrict0");
  check(M.exists(F, V),
        [&](unsigned I) {
          return TF[rowWith(I, false)] || TF[rowWith(I, true)];
        },
        "exists");
  check(M.forall(F, V),
        [&](unsigned I) {
          return TF[rowWith(I, false)] && TF[rowWith(I, true)];
        },
        "forall");
  check(M.compose(F, V, G),
        [&](unsigned I) { return TF[rowWith(I, TG[I])]; }, "compose");

  // existsMany over a random variable subset, against brute-force
  // quantification over all assignments of the subset.
  std::vector<BddVar> Subset;
  unsigned SubsetMask = 0;
  for (BddVar SV = 0; SV < NumVars; ++SV)
    if (Rng() % 2) {
      Subset.push_back(SV);
      SubsetMask |= 1u << SV;
    }
  check(M.existsMany(F, Subset),
        [&](unsigned I) {
          // Any completion of the non-subset bits of row I satisfies F?
          for (unsigned Sub = SubsetMask;; Sub = (Sub - 1) & SubsetMask) {
            if (TF[(I & ~SubsetMask) | Sub])
              return true;
            if (Sub == 0)
              return false;
          }
        },
        "existsMany");

  // implies and satCount against the same tables.
  bool BruteImp = true, BruteConv = true;
  unsigned Ones = 0;
  for (unsigned I = 0; I < Rows; ++I) {
    BruteImp &= !TF[I] || TG[I];
    BruteConv &= !TG[I] || TF[I];
    Ones += TF[I] ? 1 : 0;
  }
  EXPECT_EQ(M.implies(F, G), BruteImp) << "seed " << GetParam();
  EXPECT_EQ(M.implies(G, F), BruteConv) << "seed " << GetParam();
  EXPECT_DOUBLE_EQ(M.satCount(F, NumVars), static_cast<double>(Ones));

  // anySat returns a genuine witness whenever F is satisfiable.
  if (!F.isFalse()) {
    std::vector<bool> Env(NumVars, false);
    for (auto &[Var, Val] : M.anySat(F))
      Env[Var] = Val;
    EXPECT_TRUE(M.evaluate(F, Env)) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomOpSuites, BddOpsCrossCheckTest,
                         ::testing::Range(0u, 16u));

//===----------------------------------------------------------------------===//
// Deep implies cross-check (64-256 variables, beyond truth tables): the
// chain walk against the ITE-built difference, on the shapes the clock
// forest produces — cubes, nested cubes sharing a prefix, and cube ∨ cube
// mixes whose two cofactor pairs stay open (the memoized branch points).
//===----------------------------------------------------------------------===//

namespace {

/// A random cube over variables [First, Last): each variable appears with
/// probability \p Percent/100, positive or negative with equal odds.
BddRef randomCube(BddManager &M, std::mt19937 &Rng, BddVar First,
                  BddVar Last, unsigned Percent) {
  BddRef C = M.top();
  for (BddVar V = First; V < Last; ++V)
    if (Rng() % 100 < Percent)
      C = M.apply_and(C, (Rng() & 1) ? M.var(V) : M.nvar(V));
  return C;
}

class BddDeepImpliesTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(BddDeepImpliesTest, ImpliesMatchesEmptyDifference) {
  std::mt19937 Rng(GetParam() * 2246822519u + 3);
  const BddVar NumVars = 64 + Rng() % 193; // 64..256
  BddManager M;
  std::vector<BddRef> Pool;
  for (unsigned I = 0; I < 8; ++I)
    Pool.push_back(randomCube(M, Rng, 0, NumVars, I % 2 ? 15 : 70));
  // Nested cubes: a shared prefix refined segment by segment, like the
  // clocks down one branch of a tree.
  const BddVar Half = NumVars / 2, Segment = (NumVars - Half) / 6;
  BddRef Nested = randomCube(M, Rng, 0, Half, 60);
  Pool.push_back(Nested);
  for (BddVar S = 0; S < 6; ++S) {
    BddVar First = Half + S * Segment;
    Nested = M.apply_and(Nested,
                         randomCube(M, Rng, First, First + Segment, 50));
    Pool.push_back(Nested);
  }
  // Cube ∨ cube mixes, then complemented refs of anything so far.
  size_t Cubes = Pool.size();
  for (unsigned I = 0; I < 8; ++I)
    Pool.push_back(M.apply_or(Pool[Rng() % Cubes], Pool[Rng() % Cubes]));
  for (unsigned I = 0; I < 6; ++I)
    Pool.push_back(!Pool[Rng() % Pool.size()]);

  unsigned Proved = 0, Refuted = 0;
  for (BddRef F : Pool)
    for (BddRef G : Pool) {
      bool Want = M.apply_diff(F, G).isFalse();
      ASSERT_EQ(M.implies(F, G), Want)
          << "seed " << GetParam() << " vars " << NumVars;
      ++(Want ? Proved : Refuted);
    }
  // Both verdicts are exercised well beyond the reflexive pairs.
  EXPECT_GT(Proved, Pool.size());
  EXPECT_GT(Refuted, Pool.size());
}

INSTANTIATE_TEST_SUITE_P(RandomDeepCubes, BddDeepImpliesTest,
                         ::testing::Range(0u, 12u));

TEST(BddBudgetTest, ImpliesCutMidChainCachesNothing) {
  // Queries F_i ⇒ G_i that are true, split at x0 into two open pairs (a
  // branch point, memoized) over ~150-step cube chains (not memoized).
  // The time budget is polled once every 4096 steps, so the first poll
  // after the deadline lands inside some query's chain.
  BddManager M;
  auto prefix = [&M](BddVar From, BddVar To) {
    BddRef C = M.top();
    for (BddVar V = From; V < To; ++V)
      C = M.apply_and(C, M.var(V));
    return C;
  };
  std::vector<BddRef> Fs, Gs;
  for (BddVar I = 0; I < 64; ++I) {
    BddRef Hi = prefix(1, 150), Lo = prefix(1, 140);
    Fs.push_back(M.ite(M.var(0), M.apply_and(Hi, prefix(150, 151 + I)),
                       M.apply_and(Lo, prefix(140, 141 + I))));
    Gs.push_back(M.ite(M.var(0), Hi, Lo));
  }
  uint64_t Nodes = M.numNodes();

  Budget Bud(1, 0);
  Bud.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  M.setBudget(&Bud);
  size_t Cut = Fs.size();
  for (size_t I = 0; I < Fs.size(); ++I) {
    bool R = M.implies(Fs[I], Gs[I]);
    if (M.budgetExhausted()) {
      EXPECT_FALSE(R) << "a cut query answers a conservative false";
      Cut = I;
      break;
    }
    EXPECT_TRUE(R) << I;
  }
  ASSERT_LT(Cut, Fs.size()) << "the time budget never tripped";
  EXPECT_GT(Cut, 0u) << "the budget should trip mid-sequence, not at once";
  EXPECT_EQ(Bud.verdict(), BudgetVerdict::UnableCpu);

  // Without the budget the same query is proved: the cut stored no
  // conservative false at its branch point.
  M.setBudget(nullptr);
  EXPECT_TRUE(M.implies(Fs[Cut], Gs[Cut]));
  for (size_t I = 0; I < Fs.size(); ++I) {
    EXPECT_TRUE(M.implies(Fs[I], Gs[I])) << I;
    EXPECT_FALSE(M.implies(Gs[I], Fs[I])) << I;
  }
  EXPECT_EQ(M.numNodes(), Nodes);
}

//===----------------------------------------------------------------------===//
// Garbage collection: the linker's joint clock space opts in, promises
// addRef'd roots, and expects sweeps to reclaim everything else while
// the operation caches forget the dead entries.
//===----------------------------------------------------------------------===//

TEST(BddGcTest, LiveRefsSurviveTheSweepAndGarbageIsReclaimed) {
  BddManager M;
  M.enableGC();
  BddRef A = M.var(0), B = M.var(1), C = M.var(2);
  BddRef F = M.apply_or(M.apply_and(A, B), C);
  M.addRef(F);

  // Unprotected churn: distinct conjunction ladders, dead the moment the
  // next one replaces them.
  std::mt19937 Rng(7);
  for (int I = 0; I < 24; ++I) {
    BddRef T = (Rng() & 1) ? M.var(3 + Rng() % 8) : M.nvar(3 + Rng() % 8);
    for (int K = 0; K < 10; ++K) {
      BddRef V = (Rng() & 1) ? M.var(3 + Rng() % 8) : M.nvar(3 + Rng() % 8);
      T = (Rng() & 1) ? M.apply_and(T, V) : M.apply_or(T, V);
    }
  }

  uint64_t LiveBefore = M.numLiveNodes();
  uint64_t Reclaimed = M.gc();
  EXPECT_GT(Reclaimed, 0u);
  EXPECT_EQ(M.gcRuns(), 1u);
  EXPECT_EQ(M.gcReclaimed(), Reclaimed);
  EXPECT_EQ(M.numLiveNodes(), LiveBefore - Reclaimed);

  // The protected root still computes (x0 & x1) | x2.
  for (unsigned Bits = 0; Bits < 8; ++Bits) {
    std::vector<bool> Env(11, false);
    Env[0] = Bits & 1;
    Env[1] = Bits & 2;
    Env[2] = Bits & 4;
    bool Want = (Env[0] && Env[1]) || Env[2];
    EXPECT_EQ(M.evaluate(F, Env), Want) << "assignment " << Bits;
  }

  // Dropping the last external ref makes the root garbage for the next
  // sweep.
  M.decRef(F);
  EXPECT_GT(M.gc(), 0u);
  EXPECT_EQ(M.gcRuns(), 2u);
}

TEST(BddGcTest, SweepInvalidatesTheOperationCachesNoStaleHits) {
  BddManager M;
  M.enableGC();
  M.setCacheCapacityForTesting(64);
  BddRef A = M.var(0), B = M.var(1);
  BddRef G = M.apply_and(A, B); // Seeds an ite-cache entry.
  (void)G;

  // Everything is unprotected: the sweep frees the nodes for in-place
  // reuse, so any surviving cache entry would hand back an index that
  // now means something else.
  EXPECT_GT(M.gc(), 0u);

  uint64_t Hits = M.cacheHits();
  BddRef A2 = M.var(0), B2 = M.var(1);
  BddRef G2 = M.apply_and(A2, B2);
  EXPECT_EQ(M.cacheHits(), Hits) << "stale ite-cache hit after a sweep";
  for (unsigned Bits = 0; Bits < 4; ++Bits) {
    std::vector<bool> Env(2, false);
    Env[0] = Bits & 1;
    Env[1] = Bits & 2;
    EXPECT_EQ(M.evaluate(G2, Env), Env[0] && Env[1]);
  }
}

TEST(BddGcTest, BudgetPressureTriggersCollectionInsteadOfExhaustion) {
  BddManager M;
  Budget Bud(0, 2000); // Unlimited time, 2000 live nodes.
  Bud.start();
  M.setBudget(&Bud);
  M.enableGC();

  // A small protected working set, verified again after the churn.
  BddRef Keep =
      M.apply_or(M.apply_and(M.var(0), M.var(1)), M.var(2));
  M.addRef(Keep);

  // Churn far more garbage than the node limit. The GC contract: refs a
  // caller needs across a public operation must be addRef'd, because any
  // public entry is a safe collection point.
  auto protectedOp = [&](BddRef F, BddRef G, bool IsAnd) {
    M.addRef(F);
    M.addRef(G);
    BddRef R = IsAnd ? M.apply_and(F, G) : M.apply_or(F, G);
    M.decRef(F);
    M.decRef(G);
    return R;
  };
  std::mt19937 Rng(11);
  for (int I = 0; I < 400; ++I) {
    BddRef T = (Rng() & 1) ? M.var(Rng() % 24) : M.nvar(Rng() % 24);
    for (int K = 0; K < 30 && T.isValid(); ++K) {
      BddRef V = (Rng() & 1) ? M.var(Rng() % 24) : M.nvar(Rng() % 24);
      T = protectedOp(T, V, Rng() & 1);
    }
    ASSERT_TRUE(T.isValid()) << "budget tripped at iteration " << I;
  }

  EXPECT_FALSE(Bud.exhausted());
  EXPECT_EQ(Bud.verdict(), BudgetVerdict::Ok);
  EXPECT_GT(M.gcRuns(), 0u);
  EXPECT_GT(M.gcReclaimed(), 0u);
  EXPECT_LE(M.numLiveNodes(), Bud.nodeLimit());

  for (unsigned Bits = 0; Bits < 8; ++Bits) {
    std::vector<bool> Env(24, false);
    Env[0] = Bits & 1;
    Env[1] = Bits & 2;
    Env[2] = Bits & 4;
    bool Want = (Env[0] && Env[1]) || Env[2];
    EXPECT_EQ(M.evaluate(Keep, Env), Want) << "assignment " << Bits;
  }
}
