//===--- forest_test.cpp - Arborescent canonical form ---------------------===//

#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace sigc;
using namespace sigc::test;

namespace {

/// Finds the clock variable of signal \p Name.
ClockVarId clockOf(Compilation &C, const std::string &Name) {
  for (SignalId S = 0; S < C.Kernel->numSignals(); ++S)
    if (C.names().spelling(C.Kernel->Signals[S].Name) == Name)
      return C.Clocks.signalClock(S);
  ADD_FAILURE() << "no signal " << Name;
  return InvalidClockVar;
}

SignalId sigOf(Compilation &C, const std::string &Name) {
  for (SignalId S = 0; S < C.Kernel->numSignals(); ++S)
    if (C.names().spelling(C.Kernel->Signals[S].Name) == Name)
      return S;
  ADD_FAILURE() << "no signal " << Name;
  return InvalidSignal;
}

/// True if node of A is a (possibly transitive) descendant of node of B.
bool isDescendant(Compilation &C, ClockVarId A, ClockVarId B) {
  ForestNodeId NA = C.Forest->nodeOf(A);
  ForestNodeId NB = C.Forest->nodeOf(B);
  if (NA == InvalidForestNode || NB == InvalidForestNode)
    return false;
  while (NA != InvalidForestNode) {
    if (NA == NB)
      return true;
    NA = C.Forest->node(NA).Parent;
  }
  return false;
}

} // namespace

TEST(Forest, WhenPlacesClockUnderLiteral) {
  auto C = compileOk(proc("? integer A; boolean CC; ! integer Y;",
                          "   Y := A when CC\n   | synchro {A, CC}"));
  // ^Y = ^A ∧ [CC] with ^A = ^CC: Y's clock must merge with [CC] itself.
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "Y")),
            C->Forest->rep(C->Clocks.posLiteral(sigOf(*C, "CC"))));
}

TEST(Forest, PartitionChildrenUnderCondition) {
  auto C = compileOk(proc("? boolean CC; ! boolean Y;", "   Y := not CC"));
  ClockVarId Pos = C->Clocks.posLiteral(sigOf(*C, "CC"));
  ClockVarId Neg = C->Clocks.negLiteral(sigOf(*C, "CC"));
  ClockVarId Parent = clockOf(*C, "CC");
  EXPECT_TRUE(isDescendant(*C, Pos, Parent));
  EXPECT_TRUE(isDescendant(*C, Neg, Parent));
  // And they are distinct non-null classes.
  EXPECT_NE(C->Forest->rep(Pos), C->Forest->rep(Neg));
  EXPECT_FALSE(C->Forest->isNull(Pos));
  EXPECT_FALSE(C->Forest->isNull(Neg));
}

TEST(Forest, ChildSubsetOfParentInvariant) {
  // After building any of the benchmark-ish programs, every child BDD
  // implies its parent BDD (the defining invariant of the hierarchy).
  auto C = compileOk(proc(
      "? integer A; boolean C1, C2; ! integer Y;",
      "   T1 := A when C1\n   | T2 := T1 when C2\n   | Z := T1 default T2\n"
      "   | Y := Z",
      "integer T1, T2, Z;"));
  BddManager &M = C->Bdds;
  for (ForestNodeId N : C->Forest->dfsOrder()) {
    const ClockNode &Node = C->Forest->node(N);
    if (Node.Parent == InvalidForestNode)
      continue;
    EXPECT_TRUE(M.implies(Node.Bdd, C->Forest->node(Node.Parent).Bdd));
  }
}

TEST(Forest, DfsVisitsParentsFirst) {
  auto C = compileOk(proc("? integer A; boolean C1, C2; ! integer Y;",
                          "   T1 := A when C1\n   | Y := T1 when C2",
                          "integer T1;"));
  std::vector<ForestNodeId> Order = C->Forest->dfsOrder();
  std::vector<int> Position(C->Forest->numNodes(), -1);
  for (unsigned I = 0; I < Order.size(); ++I)
    Position[Order[I]] = static_cast<int>(I);
  for (ForestNodeId N : Order) {
    ForestNodeId P = C->Forest->node(N).Parent;
    if (P != InvalidForestNode) {
      EXPECT_LT(Position[P], Position[N]);
    }
  }
}

TEST(Forest, IntersectionInsertedUnderDeepest) {
  // M := A1 when Q: ^M = [P] ∧ [Q]; both literals sit under ^IN, so ^M
  // must be strictly below one of them, not under the root.
  auto C = compileOk(proc("? integer IN; ! integer OUT;",
                          "   P := (IN mod 2) = 0\n"
                          "   | A1 := IN when P\n"
                          "   | Q := (IN mod 3) = 0\n"
                          "   | M := A1 when Q\n"
                          "   | OUT := IN default M",
                          "boolean P, Q; integer A1, M;"));
  ClockVarId MC = clockOf(*C, "M");
  ForestNodeId MN = C->Forest->nodeOf(MC);
  ASSERT_NE(MN, InvalidForestNode);
  EXPECT_GE(C->Forest->depth(MN), 2u);
}

TEST(Forest, UnionMergesWithRootWhenCovering) {
  // ^Y = [C] ∨ [¬C] = ^C: the union must merge with the root class, not
  // become a new node.
  auto C = compileOk(proc("? boolean CC; ! integer Y;",
                          "   U := 1 when CC\n"
                          "   | V := 2 when (not CC)\n"
                          "   | Y := U default V",
                          "integer U, V;"));
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "Y")),
            C->Forest->rep(clockOf(*C, "CC")));
}

TEST(Forest, AlarmHierarchyMatchesFigure7) {
  auto C = compileOk(R"(
process ALARM =
  ( ? boolean BRAKE, STOP_OK, LIMIT_REACHED;
    ! boolean ALARM; )
  (| BRAKING_STATE := BRAKING_NEXT_STATE $ 1 init false
   | BRAKING_NEXT_STATE :=
       (true when BRAKE) default (false when STOP_OK) default BRAKING_STATE
   | synchro {when BRAKING_STATE, STOP_OK, LIMIT_REACHED}
   | synchro {when (not BRAKING_STATE), BRAKE}
   | ALARM := LIMIT_REACHED and (not STOP_OK)
  |)
  where boolean BRAKING_STATE, BRAKING_NEXT_STATE; end;
)");
  // ĉSTOP_OK = ĉLIMIT = ĉALARM = [BRAKING_STATE].
  ClockVarId StateLit = C->Clocks.posLiteral(sigOf(*C, "BRAKING_STATE"));
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "STOP_OK")),
            C->Forest->rep(StateLit));
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "ALARM")), C->Forest->rep(StateLit));
  // ĉBRAKE = [¬BRAKING_STATE].
  ClockVarId NegLit = C->Clocks.negLiteral(sigOf(*C, "BRAKING_STATE"));
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "BRAKE")), C->Forest->rep(NegLit));
  // [BRAKE] under [¬BRAKING_STATE]; [STOP_OK] under [BRAKING_STATE].
  EXPECT_TRUE(isDescendant(*C, C->Clocks.posLiteral(sigOf(*C, "BRAKE")),
                           NegLit));
  EXPECT_TRUE(isDescendant(*C, C->Clocks.posLiteral(sigOf(*C, "STOP_OK")),
                           StateLit));
  // Exactly one free clock: the master ĉ (paper Section 3.3).
  EXPECT_EQ(C->Forest->freeClocks().size(), 1u);
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "BRAKING_STATE")),
            C->Forest->node(C->Forest->freeClocks()[0]).Rep);
  // The cyclic equation ĉ = [D] ∨ [C1] ∨ ĉ was discharged by rewriting.
  EXPECT_GE(C->Forest->stats().VerifiedEquations, 1u);
}

TEST(Forest, EmptyClockDetected) {
  // Y := (A when C) when (not C) has the null clock [C] ∧ [¬C]
  // (A and CC synchronized so the literals share a tree).
  auto C = compileOk(proc("? integer A; boolean CC; ! integer Y;",
                          "   synchro {A, CC}\n"
                          "   | T := A when CC\n"
                          "   | U := T when (not CC)\n"
                          "   | Y := A default U",
                          "integer T, U;"));
  EXPECT_TRUE(C->Forest->isNull(clockOf(*C, "U")));
  EXPECT_GE(C->Forest->stats().NullClocks, 1u);
}

TEST(Forest, ConditionAlwaysTrueCollapsesNegLiteral) {
  // synchro {when C, C} forces [C] = ĉ, hence [¬C] = 0̂.
  auto C = compileOk(proc("? boolean CC; ! boolean Y;",
                          "   Y := CC\n   | synchro {when CC, CC}"));
  SignalId S = sigOf(*C, "CC");
  EXPECT_FALSE(C->Forest->isNull(C->Clocks.posLiteral(S)));
  EXPECT_TRUE(C->Forest->isNull(C->Clocks.negLiteral(S)));
  EXPECT_EQ(C->Forest->rep(C->Clocks.posLiteral(S)),
            C->Forest->rep(clockOf(*C, "CC")));
}

TEST(Forest, ContradictoryClockRejected) {
  // Equating the positive literals of two independent conditions cannot
  // be proved by the hierarchy (it would only hold if C ≡ D at every
  // instant) — the compiler rejects the program, as the paper allows for
  // its incomplete heuristic.
  auto C = compileErr(proc("? integer A; boolean CC, DD; ! integer Y;",
                           "   synchro {A, CC}\n   | synchro {A, DD}\n"
                           "   | T := A when CC\n   | U := A when DD\n"
                           "   | synchro {T, U}\n   | Y := A",
                           "integer T, U;"),
                      CompileStage::ClockCalculus);
  EXPECT_NE(C->Diags.render().find("temporally incorrect"),
            std::string::npos);
}

TEST(Forest, EquatingLiteralsOfOneConditionCollapses) {
  // synchro {when CC, when (not CC)} forces [C] = [¬C], hence everything
  // on CC's clock is empty — accepted, with the clocks proved null.
  auto C = compileOk(proc("? boolean CC; ! boolean Y;",
                          "   Y := CC\n"
                          "   | synchro {when CC, when (not CC)}"));
  SignalId S = sigOf(*C, "CC");
  EXPECT_TRUE(C->Forest->isNull(C->Clocks.posLiteral(S)));
  EXPECT_TRUE(C->Forest->isNull(C->Clocks.negLiteral(S)));
  EXPECT_TRUE(C->Forest->isNull(clockOf(*C, "CC")));
}

TEST(Forest, CrossTreeDefinitionBecomesResidual) {
  // A and B have unrelated clocks; Y := A default B is a cross-tree union
  // kept as an explicit residual definition rooted at ^Y.
  auto C = compileOk(proc("? integer A, B; ! integer Y;",
                          "   Y := A default B"));
  ForestNodeId YN = C->Forest->nodeOf(clockOf(*C, "Y"));
  ASSERT_NE(YN, InvalidForestNode);
  EXPECT_EQ(C->Forest->node(YN).Def, ClockDefKind::Residual);
  EXPECT_EQ(C->Forest->stats().ResidualDefinitions, 1u);
  // Free clocks: ^A and ^B but not ^Y.
  EXPECT_EQ(C->Forest->freeClocks().size(), 2u);
}

TEST(Forest, SynchronizedInputsShareNode) {
  auto C = compileOk(proc("? integer A, B; ! integer Y;",
                          "   Y := A + B"));
  EXPECT_EQ(C->Forest->rep(clockOf(*C, "A")), C->Forest->rep(clockOf(*C,
                                                                     "B")));
  EXPECT_EQ(C->Forest->freeClocks().size(), 1u);
}

TEST(Forest, StatsReported) {
  auto C = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                          "   Y := A when C1"));
  const ForestBuildStats &St = C->Forest->stats();
  EXPECT_GE(St.Iterations, 1u);
  EXPECT_GT(St.BddNodes, 0u);
  EXPECT_GT(St.InclusionTests, 0u);
}

// The economic pin of the inclusion test: clock BDDs are mostly cubes, so
// implies() walks their chains and consults the op cache only at branch
// points. Probing at every step instead costs STOPWATCH 1,212,633 probes
// and WATCH 254,273; the chain walk needs 49,109 and 18,425.
TEST(Forest, ClockCalculusProbesTheBddCacheSparingly) {
  struct Bound {
    const char *Name;
    uint64_t MaxProbes;
  };
  const Bound Bounds[] = {{"STOPWATCH", 100000}, {"WATCH", 40000}};
  std::vector<Figure13Program> Suite = figure13Suite();
  for (const Bound &B : Bounds) {
    auto It = std::find_if(Suite.begin(), Suite.end(),
                           [&](const Figure13Program &P) {
                             return P.Name == B.Name;
                           });
    ASSERT_NE(It, Suite.end()) << B.Name;
    auto C = compileOk(It->Source);
    ASSERT_TRUE(C->Ok) << B.Name;
    uint64_t Probes = C->Bdds.cacheHits() + C->Bdds.cacheMisses();
    EXPECT_LE(Probes, B.MaxProbes) << B.Name;
  }
}

TEST(Forest, DumpShowsHierarchy) {
  auto C = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                          "   Y := A when C1\n   | synchro {A, C1}"));
  std::string D = C->Forest->dump(C->Clocks, *C->Kernel, C->names());
  EXPECT_NE(D.find("[literal +C1]"), std::string::npos) << D;
  EXPECT_NE(D.find("free root"), std::string::npos) << D;
}

TEST(Forest, DotExportShowsTreeAndOperandEdges) {
  auto C = compileOk(proc("? integer A, B; boolean C1; ! integer Y;",
                          "   T := A when C1\n   | Y := T default B",
                          "integer T;"));
  std::string Dot = C->Forest->toDot(C->Clocks, *C->Kernel, C->names());
  EXPECT_NE(Dot.find("digraph clocks"), std::string::npos);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos) << Dot;
  EXPECT_NE(Dot.find("[C1]"), std::string::npos) << Dot;
}

TEST(Forest, DeepChainDepthGrows) {
  // Divider chain: each stage's clock nests under the previous literal.
  std::string Body = "   C1 := (IN mod 2) = 0\n"
                     "   | S1 := IN when C1\n"
                     "   | C2 := (S1 mod 2) = 0\n"
                     "   | S2 := S1 when C2\n"
                     "   | C3 := (S2 mod 2) = 0\n"
                     "   | S3 := S2 when C3\n"
                     "   | OUT := S3";
  auto C = compileOk(proc("? integer IN; ! integer OUT;", Body,
                          "boolean C1, C2, C3; integer S1, S2, S3;"));
  ForestNodeId N = C->Forest->nodeOf(clockOf(*C, "S3"));
  ASSERT_NE(N, InvalidForestNode);
  EXPECT_EQ(C->Forest->depth(N), 3u);
}

TEST(Forest, BudgetExhaustionReportsUnable) {
  // A tiny node budget must abort resolution with UnableMem, not crash.
  // (Two nodes: with complement edges this program needs only four BDD
  // nodes in total — ¬x shares x's node — so the pre-rework limit of
  // eight no longer trips.)
  CompileOptions Options;
  Options.Limits = Budget(0, 2);
  auto C = compileSource("<budget>", proc("? integer IN; ! integer OUT;",
                                          "   C1 := (IN mod 2) = 0\n"
                                          "   | S1 := IN when C1\n"
                                          "   | C2 := (S1 mod 2) = 0\n"
                                          "   | S2 := S1 when C2\n"
                                          "   | OUT := S2",
                                          "boolean C1, C2; integer S1, S2;"),
                         Options);
  EXPECT_FALSE(C->Ok);
  EXPECT_EQ(C->FailedStage, CompileStage::ClockCalculus);
  EXPECT_EQ(C->ForestBudget.verdict(), BudgetVerdict::UnableMem);
}

//===----------------------------------------------------------------------===//
// Property sweep: randomized when/default programs keep the invariants.
//===----------------------------------------------------------------------===//

namespace {
class ForestPropertyTest : public ::testing::TestWithParam<unsigned> {};
} // namespace

TEST_P(ForestPropertyTest, InvariantsHoldOnRandomPrograms) {
  unsigned Seed = GetParam();
  std::mt19937 Rng(Seed);
  // Build a random but well-formed chain/merge program.
  std::string Body;
  std::string Locals = "boolean B0; ";
  std::vector<std::string> Pool{"IN"};
  Body += "   B0 := (IN mod 2) = 0\n";
  std::vector<std::string> Conds{"B0"};
  unsigned NextId = 1;
  for (unsigned I = 0; I < 8; ++I) {
    unsigned Kind = Rng() % 3;
    std::string New = "S" + std::to_string(NextId);
    if (Kind == 0) {
      // Downsample a pool signal by a random condition.
      std::string Src = Pool[Rng() % Pool.size()];
      std::string Cond = Conds[Rng() % Conds.size()];
      Locals += "integer " + New + "; ";
      Body += "   | " + New + " := " + Src + " when " + Cond + "\n";
      Pool.push_back(New);
    } else if (Kind == 1) {
      // Merge two pool signals.
      std::string A = Pool[Rng() % Pool.size()];
      std::string B = Pool[Rng() % Pool.size()];
      Locals += "integer " + New + "; ";
      Body += "   | " + New + " := " + A + " default " + B + "\n";
      Pool.push_back(New);
    } else {
      // New condition on a pool signal.
      std::string Src = Pool[Rng() % Pool.size()];
      std::string CN = "B" + std::to_string(NextId);
      Locals += "boolean " + CN + "; ";
      Body += "   | " + CN + " := (" + Src + " mod 3) = 0\n";
      Conds.push_back(CN);
    }
    ++NextId;
  }
  Body += "   | OUT := " + Pool.back();
  auto C = compileOk(proc("? integer IN; ! integer OUT;", Body, Locals));
  if (!C->Ok)
    return;

  BddManager &M = C->Bdds;
  std::vector<ForestNodeId> Order = C->Forest->dfsOrder();
  for (ForestNodeId N : Order) {
    const ClockNode &Node = C->Forest->node(N);
    EXPECT_TRUE(Node.Alive);
    EXPECT_FALSE(Node.Bdd.isFalse()) << "null clock kept a node";
    if (Node.Parent != InvalidForestNode) {
      // child ⊆ parent, strictly.
      EXPECT_TRUE(M.implies(Node.Bdd, C->Forest->node(Node.Parent).Bdd));
      EXPECT_NE(Node.Bdd, C->Forest->node(Node.Parent).Bdd);
    }
    // No two siblings share a BDD (canonicity).
    if (Node.Parent != InvalidForestNode) {
      for (ForestNodeId Sib : C->Forest->node(Node.Parent).Children) {
        if (Sib != N) {
          EXPECT_NE(C->Forest->node(Sib).Bdd, Node.Bdd);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, ForestPropertyTest,
                         ::testing::Range(0u, 20u));
