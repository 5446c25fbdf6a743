//===--- ClockForest.cpp - Arborescent resolution -------------------------===//

#include "forest/ClockForest.h"

#include <algorithm>
#include <cassert>

using namespace sigc;

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

bool ClockForest::includes(BddRef Sub, BddRef Sup) {
  ++Stats.InclusionTests;
  return Mgr.implies(Sub, Sup);
}

ForestNodeId ClockForest::rootOf(ForestNodeId N) const {
  while (Nodes[N].Parent != InvalidForestNode)
    N = Nodes[N].Parent;
  return N;
}

unsigned ClockForest::depth(ForestNodeId N) const {
  unsigned D = 0;
  while (Nodes[N].Parent != InvalidForestNode) {
    N = Nodes[N].Parent;
    ++D;
  }
  return D;
}

ForestNodeId ClockForest::newNode(ClockVarId Rep) {
  ForestNodeId Id = static_cast<ForestNodeId>(Nodes.size());
  ClockNode N;
  N.Rep = Rep;
  N.Bdd = Mgr.top();
  Nodes.push_back(N);
  ClassNode[Rep] = Id;
  return Id;
}

bool ClockForest::classIsNull(ClockVarId Rep) {
  auto It = NullClass.find(Rep);
  return It != NullClass.end() && It->second;
}

bool ClockForest::isNull(ClockVarId V) { return classIsNull(Classes.find(V)); }

ForestNodeId ClockForest::nodeOf(ClockVarId V) {
  ClockVarId Rep = Classes.find(V);
  if (classIsNull(Rep))
    return InvalidForestNode;
  auto It = ClassNode.find(Rep);
  return It == ClassNode.end() ? InvalidForestNode : It->second;
}

void ClockForest::markNullSubtree(ForestNodeId N) {
  ClockNode &Node = Nodes[N];
  if (!Node.Alive)
    return;
  Node.Alive = false;
  NullClass[Node.Rep] = true;
  ClassNode.erase(Node.Rep);
  ++Stats.NullClocks;
  for (ForestNodeId C : Node.Children)
    markNullSubtree(C);
  Node.Children.clear();
}

void ClockForest::setClassNull(ClockVarId Rep) {
  if (classIsNull(Rep))
    return;
  auto It = ClassNode.find(Rep);
  if (It == ClassNode.end()) {
    NullClass[Rep] = true;
    ++Stats.NullClocks;
    return;
  }
  ForestNodeId N = It->second;
  // Detach from the parent, then kill the whole subtree (children are
  // included in their parent, so an empty clock empties them too).
  ForestNodeId P = Nodes[N].Parent;
  if (P != InvalidForestNode) {
    auto &Sibs = Nodes[P].Children;
    Sibs.erase(std::remove(Sibs.begin(), Sibs.end(), N), Sibs.end());
    Nodes[N].Parent = InvalidForestNode;
  }
  markNullSubtree(N);
}

ClockForest::ResolvedOperand ClockForest::resolveOperand(ClockVarId V) {
  ResolvedOperand R;
  ClockVarId Rep = Classes.find(V);
  if (classIsNull(Rep)) {
    R.Null = true;
    return R;
  }
  auto It = ClassNode.find(Rep);
  assert(It != ClassNode.end() && "class without node");
  R.Node = It->second;
  R.Root = rootOf(R.Node);
  R.Bdd = Nodes[R.Node].Bdd;
  return R;
}

BddVar ClockForest::conditionVar(SignalId C) const {
  auto It = CondVars.find(C);
  return It == CondVars.end() ? ~0u : It->second;
}

//===----------------------------------------------------------------------===//
// Tree surgery
//===----------------------------------------------------------------------===//

bool ClockForest::refreshSubtreeBdds(ForestNodeId Sub) {
  // Every proper descendant's BDD was relative to Sub (which was a root, so
  // relative-to-Sub equals the stored value); the new value is
  // Sub.Bdd ∧ old.
  BddRef Factor = Nodes[Sub].Bdd;
  std::vector<ForestNodeId> Stack(Nodes[Sub].Children.begin(),
                                  Nodes[Sub].Children.end());
  while (!Stack.empty()) {
    ForestNodeId N = Stack.back();
    Stack.pop_back();
    Nodes[N].Bdd = Mgr.apply_and(Factor, Nodes[N].Bdd);
    if (!Nodes[N].Bdd.isValid())
      return false;
    for (ForestNodeId C : Nodes[N].Children)
      Stack.push_back(C);
  }
  return true;
}

ForestNodeId ClockForest::findDeepestParent(ForestNodeId Root, BddRef Target,
                                            ForestNodeId *EqualNode) {
  *EqualNode = InvalidForestNode;
  // DFS over nodes whose BDD contains Target; among them pick the deepest
  // (ties: smaller node id — the deterministic stand-in for the paper's
  // canonical factorization).
  ForestNodeId Best = Root;
  unsigned BestDepth = 0;
  struct Item {
    ForestNodeId Node;
    unsigned Depth;
  };
  std::vector<Item> Stack{{Root, 0}};
  while (!Stack.empty()) {
    Item I = Stack.back();
    Stack.pop_back();
    const ClockNode &N = Nodes[I.Node];
    if (N.Bdd == Target) {
      // Exact BDD match: the clocks are provably equal; the caller merges
      // the classes (this includes the root, e.g. for a formula that
      // rewrites to the whole tree's clock as in the ALARM example).
      if (*EqualNode == InvalidForestNode || I.Node < *EqualNode)
        *EqualNode = I.Node;
      continue;
    }
    if (I.Depth > BestDepth || (I.Depth == BestDepth && I.Node < Best)) {
      Best = I.Node;
      BestDepth = I.Depth;
    }
    for (ForestNodeId C : N.Children)
      if (Nodes[C].Alive && includes(Target, Nodes[C].Bdd))
        Stack.push_back({C, I.Depth + 1});
  }
  return Best;
}

bool ClockForest::mergeInto(ForestNodeId From, ForestNodeId Into,
                            DiagnosticEngine &Diags, SourceLoc Loc) {
  if (From == Into)
    return true;
  assert(Nodes[From].Bdd == Nodes[Into].Bdd &&
         "mergeInto requires equal BDDs");

  ClockVarId RepFrom = Nodes[From].Rep;
  ClockVarId RepInto = Nodes[Into].Rep;
  ClassNode.erase(RepFrom);
  ClassNode.erase(RepInto);
  ClockVarId Rep = Classes.unite(RepFrom, RepInto);
  Nodes[Into].Rep = Rep;
  ClassNode[Rep] = Into;
  ++Stats.MergedClasses;

  // Detach From from any parent.
  if (Nodes[From].Parent != InvalidForestNode) {
    auto &Sibs = Nodes[Nodes[From].Parent].Children;
    Sibs.erase(std::remove(Sibs.begin(), Sibs.end(), From), Sibs.end());
    Nodes[From].Parent = InvalidForestNode;
  }
  Nodes[From].Alive = false;

  // Re-home From's children inside Into's subtree. Their BDDs are already
  // correct relative to the common root.
  std::vector<ForestNodeId> Orphans;
  Orphans.swap(Nodes[From].Children);
  for (ForestNodeId C : Orphans) {
    Nodes[C].Parent = InvalidForestNode;
    ForestNodeId Equal = InvalidForestNode;
    ForestNodeId Deepest = findDeepestParent(Into, Nodes[C].Bdd, &Equal);
    if (Mgr.budgetExhausted())
      return false;
    if (Equal != InvalidForestNode && Equal != C) {
      if (!mergeInto(C, Equal, Diags, Loc))
        return false;
      continue;
    }
    // Insert C under Deepest and pull included siblings below C.
    Nodes[C].Parent = Deepest;
    Nodes[Deepest].Children.push_back(C);
    auto &Sibs = Nodes[Deepest].Children;
    for (size_t I = 0; I < Sibs.size();) {
      ForestNodeId S = Sibs[I];
      if (S != C && Nodes[S].Bdd != Nodes[C].Bdd &&
          includes(Nodes[S].Bdd, Nodes[C].Bdd)) {
        Sibs.erase(Sibs.begin() + static_cast<long>(I));
        Nodes[S].Parent = C;
        Nodes[C].Children.push_back(S);
        continue;
      }
      ++I;
    }
  }
  return true;
}

bool ClockForest::attachSubtree(ForestNodeId Sub, ForestNodeId TargetRoot,
                                BddRef NewBdd, DiagnosticEngine &Diags,
                                SourceLoc Loc) {
  assert(Nodes[Sub].Parent == InvalidForestNode &&
         "attachSubtree expects a root");
  if (!NewBdd.isValid())
    return false;
  if (rootOf(TargetRoot) == Sub) {
    Diags.error(Loc, "temporally incorrect program: cyclic clock partition "
                     "structure");
    return false;
  }

  Nodes[Sub].Bdd = NewBdd;
  if (!refreshSubtreeBdds(Sub))
    return false;

  ForestNodeId Equal = InvalidForestNode;
  ForestNodeId Deepest = findDeepestParent(TargetRoot, NewBdd, &Equal);
  if (Mgr.budgetExhausted())
    return false;
  if (Equal != InvalidForestNode) {
    ++Stats.Fusions;
    return mergeInto(Sub, Equal, Diags, Loc);
  }

  Nodes[Sub].Parent = Deepest;
  Nodes[Deepest].Children.push_back(Sub);
  ++Stats.Insertions;
  if (Deepest != TargetRoot || !Nodes[Sub].Children.empty())
    ++Stats.Fusions;

  // Canonicity maintenance: siblings now included in Sub move below it.
  auto &Sibs = Nodes[Deepest].Children;
  for (size_t I = 0; I < Sibs.size();) {
    ForestNodeId S = Sibs[I];
    if (S != Sub && Nodes[S].Bdd != NewBdd &&
        includes(Nodes[S].Bdd, NewBdd)) {
      Sibs.erase(Sibs.begin() + static_cast<long>(I));
      Nodes[S].Parent = Sub;
      Nodes[Sub].Children.push_back(S);
      continue;
    }
    ++I;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Resolution
//===----------------------------------------------------------------------===//

namespace {

/// Outcome of one attempt at orienting/verifying an equation.
enum class EqOutcome { Resolved, Deferred, Failed };

} // namespace

bool ClockForest::build(const ClockSystem &Sys, const KernelProgram &Prog,
                        const StringInterner &Names,
                        DiagnosticEngine &Diags) {
  Nodes.clear();
  ClassNode.clear();
  NullClass.clear();
  CondVars.clear();
  Stats = ForestBuildStats();

  // One BDD variable per condition: size the manager's unique table and
  // operation caches for this program before the hot loops start. The
  // inclusion tests below (Mgr.implies) allocate no nodes: they walk the
  // cube chains of the clock BDDs and probe the op cache only at branch
  // points, so their cost is mostly pointer chasing down the variable order.
  Mgr.presize(static_cast<unsigned>(Sys.conditions().size()));

  // Step 0: equalities via union-find ("choose one variable which will
  // replace the others", Section 3.3).
  Classes.reset(Sys.numVars());
  for (const ClockEquality &E : Sys.equalities())
    Classes.unite(E.A, E.B);

  // One root node per class.
  for (ClockVarId V = 0; V < Sys.numVars(); ++V)
    if (Classes.find(V) == V)
      newNode(V);

  // Step 1: basic partition trees — hang [C], [¬C] under ĉ.
  for (SignalId C : Sys.conditions()) {
    ClockVarId ParentRep = Classes.find(Sys.signalClock(C));
    ClockVarId PosRep = Classes.find(Sys.posLiteral(C));
    ClockVarId NegRep = Classes.find(Sys.negLiteral(C));

    BddVar Var = static_cast<BddVar>(CondVars.size());
    CondVars[C] = Var;

    if (classIsNull(ParentRep)) {
      setClassNull(PosRep);
      setClassNull(NegRep);
      continue;
    }
    if (PosRep == NegRep) {
      // [C] = [¬C] together with the partition axioms forces everything
      // to the null clock.
      setClassNull(PosRep);
      setClassNull(ParentRep);
      continue;
    }
    if (PosRep == ParentRep) {
      // C is true whenever present: [C] = ĉ and [¬C] = 0̂.
      setClassNull(NegRep);
      continue;
    }
    if (NegRep == ParentRep) {
      setClassNull(PosRep);
      continue;
    }

    ForestNodeId ParentNode = ClassNode.at(ParentRep);
    BddRef ParentBdd = Nodes[ParentNode].Bdd;
    ForestNodeId ParentRoot = rootOf(ParentNode);

    auto attachLiteral = [&](ClockVarId Rep, bool Positive) -> bool {
      if (classIsNull(Rep))
        return true; // Previously proved empty; stays empty.
      ForestNodeId LitNode = ClassNode.at(Rep);
      BddRef Lit = Positive ? Mgr.var(Var) : Mgr.nvar(Var);
      BddRef NewBdd = Mgr.apply_and(ParentBdd, Lit);
      if (Nodes[LitNode].Parent != InvalidForestNode ||
          Nodes[LitNode].Def != ClockDefKind::Root) {
        // The class already has a structural definition (e.g. it is also
        // the literal of another condition): verify equality instead of
        // attaching. Distinct conditions have distinct BDD variables, so
        // this only succeeds for a genuine re-statement.
        if (Nodes[LitNode].Bdd == NewBdd)
          return true;
        Diags.error(Prog.Signals[C].Loc,
                    "temporally incorrect program: cannot prove the "
                    "equality of two condition samplings of one clock");
        return false;
      }
      if (!attachSubtree(LitNode, ParentRoot, NewBdd, Diags,
                         Prog.Signals[C].Loc))
        return false;
      // attachSubtree may have merged LitNode away; mark the survivor.
      ForestNodeId Survivor = nodeOf(Rep);
      if (Survivor != InvalidForestNode &&
          Nodes[Survivor].Def == ClockDefKind::Root &&
          Nodes[Survivor].Parent != InvalidForestNode) {
        Nodes[Survivor].Def = ClockDefKind::Literal;
        Nodes[Survivor].CondSignal = C;
        Nodes[Survivor].Positive = Positive;
      }
      return true;
    };

    if (!attachLiteral(PosRep, true) || !attachLiteral(NegRep, false))
      return false;
  }
  if (Mgr.budgetExhausted())
    return false;

  // Step 2: fixpoint over the orientable equations (the paper's
  // three-step arborescent resolution).
  struct PendingEq {
    ClockEquation Eq;
    bool Done = false;
  };
  std::vector<PendingEq> Pending;
  Pending.reserve(Sys.equations().size());
  for (const ClockEquation &E : Sys.equations())
    Pending.push_back({E, false});

  auto eqName = [&](const ClockEquation &E) {
    return Sys.varName(E.Lhs, Prog, Names) + " = " +
           Sys.varName(E.A, Prog, Names) + " " + clockOpName(E.Op) + " " +
           Sys.varName(E.B, Prog, Names);
  };

  // Merges the class of Lhs with the class of Other (equation degenerated
  // to an equality, e.g. k = a ∨ 0̂).
  auto mergeClasses = [&](ClockVarId LhsRep, ClockVarId OtherRep,
                          SourceLoc Loc) -> EqOutcome {
    if (LhsRep == OtherRep)
      return EqOutcome::Resolved;
    if (classIsNull(LhsRep) && classIsNull(OtherRep))
      return EqOutcome::Resolved;
    if (classIsNull(OtherRep)) {
      setClassNull(LhsRep);
      return EqOutcome::Resolved;
    }
    if (classIsNull(LhsRep)) {
      setClassNull(OtherRep);
      return EqOutcome::Resolved;
    }
    ForestNodeId L = ClassNode.at(LhsRep);
    ForestNodeId O = ClassNode.at(OtherRep);
    bool LFresh =
        Nodes[L].Def == ClockDefKind::Root && Nodes[L].Parent ==
                                                  InvalidForestNode;
    bool OFresh =
        Nodes[O].Def == ClockDefKind::Root && Nodes[O].Parent ==
                                                  InvalidForestNode;
    if (rootOf(L) == rootOf(O)) {
      if (Nodes[L].Bdd == Nodes[O].Bdd)
        return mergeInto(L, O, Diags, Loc) ? EqOutcome::Resolved
                                           : EqOutcome::Failed;
      return EqOutcome::Failed;
    }
    if (LFresh && rootOf(O) != L) {
      Nodes[L].Bdd = Nodes[O].Bdd;
      if (!refreshSubtreeBdds(L))
        return EqOutcome::Failed;
      return mergeInto(L, O, Diags, Loc) ? EqOutcome::Resolved
                                         : EqOutcome::Failed;
    }
    if (OFresh && rootOf(L) != O) {
      Nodes[O].Bdd = Nodes[L].Bdd;
      if (!refreshSubtreeBdds(O))
        return EqOutcome::Failed;
      return mergeInto(O, L, Diags, Loc) ? EqOutcome::Resolved
                                         : EqOutcome::Failed;
    }
    return EqOutcome::Deferred;
  };

  auto processEq = [&](const ClockEquation &E) -> EqOutcome {
    ClockVarId LhsRep = Classes.find(E.Lhs);
    ResolvedOperand A = resolveOperand(E.A);
    ResolvedOperand B = resolveOperand(E.B);
    ClockVarId ARep = Classes.find(E.A);
    ClockVarId BRep = Classes.find(E.B);

    // Null and same-operand algebra first: they turn the equation into an
    // equality or a null assertion without touching any tree.
    if (A.Null && B.Null) {
      setClassNull(LhsRep);
      return EqOutcome::Resolved;
    }
    if (ARep == BRep && !A.Null) {
      // k = a ∧ a = a ∨ a = a; k = a \ a = 0̂.
      if (E.Op == ClockOp::Diff) {
        setClassNull(LhsRep);
        return EqOutcome::Resolved;
      }
      return mergeClasses(LhsRep, ARep, E.Loc);
    }
    if (A.Null) {
      switch (E.Op) {
      case ClockOp::Inter:
      case ClockOp::Diff: // 0̂ ∧ b = 0̂ \ b = 0̂
        setClassNull(LhsRep);
        return EqOutcome::Resolved;
      case ClockOp::Union: // 0̂ ∨ b = b
        return mergeClasses(LhsRep, BRep, E.Loc);
      }
    }
    if (B.Null) {
      switch (E.Op) {
      case ClockOp::Inter: // a ∧ 0̂ = 0̂
        setClassNull(LhsRep);
        return EqOutcome::Resolved;
      case ClockOp::Union: // a ∨ 0̂ = a
      case ClockOp::Diff:  // a \ 0̂ = a
        return mergeClasses(LhsRep, ARep, E.Loc);
      }
    }

    // Both operands are real clocks: they must share a tree before the
    // formula can be evaluated.
    if (A.Root != B.Root)
      return EqOutcome::Deferred;

    BddRef NewBdd;
    switch (E.Op) {
    case ClockOp::Inter:
      NewBdd = Mgr.apply_and(A.Bdd, B.Bdd);
      break;
    case ClockOp::Union:
      NewBdd = Mgr.apply_or(A.Bdd, B.Bdd);
      break;
    case ClockOp::Diff:
      NewBdd = Mgr.apply_diff(A.Bdd, B.Bdd);
      break;
    }
    if (!NewBdd.isValid())
      return EqOutcome::Failed;

    if (NewBdd.isFalse()) {
      setClassNull(LhsRep);
      return EqOutcome::Resolved;
    }
    if (classIsNull(LhsRep)) {
      // The left-hand side was proved empty but the formula is not.
      Diags.error(E.Loc, "temporally incorrect program: clock of '" +
                             eqName(E) + "' is empty but its definition is "
                                         "not provably empty");
      return EqOutcome::Failed;
    }

    ForestNodeId LhsNode = ClassNode.at(LhsRep);
    if (rootOf(LhsNode) == A.Root) {
      // Same tree: verify by canonicity (this is where the inclusion-based
      // rewriting of Section 3.3 is discharged).
      if (Nodes[LhsNode].Bdd == NewBdd) {
        ++Stats.VerifiedEquations;
        return EqOutcome::Resolved;
      }
      Diags.error(E.Loc, "temporally incorrect program: cannot prove clock "
                         "equation '" +
                             eqName(E) + "'");
      return EqOutcome::Failed;
    }

    bool LhsFresh = Nodes[LhsNode].Def == ClockDefKind::Root &&
                    Nodes[LhsNode].Parent == InvalidForestNode;
    if (!LhsFresh)
      return EqOutcome::Deferred; // Defined in another tree; a later fusion
                                  // may still bring the trees together.

    if (!attachSubtree(LhsNode, A.Root, NewBdd, Diags, E.Loc))
      return EqOutcome::Failed;
    ForestNodeId Survivor = nodeOf(LhsRep);
    if (Survivor != InvalidForestNode &&
        Nodes[Survivor].Def == ClockDefKind::Root &&
        Nodes[Survivor].Parent != InvalidForestNode) {
      Nodes[Survivor].Def = ClockDefKind::Derived;
      Nodes[Survivor].Op = E.Op;
      Nodes[Survivor].OpA = ARep;
      Nodes[Survivor].OpB = BRep;
    }
    return EqOutcome::Resolved;
  };

  bool Progress = true;
  while (Progress) {
    Progress = false;
    ++Stats.Iterations;
    for (PendingEq &P : Pending) {
      if (P.Done)
        continue;
      EqOutcome Out = processEq(P.Eq);
      if (Out == EqOutcome::Failed)
        return false;
      if (Out == EqOutcome::Resolved) {
        P.Done = true;
        Progress = true;
      }
      if (Mgr.budgetExhausted())
        return false;
    }
  }

  // Step 3a: orient what is left as residual cross-tree definitions where
  // the left-hand side is still free. Self-referential equations are kept
  // for step 3b, which may discharge them with inclusion reasoning once
  // the residual definitions are known.
  for (PendingEq &P : Pending) {
    if (P.Done)
      continue;
    const ClockEquation &E = P.Eq;
    ClockVarId LhsRep = Classes.find(E.Lhs);
    ClockVarId ARep = Classes.find(E.A);
    ClockVarId BRep = Classes.find(E.B);
    if (LhsRep == ARep || LhsRep == BRep)
      continue; // step 3b
    if (classIsNull(LhsRep)) {
      Diags.error(E.Loc, "temporally incorrect program: empty clock has "
                         "non-empty definition '" +
                             eqName(E) + "'");
      return false;
    }
    ForestNodeId LhsNode = ClassNode.at(LhsRep);
    if (Nodes[LhsNode].Def != ClockDefKind::Root ||
        Nodes[LhsNode].Parent != InvalidForestNode) {
      Diags.error(E.Loc, "temporally incorrect program: cannot prove clock "
                         "equation '" +
                             eqName(E) + "' (operands belong to separate "
                                         "clock hierarchies)");
      return false;
    }
    Nodes[LhsNode].Def = ClockDefKind::Residual;
    Nodes[LhsNode].Op = E.Op;
    Nodes[LhsNode].OpA = ARep;
    Nodes[LhsNode].OpB = BRep;
    ++Stats.ResidualDefinitions;
    P.Done = true;
  }

  // Step 3b: self-referential equations k = a ∨ k / k = a ∧ k assert an
  // inclusion; discharge them with the extra knowledge embodied in the
  // trees and in the residual definitions (the paper's Section 3.3
  // "extra knowledge about boolean valued signals").
  auto provesInclusion = [&](ClockVarId SubRep, ClockVarId SupRep) -> bool {
    if (classIsNull(SubRep))
      return true;
    auto SubIt = ClassNode.find(SubRep);
    auto SupIt = ClassNode.find(SupRep);
    if (SubIt == ClassNode.end() || SupIt == ClassNode.end())
      return false;
    ForestNodeId Sub = SubIt->second, Sup = SupIt->second;
    if (rootOf(Sub) == rootOf(Sup))
      return includes(Nodes[Sub].Bdd, Nodes[Sup].Bdd);
    // sup := x ∨ y with sub ∈ {x, y}.
    const ClockNode &SupNode = Nodes[Sup];
    if ((SupNode.Def == ClockDefKind::Derived ||
         SupNode.Def == ClockDefKind::Residual) &&
        SupNode.Op == ClockOp::Union &&
        (Classes.find(SupNode.OpA) == SubRep ||
         Classes.find(SupNode.OpB) == SubRep))
      return true;
    // sub := x ∧ y (or x \ y) with sup ∈ {x} (or {x, y} for ∧).
    const ClockNode &SubNode = Nodes[Sub];
    if (SubNode.Def == ClockDefKind::Derived ||
        SubNode.Def == ClockDefKind::Residual) {
      if (SubNode.Op == ClockOp::Inter &&
          (Classes.find(SubNode.OpA) == SupRep ||
           Classes.find(SubNode.OpB) == SupRep))
        return true;
      if (SubNode.Op == ClockOp::Diff &&
          Classes.find(SubNode.OpA) == SupRep)
        return true;
    }
    return false;
  };

  for (PendingEq &P : Pending) {
    if (P.Done)
      continue;
    const ClockEquation &E = P.Eq;
    ClockVarId LhsRep = Classes.find(E.Lhs);
    ClockVarId ARep = Classes.find(E.A);
    ClockVarId BRep = Classes.find(E.B);
    ClockVarId Other = (LhsRep == ARep) ? BRep : ARep;
    bool Proved = false;
    if (E.Op == ClockOp::Union) {
      // k = other ∨ k  holds iff other ⊆ k.
      Proved = provesInclusion(Other, LhsRep);
    } else if (E.Op == ClockOp::Inter) {
      // k = other ∧ k  holds iff k ⊆ other.
      Proved = provesInclusion(LhsRep, Other);
    }
    if (!Proved) {
      Diags.error(E.Loc, "temporally incorrect program: cannot break the "
                         "cycle in '" +
                             eqName(E) + "'");
      return false;
    }
    ++Stats.VerifiedEquations;
    P.Done = true;
  }

  // Step 4: the clock-to-clock dependency graph must be acyclic (this is
  // the triangularity of the final system).
  {
    enum class Mark : uint8_t { White, Grey, Black };
    std::unordered_map<ForestNodeId, Mark> Marks;
    std::vector<std::pair<ForestNodeId, unsigned>> Stack;
    // Presence-recipe dependencies (not tree edges: reparenting may hang a
    // union below its own operands, which is fine for the inclusion order
    // but must not be read as an evaluation dependency).
    auto depsOf = [&](ForestNodeId N, std::vector<ForestNodeId> &Out) {
      Out.clear();
      const ClockNode &Node = Nodes[N];
      if (Node.Def == ClockDefKind::Literal) {
        ForestNodeId CondClock = nodeOf(Sys.signalClock(Node.CondSignal));
        if (CondClock != InvalidForestNode)
          Out.push_back(CondClock);
      }
      if (Node.Def == ClockDefKind::Derived ||
          Node.Def == ClockDefKind::Residual) {
        for (ClockVarId Op : {Node.OpA, Node.OpB}) {
          ForestNodeId ON = nodeOf(Op);
          if (ON != InvalidForestNode)
            Out.push_back(ON);
        }
      }
    };
    std::vector<ForestNodeId> Deps;
    for (ForestNodeId N = 0; N < static_cast<ForestNodeId>(Nodes.size());
         ++N) {
      if (!Nodes[N].Alive || Marks[N] == Mark::Black)
        continue;
      Stack.push_back({N, 0});
      Marks[N] = Mark::Grey;
      while (!Stack.empty()) {
        auto &[Cur, Idx] = Stack.back();
        depsOf(Cur, Deps);
        if (Idx >= Deps.size()) {
          Marks[Cur] = Mark::Black;
          Stack.pop_back();
          continue;
        }
        ForestNodeId Next = Deps[Idx++];
        if (Marks[Next] == Mark::Grey) {
          Diags.error(SourceLoc(),
                      "temporally incorrect program: cyclic clock "
                      "dependencies remain after resolution");
          return false;
        }
        if (Marks[Next] == Mark::White) {
          Marks[Next] = Mark::Grey;
          Stack.push_back({Next, 0});
        }
      }
    }
  }

  Stats.BddNodes = Mgr.numNodes();
  return !Mgr.budgetExhausted();
}

//===----------------------------------------------------------------------===//
// Queries and rendering
//===----------------------------------------------------------------------===//

uint64_t ClockForest::liveBddNodes() const {
  std::vector<BddRef> Roots;
  for (const ClockNode &Node : Nodes)
    if (Node.Alive)
      Roots.push_back(Node.Bdd);
  return Mgr.countNodesMany(Roots);
}

std::vector<ForestNodeId> ClockForest::roots() const {
  std::vector<ForestNodeId> Result;
  for (ForestNodeId N = 0; N < static_cast<ForestNodeId>(Nodes.size()); ++N)
    if (Nodes[N].Alive && Nodes[N].Parent == InvalidForestNode)
      Result.push_back(N);
  return Result;
}

std::vector<ForestNodeId> ClockForest::dfsOrder() const {
  std::vector<ForestNodeId> Result;
  for (ForestNodeId Root : roots()) {
    std::vector<ForestNodeId> Stack{Root};
    while (!Stack.empty()) {
      ForestNodeId N = Stack.back();
      Stack.pop_back();
      if (!Nodes[N].Alive)
        continue;
      Result.push_back(N);
      // Push children right-to-left so they pop left-to-right.
      for (auto It = Nodes[N].Children.rbegin();
           It != Nodes[N].Children.rend(); ++It)
        Stack.push_back(*It);
    }
  }
  return Result;
}

std::vector<ForestNodeId> ClockForest::freeClocks() const {
  std::vector<ForestNodeId> Result;
  for (ForestNodeId N : roots())
    if (Nodes[N].Def == ClockDefKind::Root)
      Result.push_back(N);
  return Result;
}

void ClockForest::appendDump(ForestNodeId N, unsigned Indent,
                             const ClockSystem &Sys, const KernelProgram &Prog,
                             const StringInterner &Names, std::string &Out) {
  const ClockNode &Node = Nodes[N];
  Out += std::string(Indent * 2, ' ');
  // List every member variable of the class, representative first.
  Out += Sys.varName(Node.Rep, Prog, Names);
  for (ClockVarId V = 0; V < Sys.numVars(); ++V)
    if (V != Node.Rep && Classes.find(V) == Node.Rep)
      Out += " = " + Sys.varName(V, Prog, Names);
  switch (Node.Def) {
  case ClockDefKind::Root:
    Out += "   [free root]";
    break;
  case ClockDefKind::Literal:
    Out += std::string("   [literal ") + (Node.Positive ? "+" : "-") +
           std::string(Names.spelling(Prog.Signals[Node.CondSignal].Name)) +
           "]";
    break;
  case ClockDefKind::Derived:
    Out += std::string("   [:= ") +
           Sys.varName(Classes.find(Node.OpA), Prog, Names) + " " +
           clockOpName(Node.Op) + " " +
           Sys.varName(Classes.find(Node.OpB), Prog, Names) + "]";
    break;
  case ClockDefKind::Residual:
    Out += std::string("   [root := ") +
           Sys.varName(Classes.find(Node.OpA), Prog, Names) + " " +
           clockOpName(Node.Op) + " " +
           Sys.varName(Classes.find(Node.OpB), Prog, Names) + "]";
    break;
  }
  Out += "\n";
  for (ForestNodeId C : Node.Children)
    if (Nodes[C].Alive)
      appendDump(C, Indent + 1, Sys, Prog, Names, Out);
}

std::string ClockForest::toDot(const ClockSystem &Sys,
                               const KernelProgram &Prog,
                               const StringInterner &Names) {
  std::string Out = "digraph clocks {\n  node [shape=box];\n";
  auto escape = [](std::string S) {
    std::string R;
    for (char C : S) {
      if (C == '"' || C == '\\')
        R += '\\';
      R += C;
    }
    return R;
  };
  for (ForestNodeId N = 0; N < static_cast<ForestNodeId>(Nodes.size());
       ++N) {
    const ClockNode &Node = Nodes[N];
    if (!Node.Alive)
      continue;
    std::string Label = Sys.varName(Node.Rep, Prog, Names);
    const char *Shape = "box";
    if (Node.Def == ClockDefKind::Root)
      Shape = "doubleoctagon"; // free or residual root
    Out += "  n" + std::to_string(N) + " [label=\"" + escape(Label) +
           "\", shape=" + Shape + "];\n";
    if (Node.Parent != InvalidForestNode)
      Out += "  n" + std::to_string(Node.Parent) + " -> n" +
             std::to_string(N) + ";\n";
    if (Node.Def == ClockDefKind::Derived ||
        Node.Def == ClockDefKind::Residual) {
      for (ClockVarId Op : {Node.OpA, Node.OpB}) {
        ForestNodeId ON = nodeOf(Op);
        if (ON != InvalidForestNode)
          Out += "  n" + std::to_string(ON) + " -> n" + std::to_string(N) +
                 " [style=dashed];\n";
      }
    }
  }
  Out += "}\n";
  return Out;
}

std::string ClockForest::dump(const ClockSystem &Sys,
                              const KernelProgram &Prog,
                              const StringInterner &Names) {
  std::string Out;
  for (ForestNodeId Root : roots())
    appendDump(Root, 0, Sys, Prog, Names, Out);
  if (Stats.NullClocks) {
    Out += "null clocks:";
    for (ClockVarId V = 0; V < Sys.numVars(); ++V)
      if (isNull(V) && Classes.find(V) == V)
        Out += " " + Sys.varName(V, Prog, Names);
    Out += "\n";
  }
  return Out;
}
