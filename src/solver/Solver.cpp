//===--- Solver.cpp - TreeBdd / CharFunc / Hybrid strategies --------------===//

#include "solver/Solver.h"
#include "solver/CharFunc.h"

#include <unordered_map>

using namespace sigc;

ClockSolver::~ClockSolver() = default;

const char *sigc::solverKindName(SolverKind K) {
  switch (K) {
  case SolverKind::TreeBdd:
    return "T&BDD";
  case SolverKind::CharFunc:
    return "BDD characteristic function";
  case SolverKind::Hybrid:
    return "charac. func. after T&BDD";
  }
  return "<bad>";
}

namespace {

/// The paper's approach: arborescent resolution with per-clock BDDs.
class TreeBddSolver final : public ClockSolver {
public:
  SolverKind kind() const override { return SolverKind::TreeBdd; }

  SolveResult solve(const ClockSystem &Sys, const KernelProgram &Prog,
                    const StringInterner &Names, DiagnosticEngine &Diags,
                    const Budget &Limits) override {
    SolveResult R;
    R.Kind = SolverKind::TreeBdd;
    R.NumVars = Sys.numVars();

    Budget Bud = Limits;
    Bud.start();
    BddManager Mgr;
    Mgr.setBudget(&Bud);
    ClockForest Forest(Mgr);

    bool Ok = Forest.build(Sys, Prog, Names, Diags);
    R.TimeMs = Bud.elapsedMs();
    R.Verdict = Bud.verdict();
    R.TemporallyCorrect = Ok || R.Verdict != BudgetVerdict::Ok;
    // Size of the representation: shared nodes of the kept per-clock BDDs
    // (falls back to total allocation when the run was cut short).
    R.BddNodes = Ok ? Forest.liveBddNodes() : Mgr.numNodes();
    R.TreeStats = Forest.stats();
    if (Ok)
      R.FreeClocks = static_cast<unsigned>(Forest.freeClocks().size());
    return R;
  }
};

/// The monolithic characteristic function baseline.
class CharFuncSolver final : public ClockSolver {
public:
  SolverKind kind() const override { return SolverKind::CharFunc; }

  SolveResult solve(const ClockSystem &Sys, const KernelProgram &Prog,
                    const StringInterner &Names, DiagnosticEngine &Diags,
                    const Budget &Limits) override {
    (void)Prog;
    (void)Names;
    (void)Diags;
    SolveResult R;
    R.Kind = SolverKind::CharFunc;
    R.NumVars = Sys.numVars();

    Budget Bud = Limits;
    Bud.start();
    BddManager Mgr;
    Mgr.setBudget(&Bud);

    std::vector<CharConstraint> Constraints = systemConstraints(Sys);
    CharFuncResult CF = buildCharFunc(Mgr, Sys.numVars(), Constraints);
    if (CF.Chi.isValid() && !Bud.exhausted())
      R.DeterminedVars = analyzeCharFunc(Mgr, CF.Chi, Sys.numVars());

    R.TimeMs = Bud.elapsedMs();
    R.Verdict = Bud.verdict();
    R.BddNodes = CF.Chi.isValid() ? Mgr.countNodes(CF.Chi) : Mgr.numNodes();
    return R;
  }
};

/// Characteristic function of the system *after* tree triangularization:
/// equivalent variables have been eliminated, so the function is built over
/// the (far fewer) clock classes.
class HybridSolver final : public ClockSolver {
public:
  SolverKind kind() const override { return SolverKind::Hybrid; }

  SolveResult solve(const ClockSystem &Sys, const KernelProgram &Prog,
                    const StringInterner &Names, DiagnosticEngine &Diags,
                    const Budget &Limits) override {
    SolveResult R;
    R.Kind = SolverKind::Hybrid;

    Budget Bud = Limits;
    Bud.start();

    // Phase 1: the tree pass, in its own manager.
    BddManager TreeMgr;
    TreeMgr.setBudget(&Bud);
    ClockForest Forest(TreeMgr);
    bool TreeOk = Forest.build(Sys, Prog, Names, Diags);
    R.TreeStats = Forest.stats();
    if (!TreeOk) {
      R.TimeMs = Bud.elapsedMs();
      R.Verdict = Bud.verdict();
      R.TemporallyCorrect = R.Verdict != BudgetVerdict::Ok;
      R.BddNodes = TreeMgr.numNodes();
      return R;
    }

    // Phase 2: characteristic function over the surviving clock classes.
    // Variables are dense indices over alive forest nodes.
    std::unordered_map<ForestNodeId, uint32_t> VarOf;
    std::vector<ForestNodeId> Order = Forest.dfsOrder();
    for (ForestNodeId N : Order)
      VarOf.emplace(N, static_cast<uint32_t>(VarOf.size()));

    std::vector<CharConstraint> Constraints;
    for (ForestNodeId N : Order) {
      const ClockNode &Node = Forest.node(N);
      switch (Node.Def) {
      case ClockDefKind::Root:
        break;
      case ClockDefKind::Literal: {
        // Covered by the partition constraint of its condition, emitted
        // from the positive side only to avoid duplicates.
        break;
      }
      case ClockDefKind::Derived:
      case ClockDefKind::Residual: {
        ForestNodeId A = Forest.nodeOf(Node.OpA);
        ForestNodeId B = Forest.nodeOf(Node.OpB);
        if (A == InvalidForestNode || B == InvalidForestNode) {
          // An operand is the null clock: k ⇔ op with an empty side.
          CharConstraint C;
          if (Node.Op == ClockOp::Union) {
            ForestNodeId Other = (A == InvalidForestNode) ? B : A;
            if (Other == InvalidForestNode) {
              C.Kind = CharConstraint::Kind::ForceOff;
              C.V0 = VarOf.at(N);
            } else {
              C.Kind = CharConstraint::Kind::Equal;
              C.V0 = VarOf.at(N);
              C.V1 = VarOf.at(Other);
            }
          } else if (Node.Op == ClockOp::Diff && B == InvalidForestNode &&
                     A != InvalidForestNode) {
            C.Kind = CharConstraint::Kind::Equal;
            C.V0 = VarOf.at(N);
            C.V1 = VarOf.at(A);
          } else {
            C.Kind = CharConstraint::Kind::ForceOff;
            C.V0 = VarOf.at(N);
          }
          Constraints.push_back(C);
          break;
        }
        CharConstraint C;
        C.Kind = CharConstraint::Kind::Equation;
        C.Op = Node.Op;
        C.V0 = VarOf.at(N);
        C.V1 = VarOf.at(A);
        C.V2 = VarOf.at(B);
        Constraints.push_back(C);
        break;
      }
      }
    }

    // Partition constraints per condition, on the surviving classes.
    for (SignalId Cond : Sys.conditions()) {
      ForestNodeId Parent = Forest.nodeOf(Sys.signalClock(Cond));
      ForestNodeId Pos = Forest.nodeOf(Sys.posLiteral(Cond));
      ForestNodeId Neg = Forest.nodeOf(Sys.negLiteral(Cond));
      if (Parent == InvalidForestNode)
        continue; // Whole condition proved empty.
      CharConstraint C;
      if (Pos == InvalidForestNode && Neg == InvalidForestNode)
        continue;
      if (Pos == InvalidForestNode || Neg == InvalidForestNode) {
        // One side empty: the other equals the parent clock.
        ForestNodeId Side = (Pos == InvalidForestNode) ? Neg : Pos;
        if (Side == Parent)
          continue;
        C.Kind = CharConstraint::Kind::Equal;
        C.V0 = VarOf.at(Parent);
        C.V1 = VarOf.at(Side);
        Constraints.push_back(C);
        continue;
      }
      C.Kind = CharConstraint::Kind::Partition;
      C.V0 = VarOf.at(Parent);
      C.V1 = VarOf.at(Pos);
      C.V2 = VarOf.at(Neg);
      Constraints.push_back(C);
    }

    BddManager ChiMgr;
    ChiMgr.setBudget(&Bud);
    unsigned NumVars = static_cast<unsigned>(VarOf.size());
    CharFuncResult CF = buildCharFunc(ChiMgr, NumVars, Constraints);
    if (CF.Chi.isValid() && !Bud.exhausted())
      R.DeterminedVars = analyzeCharFunc(ChiMgr, CF.Chi, NumVars);

    R.NumVars = NumVars;
    R.TimeMs = Bud.elapsedMs();
    R.Verdict = Bud.verdict();
    R.BddNodes = Forest.liveBddNodes() + (CF.Chi.isValid()
                                              ? ChiMgr.countNodes(CF.Chi)
                                              : ChiMgr.numNodes());
    R.FreeClocks = static_cast<unsigned>(Forest.freeClocks().size());
    return R;
  }
};

} // namespace

std::unique_ptr<ClockSolver> sigc::makeSolver(SolverKind Kind) {
  switch (Kind) {
  case SolverKind::TreeBdd:
    return std::make_unique<TreeBddSolver>();
  case SolverKind::CharFunc:
    return std::make_unique<CharFuncSolver>();
  case SolverKind::Hybrid:
    return std::make_unique<HybridSolver>();
  }
  return nullptr;
}
