//===--- CondDepGraph.cpp -------------------------------------------------===//

#include "graph/CondDepGraph.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace sigc;

const char *sigc::actionKindName(ActionKind K) {
  switch (K) {
  case ActionKind::ClockInput:
    return "clock-input";
  case ActionKind::ClockEval:
    return "clock-eval";
  case ActionKind::SignalInput:
    return "signal-input";
  case ActionKind::SignalEval:
    return "signal-eval";
  case ActionKind::LoadDelay:
    return "load-delay";
  case ActionKind::StoreDelay:
    return "store-delay";
  case ActionKind::WriteOutput:
    return "write-output";
  }
  return "<bad>";
}

int CondDepGraph::addAction(const Action &A) {
  Actions.push_back(A);
  Succs.emplace_back();
  return static_cast<int>(Actions.size()) - 1;
}

void CondDepGraph::addEdge(int From, int To) {
  assert(From >= 0 && To >= 0);
  // A self-edge (Y := Y + A) is a legal *input* to the graph: it is an
  // instantaneous cycle the topological sort rejects with a proper
  // diagnostic, exactly like any longer cycle.
  Succs[From].push_back(To);
}

unsigned CondDepGraph::numEdges() const {
  unsigned N = 0;
  for (const auto &S : Succs)
    N += static_cast<unsigned>(S.size());
  return N;
}

bool CondDepGraph::build(const KernelProgram &Prog, const ClockSystem &Sys,
                         ClockForest &Forest, const StringInterner &Names,
                         DiagnosticEngine &Diags) {
  Actions.clear();
  Succs.clear();
  Schedule.clear();

  // --- Create actions ---------------------------------------------------

  // One clock action per alive forest node.
  std::unordered_map<ForestNodeId, int> ClockAction;
  for (ForestNodeId N : Forest.dfsOrder()) {
    const ClockNode &Node = Forest.node(N);
    Action A;
    A.Kind = (Node.Def == ClockDefKind::Root) ? ActionKind::ClockInput
                                              : ActionKind::ClockEval;
    A.Clock = N;
    if (Node.Def == ClockDefKind::Literal)
      A.Guard = Forest.nodeOf(Sys.signalClock(Node.CondSignal));
    ClockAction[N] = addAction(A);
  }

  // One value-producing action per signal with a non-empty clock.
  std::vector<int> ValueAction(Prog.numSignals(), -1);
  std::vector<int> StoreAction(Prog.numSignals(), -1);
  for (SignalId S = 0; S < Prog.numSignals(); ++S) {
    ForestNodeId ClockNodeId = Forest.nodeOf(Sys.signalClock(S));
    if (ClockNodeId == InvalidForestNode)
      continue; // Null clock: the signal never occurs.
    const KernelEq *Def = Prog.definition(S);
    Action A;
    A.Sig = S;
    A.Clock = A.Guard = ClockNodeId;
    if (!Def) {
      // Inputs and free locals are read from the environment.
      A.Kind = ActionKind::SignalInput;
    } else if (Def->Kind == KernelEqKind::Delay) {
      A.Kind = ActionKind::LoadDelay;
      A.EqIndex = Prog.DefiningEq[S];
    } else {
      A.Kind = ActionKind::SignalEval;
      A.EqIndex = Prog.DefiningEq[S];
    }
    ValueAction[S] = addAction(A);
  }

  // StoreDelay actions (the end-of-instant state writes).
  for (unsigned EqI = 0; EqI < Prog.Equations.size(); ++EqI) {
    const KernelEq &Eq = Prog.Equations[EqI];
    if (Eq.Kind != KernelEqKind::Delay)
      continue;
    if (ValueAction[Eq.Target] < 0)
      continue; // Clock proved empty.
    Action A;
    A.Kind = ActionKind::StoreDelay;
    A.Sig = Eq.Target;
    A.EqIndex = static_cast<int>(EqI);
    A.Clock = A.Guard = Actions[ValueAction[Eq.Target]].Clock;
    StoreAction[Eq.Target] = addAction(A);
  }

  // Output actions.
  for (SignalId S : Prog.outputs()) {
    if (ValueAction[S] < 0)
      continue;
    Action A;
    A.Kind = ActionKind::WriteOutput;
    A.Sig = S;
    A.Clock = A.Guard = Actions[ValueAction[S]].Clock;
    addAction(A);
    addEdge(ValueAction[S], static_cast<int>(Actions.size()) - 1);
  }

  // --- Edges -------------------------------------------------------------

  // Clock recipes.
  for (const auto &[NodeId, ActIdx] : ClockAction) {
    const ClockNode &Node = Forest.node(NodeId);
    switch (Node.Def) {
    case ClockDefKind::Root:
      break;
    case ClockDefKind::Literal: {
      // Needs the condition's clock presence and the condition's value
      // (Table 2: C --ĉ→ [C]). Note: the *condition's clock*, not the
      // tree parent — reparenting may have placed a derived union between
      // them, and unions evaluate after their operands.
      ForestNodeId CondClock =
          Forest.nodeOf(Sys.signalClock(Node.CondSignal));
      if (CondClock != InvalidForestNode)
        addEdge(ClockAction.at(CondClock), ActIdx);
      if (ValueAction[Node.CondSignal] >= 0)
        addEdge(ValueAction[Node.CondSignal], ActIdx);
      break;
    }
    case ClockDefKind::Derived:
    case ClockDefKind::Residual: {
      for (ClockVarId Op : {Node.OpA, Node.OpB}) {
        ForestNodeId ON = Forest.nodeOf(Op);
        if (ON != InvalidForestNode)
          addEdge(ClockAction.at(ON), ActIdx);
      }
      break;
    }
    }
  }

  // Signal actions: own-clock edge (x̂ --x̂→ X) plus value operands.
  for (SignalId S = 0; S < Prog.numSignals(); ++S) {
    int Act = ValueAction[S];
    if (Act < 0)
      continue;
    addEdge(ClockAction.at(Actions[Act].Clock), Act);
    const KernelEq *Def = Prog.definition(S);
    if (!Def || Def->Kind == KernelEqKind::Delay)
      continue;
    switch (Def->Kind) {
    case KernelEqKind::Func:
      for (SignalId Arg : Def->Args)
        if (ValueAction[Arg] >= 0)
          addEdge(ValueAction[Arg], Act);
      break;
    case KernelEqKind::When:
      if (Def->WhenValue.isSignal() && ValueAction[Def->WhenValue.Sig] >= 0)
        addEdge(ValueAction[Def->WhenValue.Sig], Act);
      break;
    case KernelEqKind::Default:
      for (SignalId Src : {Def->DefaultPreferred, Def->DefaultAlternative}) {
        if (ValueAction[Src] >= 0)
          addEdge(ValueAction[Src], Act);
        // The merge also tests the preferred operand's presence.
        ForestNodeId SrcClock = Forest.nodeOf(Sys.signalClock(Src));
        if (SrcClock != InvalidForestNode)
          addEdge(ClockAction.at(SrcClock), Act);
      }
      break;
    case KernelEqKind::Delay:
      break;
    }
  }

  // Delay stores: after the new source value and after the old state was
  // read by LoadDelay.
  for (SignalId S = 0; S < Prog.numSignals(); ++S) {
    int Store = StoreAction[S];
    if (Store < 0)
      continue;
    const KernelEq &Eq = Prog.Equations[Actions[Store].EqIndex];
    if (ValueAction[Eq.DelaySource] >= 0)
      addEdge(ValueAction[Eq.DelaySource], Store);
    addEdge(ValueAction[S], Store);
    addEdge(ClockAction.at(Actions[Store].Clock), Store);
  }

  // --- Topological sort (Kahn) with clock affinity ----------------------
  // The step compiler nests each action in the block path of its guard
  // clock and re-opens that path whenever the schedule returns to it.
  // Among ready actions, prefer the one whose guard keeps the longest
  // prefix of the path the previous action left open (Figure 9: test
  // each clock once), then the smallest action index for determinism.
  std::vector<unsigned> InDegree(Actions.size(), 0);
  for (const auto &S : Succs)
    for (int T : S)
      ++InDegree[T];

  // Depth (root = 1) of each node on the open guard path, 0 elsewhere.
  std::vector<unsigned> OpenDepth(Forest.numNodes(), 0);
  std::vector<ForestNodeId> OpenPath; // Innermost first.
  auto keptDepth = [&](int I) {
    for (ForestNodeId N = Actions[I].Guard; N != InvalidForestNode;
         N = Forest.node(N).Parent)
      if (OpenDepth[N])
        return OpenDepth[N];
    return 0u;
  };

  std::vector<int> Ready;
  for (unsigned I = 0; I < Actions.size(); ++I)
    if (InDegree[I] == 0)
      Ready.push_back(static_cast<int>(I));

  while (!Ready.empty()) {
    size_t Best = 0;
    unsigned BestKept = keptDepth(Ready[0]);
    for (size_t K = 1; K < Ready.size(); ++K) {
      unsigned Kept = keptDepth(Ready[K]);
      if (Kept > BestKept || (Kept == BestKept && Ready[K] < Ready[Best])) {
        Best = K;
        BestKept = Kept;
      }
    }
    int A = Ready[Best];
    Ready[Best] = Ready.back();
    Ready.pop_back();
    Schedule.push_back(A);

    for (ForestNodeId N : OpenPath)
      OpenDepth[N] = 0;
    OpenPath.clear();
    for (ForestNodeId N = Actions[A].Guard; N != InvalidForestNode;
         N = Forest.node(N).Parent)
      OpenPath.push_back(N);
    for (size_t K = 0; K < OpenPath.size(); ++K)
      OpenDepth[OpenPath[K]] = static_cast<unsigned>(OpenPath.size() - K);

    for (int T : Succs[A])
      if (--InDegree[T] == 0)
        Ready.push_back(T);
  }

  if (Schedule.size() != Actions.size()) {
    // Identify one action on a cycle for the message.
    std::string Who = "<unknown>";
    for (unsigned I = 0; I < Actions.size(); ++I) {
      if (InDegree[I] != 0) {
        const Action &A = Actions[I];
        if (A.Sig != InvalidSignal)
          Who = std::string(Names.spelling(Prog.Signals[A.Sig].Name));
        else
          Who = std::string("clock #") + std::to_string(A.Clock);
        break;
      }
    }
    Diags.error(SourceLoc(), "causally incorrect program: instantaneous "
                             "dependency cycle involving '" +
                                 Who + "'");
    return false;
  }
  return true;
}

std::string CondDepGraph::dump(const KernelProgram &Prog,
                               const StringInterner &Names,
                               ClockForest &Forest,
                               const ClockSystem &Sys) const {
  (void)Forest;
  (void)Sys;
  std::string Out;
  for (int I : Schedule) {
    const Action &A = Actions[I];
    Out += "  ";
    Out += actionKindName(A.Kind);
    if (A.Sig != InvalidSignal)
      Out += std::string(" ") +
             std::string(Names.spelling(Prog.Signals[A.Sig].Name));
    if (A.Clock != InvalidForestNode)
      Out += " @clock#" + std::to_string(A.Clock);
    Out += "\n";
  }
  return Out;
}
