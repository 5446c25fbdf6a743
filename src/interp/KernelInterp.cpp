//===--- KernelInterp.cpp -------------------------------------------------===//

#include "interp/KernelInterp.h"

#include <cassert>

using namespace sigc;

KernelInterp::KernelInterp(const KernelProgram &Prog, const ClockSystem &Sys,
                           ClockForest &Forest, const StringInterner &Names)
    : Prog(Prog), Sys(Sys), Forest(Forest), Names(Names) {
  NodeOrder = Forest.dfsOrder();
  SignalNode.assign(Prog.numSignals(), -1);
  for (SignalId S = 0; S < Prog.numSignals(); ++S)
    SignalNode[S] = Forest.nodeOf(Sys.signalClock(S));
  DelayEqOfSignal.assign(Prog.numSignals(), -1);
  for (unsigned EqI = 0; EqI < Prog.Equations.size(); ++EqI)
    if (Prog.Equations[EqI].Kind == KernelEqKind::Delay) {
      DelayEqOfSignal[Prog.Equations[EqI].Target] =
          static_cast<int>(DelayEqIndex.size());
      DelayEqIndex.push_back(static_cast<int>(EqI));
    }
  reset();
}

void KernelInterp::bind(Environment &Env) {
  RootClock.assign(Forest.numNodes(), InvalidEnvId);
  for (ForestNodeId N : NodeOrder) {
    const ClockNode &Node = Forest.node(N);
    if (Node.Def == ClockDefKind::Root)
      RootClock[N] = Env.resolveClock(Sys.varName(Node.Rep, Prog, Names));
  }
  InputId.assign(Prog.numSignals(), InvalidEnvId);
  for (SignalId S = 0; S < Prog.numSignals(); ++S)
    if (!Prog.definition(S))
      InputId[S] = Env.resolveInput(Names.spelling(Prog.Signals[S].Name),
                                    Prog.Signals[S].Type);
  OutputRow.clear();
  for (SignalId S : Prog.outputs())
    OutputRow.push_back(Env.resolveOutput(Names.spelling(Prog.Signals[S].Name),
                                          Prog.Signals[S].Type));
  OutPresent.assign(OutputRow.size(), 0);
  OutVals.assign(OutputRow.size(), VmSlot{0});
  BoundIdentity = Env.identity();
}

void KernelInterp::reset() {
  DelayState.clear();
  for (int EqI : DelayEqIndex)
    DelayState.push_back(Prog.Equations[EqI].DelayInit);
}

bool KernelInterp::step(Environment &Env, unsigned Instant) {
  if (Env.identity() != BoundIdentity)
    bind(Env);

  unsigned MaxNode = Forest.numNodes();
  ClockKnown.assign(MaxNode, 0);
  ClockOn.assign(MaxNode, 0);
  ValueKnown.assign(Prog.numSignals(), 0);
  Present.assign(Prog.numSignals(), 0);
  Values.assign(Prog.numSignals(), Value());

  // Free roots tick per the environment; everything else starts unknown.
  for (ForestNodeId N : NodeOrder) {
    if (RootClock[N] != InvalidEnvId) {
      ClockKnown[N] = 1;
      unsigned char Tick = 0;
      Env.clockTicks(RootClock[N], Instant, 1, &Tick);
      ClockOn[N] = Tick ? 1 : 0;
    }
  }

  auto nodeKnown = [&](ForestNodeId N) {
    return N == InvalidForestNode || ClockKnown[N];
  };
  auto nodeOn = [&](ForestNodeId N) {
    return N != InvalidForestNode && ClockOn[N];
  };

  // Chaotic iteration until stable.
  bool Progress = true;
  while (Progress) {
    Progress = false;

    // Clocks.
    for (ForestNodeId N : NodeOrder) {
      if (ClockKnown[N])
        continue;
      const ClockNode &Node = Forest.node(N);
      switch (Node.Def) {
      case ClockDefKind::Root:
        break;
      case ClockDefKind::Literal: {
        // The literal's recipe reads its condition's clock, which may sit
        // above the tree parent after reparenting.
        ForestNodeId P = Forest.nodeOf(Sys.signalClock(Node.CondSignal));
        if (P == InvalidForestNode || !ClockKnown[P])
          break;
        if (!ClockOn[P]) {
          ClockKnown[N] = 1;
          ClockOn[N] = 0;
          Progress = true;
          break;
        }
        if (!ValueKnown[Node.CondSignal])
          break;
        bool V = Values[Node.CondSignal].asBool();
        ClockKnown[N] = 1;
        ClockOn[N] = (V == Node.Positive) ? 1 : 0;
        Progress = true;
        break;
      }
      case ClockDefKind::Derived:
      case ClockDefKind::Residual: {
        ForestNodeId A = Forest.nodeOf(Node.OpA);
        ForestNodeId B = Forest.nodeOf(Node.OpB);
        if (!nodeKnown(A) || !nodeKnown(B))
          break;
        bool On = false;
        switch (Node.Op) {
        case ClockOp::Inter:
          On = nodeOn(A) && nodeOn(B);
          break;
        case ClockOp::Union:
          On = nodeOn(A) || nodeOn(B);
          break;
        case ClockOp::Diff:
          On = nodeOn(A) && !nodeOn(B);
          break;
        }
        ClockKnown[N] = 1;
        ClockOn[N] = On ? 1 : 0;
        Progress = true;
        break;
      }
      }
    }

    // Signals.
    for (SignalId S = 0; S < Prog.numSignals(); ++S) {
      if (ValueKnown[S])
        continue;
      int N = SignalNode[S];
      if (N == InvalidForestNode) {
        // Null clock: never present.
        ValueKnown[S] = 1;
        Progress = true;
        continue;
      }
      if (!ClockKnown[N])
        continue;
      if (!ClockOn[N]) {
        ValueKnown[S] = 1;
        Progress = true;
        continue;
      }
      const KernelEq *Def = Prog.definition(S);
      if (!Def) {
        // Environment input (or free local), a slot of its declared type.
        VmSlot In;
        Env.inputValues(InputId[S], Instant, 1, &In);
        Values[S] = fromSlot(In, Prog.Signals[S].Type);
        Present[S] = 1;
        ValueKnown[S] = 1;
        Progress = true;
        continue;
      }
      switch (Def->Kind) {
      case KernelEqKind::Delay: {
        Values[S] = DelayState[DelayEqOfSignal[S]];
        Present[S] = 1;
        ValueKnown[S] = 1;
        Progress = true;
        break;
      }
      case KernelEqKind::Func: {
        bool Ready = true;
        for (SignalId Arg : Def->Args)
          Ready &= ValueKnown[Arg] != 0;
        if (!Ready)
          break;
        std::vector<Value> Args;
        for (SignalId Arg : Def->Args)
          Args.push_back(Values[Arg]);
        Values[S] = evalFuncTree(*Def, Args);
        Present[S] = 1;
        ValueKnown[S] = 1;
        Progress = true;
        break;
      }
      case KernelEqKind::When: {
        if (Def->WhenValue.isSignal()) {
          if (!ValueKnown[Def->WhenValue.Sig])
            break;
          Values[S] = Values[Def->WhenValue.Sig];
        } else {
          Values[S] = Def->WhenValue.Const;
        }
        Present[S] = 1;
        ValueKnown[S] = 1;
        Progress = true;
        break;
      }
      case KernelEqKind::Default: {
        SignalId U = Def->DefaultPreferred;
        SignalId V = Def->DefaultAlternative;
        int UN = SignalNode[U];
        bool UPresent = UN != InvalidForestNode && ClockKnown[UN] &&
                        ClockOn[UN];
        bool UKnownAbsent =
            UN == InvalidForestNode || (ClockKnown[UN] && !ClockOn[UN]);
        if (UPresent) {
          if (!ValueKnown[U])
            break;
          Values[S] = Values[U];
        } else if (UKnownAbsent) {
          if (!ValueKnown[V])
            break;
          Values[S] = Values[V];
        } else {
          break; // U's presence not decided yet.
        }
        Present[S] = 1;
        ValueKnown[S] = 1;
        Progress = true;
        break;
      }
      }
    }
  }

  // Everything must have resolved.
  for (ForestNodeId N : NodeOrder)
    if (!ClockKnown[N])
      return false;
  for (SignalId S = 0; S < Prog.numSignals(); ++S)
    if (!ValueKnown[S])
      return false;

  // Outputs leave as one row, through the ids bound once, as slots of
  // their declared types — the rule every executor's environment boundary
  // follows (an event defined by `when C` leaves as an event, the integers
  // of a real output as reals).
  const std::vector<SignalId> &Outs = Prog.outputs();
  for (size_t O = 0; O < Outs.size(); ++O) {
    OutPresent[O] = Present[Outs[O]];
    if (OutPresent[O])
      OutVals[O] = toSlot(Values[Outs[O]], Prog.Signals[Outs[O]].Type);
  }
  Env.exchangeOutputs(Instant, 1, static_cast<unsigned>(Outs.size()),
                      OutputRow.data(), OutPresent.data(), OutVals.data());

  // Advance delay memories.
  for (unsigned DI = 0; DI < DelayEqIndex.size(); ++DI) {
    const KernelEq &Eq = Prog.Equations[DelayEqIndex[DI]];
    if (Present[Eq.Target])
      DelayState[DI] = Values[Eq.DelaySource];
  }
  return true;
}

bool KernelInterp::run(Environment &Env, unsigned Count) {
  for (unsigned I = 0; I < Count; ++I)
    if (!step(Env, I))
      return false;
  return true;
}
