//===--- StepCompiler.cpp -------------------------------------------------===//

#include "codegen/StepCompiler.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace sigc;

namespace {

/// Lowers scheduled actions to guard-tagged VM code: Func trees flatten
/// to three-address instructions over scratch slots with constant
/// subtrees folded, statically absent clock operands fold into dedicated
/// opcodes, and each action's group is tagged with its clock path.
class ActionLowering {
public:
  ActionLowering(StepProgram &SP, ClockForest &Forest,
                 const std::vector<int> &SlotOfNode)
      : SP(SP), Forest(Forest), SlotOfNode(SlotOfNode),
        SlotComputed(SP.NumClockSlots, false) {}

  /// Closes the group of the action guarded by tree node \p GuardNode
  /// (InvalidForestNode = unguarded) over the code emitted since the
  /// previous group.
  void closeGroup(ForestNodeId GuardNode) {
    SP.Groups.push_back(
        {guardPath(GuardNode), static_cast<uint32_t>(SP.Code.size())});
  }

  /// Records that the slot of clock \p Node is computed from here on and
  /// may guard later groups from above.
  void markComputed(ForestNodeId Node) {
    SlotComputed[SlotOfNode[Node]] = true;
  }

  int32_t slot(ForestNodeId N) const {
    return N == InvalidForestNode ? -1 : SlotOfNode[N];
  }

  void push(VmInstr V) { SP.Code.push_back(V); }

  /// Emits value[Target] := the Func equation \p Eq.
  void emitFunc(const KernelEq &Eq, int32_t Target) {
    int Root = static_cast<int>(Eq.Nodes.size()) - 1;
    const FuncNode &RootNode = Eq.Nodes[Root];
    VmInstr V;
    V.Target = Target;
    if (RootNode.Kind == FuncNode::Kind::Arg ||
        RootNode.Kind == FuncNode::Kind::Const) {
      Operand O = emitNode(Eq, Root, 0, -1);
      V.Op = O.IsConst ? VmOp::LoadConst : VmOp::CopyValue;
      (O.IsConst ? V.Aux : V.A) = O.Idx;
      push(V);
      return;
    }
    Operand O = emitNode(Eq, Root, 0, Target);
    if (O.IsConst) {
      // The whole tree folded to a constant.
      V.Op = VmOp::LoadConst;
      V.Aux = O.Idx;
      push(V);
    } // Otherwise emitNode's root instruction already wrote Target.
  }

  /// Emits clock[Target] := A <Op> B, folding statically absent operands
  /// (slot -1: the clock calculus proved the clock empty) at build time
  /// instead of re-testing them every instant.
  void emitClockOp(ClockOp Op, int32_t Target, int32_t A, int32_t B) {
    VmInstr V;
    V.Target = Target;
    bool HasA = A >= 0, HasB = B >= 0;
    auto binary = [&](VmOp O) {
      V.Op = O;
      V.A = A;
      V.B = B;
    };
    auto copy = [&](int32_t From) {
      V.Op = VmOp::CopyClock;
      V.A = From;
    };
    V.Op = VmOp::SetClockFalse;
    switch (Op) {
    case ClockOp::Inter:
      if (HasA && HasB)
        binary(VmOp::EvalClockAnd);
      break;
    case ClockOp::Union:
      if (HasA && HasB)
        binary(VmOp::EvalClockOr);
      else if (HasA || HasB)
        copy(HasA ? A : B);
      break;
    case ClockOp::Diff:
      if (HasA && HasB)
        binary(VmOp::EvalClockDiff);
      else if (HasA)
        copy(A);
      break;
    }
    push(V);
  }

  /// Types the scratch slots: one per (depth, type) pair some node
  /// landed on, numbered past the value slots in order of first use.
  void typeTemps() {
    SP.NumTempSlots = static_cast<unsigned>(Temps.size());
    for (const auto &T : Temps)
      SP.SlotType.push_back(T.second);
  }

private:
  /// The clock path guarding an action under tree node \p Target,
  /// outermost first. A skip reads its guard's clock slot when the code
  /// reaches it, so only already-computed ancestors can participate:
  /// reparenting (a derived clock inserted under a deeper parent whose
  /// presence the schedule computes later) would otherwise read a slot
  /// that is still zero and wrongly skip the subtree. Dropping an
  /// uncomputed ancestor is sound — the action's own guard implies every
  /// ancestor by clock inclusion; the ancestor test is only the Figure-9
  /// sharing optimization.
  std::vector<int32_t> guardPath(ForestNodeId Target) const {
    std::vector<int32_t> Path;
    if (Target == InvalidForestNode)
      return Path;
    Path.push_back(SlotOfNode[Target]);
    for (ForestNodeId N = Forest.node(Target).Parent; N != InvalidForestNode;
         N = Forest.node(N).Parent) {
      int Slot = SlotOfNode[N];
      if (SlotComputed[Slot])
        Path.push_back(Slot);
    }
    std::reverse(Path.begin(), Path.end());
    return Path;
  }

  /// A flattened operand: a value/scratch slot or a constant-pool entry,
  /// and its type.
  struct Operand {
    bool IsConst = false;
    int32_t Idx = -1;
    TypeKind Type = TypeKind::Unknown;
  };

  /// The constant-pool operand holding \p V.
  Operand constant(const Value &V) {
    return {true, internConst(SP.Consts, V), V.Kind};
  }

  /// The scratch slot for interior results of type \p Type at tree depth
  /// \p Depth: one past the value slots per (depth, type) pair.
  int32_t tempSlot(unsigned Depth, TypeKind Type) {
    size_t K = 0;
    while (K < Temps.size() &&
           (Temps[K].first != Depth || Temps[K].second != Type))
      ++K;
    if (K == Temps.size())
      Temps.emplace_back(Depth, Type);
    return static_cast<int32_t>(SP.NumValueSlots + K);
  }

  /// Emits code computing node \p NodeIdx of \p Eq. Leaves emit nothing;
  /// constant subtrees fold at build time. Interior results land in the
  /// scratch slot of (\p Depth, result type), or directly in \p TargetSlot
  /// (>= 0) for the root.
  Operand emitNode(const KernelEq &Eq, int NodeIdx, unsigned Depth,
                   int32_t TargetSlot) {
    const FuncNode &N = Eq.Nodes[NodeIdx];
    switch (N.Kind) {
    case FuncNode::Kind::Arg: {
      int32_t Slot = SP.SignalValueSlot[Eq.Args[N.ArgIndex]];
      assert(Slot >= 0 && "func over a dead-clock operand");
      return {false, Slot, SP.SlotType[Slot]};
    }
    case FuncNode::Kind::Const:
      return constant(N.Const);
    case FuncNode::Kind::Unary: {
      Operand C = emitNode(Eq, N.Lhs, Depth, -1);
      if (C.IsConst)
        return constant(evalUnaryValue(N.UOp, SP.Consts[C.Idx]));
      TypeKind Type = unaryResultKind(N.UOp, C.Type);
      VmInstr V;
      V.Op = VmOp::UnarySlot;
      V.Target = TargetSlot >= 0 ? TargetSlot : tempSlot(Depth, Type);
      V.A = C.Idx;
      V.Aux = static_cast<int32_t>(N.UOp);
      push(V);
      return {false, V.Target, Type};
    }
    case FuncNode::Kind::Binary: {
      Operand L = emitNode(Eq, N.Lhs, Depth, -1);
      Operand R = emitNode(Eq, N.Rhs, Depth + 1, -1);
      if (L.IsConst && R.IsConst)
        return constant(
            evalBinaryValue(N.BOp, SP.Consts[L.Idx], SP.Consts[R.Idx]));
      TypeKind Type = binaryResultKind(N.BOp, L.Type, R.Type);
      VmInstr V;
      V.Op = L.IsConst   ? VmOp::BinaryCS
             : R.IsConst ? VmOp::BinarySC
                         : VmOp::BinarySS;
      // Writing the destination cannot clobber an operand mid-compute:
      // the evaluator computes the result before storing it.
      V.Target = TargetSlot >= 0 ? TargetSlot : tempSlot(Depth, Type);
      V.A = L.Idx;
      V.B = R.Idx;
      V.Aux = static_cast<int32_t>(N.BOp);
      push(V);
      return {false, V.Target, Type};
    }
    }
    return {};
  }

  StepProgram &SP;
  ClockForest &Forest;
  const std::vector<int> &SlotOfNode; ///< Per forest node; -1 if dead.
  std::vector<bool> SlotComputed;
  /// (depth, type) of each scratch slot, in order of first use.
  std::vector<std::pair<unsigned, TypeKind>> Temps;
};

std::string clockName(ForestNodeId N, ClockForest &Forest,
                      const ClockSystem &Sys, const KernelProgram &Prog,
                      const StringInterner &Names) {
  return Sys.varName(Forest.node(N).Rep, Prog, Names);
}

} // namespace

StepProgram sigc::compileStep(const KernelProgram &Prog,
                              const ClockSystem &Sys, ClockForest &Forest,
                              const CondDepGraph &Graph,
                              const StringInterner &Names) {
  StepProgram SP;

  // --- Slot assignment ----------------------------------------------------
  std::vector<int> SlotOfNode(Forest.numNodes(), -1);
  for (ForestNodeId N : Forest.dfsOrder())
    SlotOfNode[N] = static_cast<int>(SP.NumClockSlots++);

  SP.SignalValueSlot.assign(Prog.numSignals(), -1);
  SP.SignalClockSlot.assign(Prog.numSignals(), -1);
  for (SignalId S = 0; S < Prog.numSignals(); ++S) {
    ForestNodeId N = Forest.nodeOf(Sys.signalClock(S));
    if (N == InvalidForestNode)
      continue;
    SP.SignalClockSlot[S] = SlotOfNode[N];
    SP.SignalValueSlot[S] = static_cast<int>(SP.NumValueSlots++);
    SP.SlotType.push_back(Prog.Signals[S].Type);
  }

  // Delay memories, one per delay equation with a live target. Their
  // value operands follow the scratch slots, so each copy into or out of
  // one records where its memory index goes until those are counted.
  std::unordered_map<int, int> StateSlotOfEq;
  for (unsigned EqI = 0; EqI < Prog.Equations.size(); ++EqI) {
    const KernelEq &Eq = Prog.Equations[EqI];
    if (Eq.Kind != KernelEqKind::Delay ||
        SP.SignalValueSlot[Eq.Target] < 0)
      continue;
    StateSlotOfEq[static_cast<int>(EqI)] =
        static_cast<int>(SP.StateInit.size());
    SP.StateInit.push_back(Eq.DelayInit);
  }

  ActionLowering Lower(SP, Forest, SlotOfNode);
  std::vector<std::pair<size_t, bool>> DelayCopies; // (pc, is the store)

  auto sigName = [&](SignalId S) {
    return std::string(Names.spelling(Prog.Signals[S].Name));
  };
  auto signalIO = [&](SignalId S) -> StepProgram::SignalIODesc {
    return {S, SP.SignalValueSlot[S], SP.SignalClockSlot[S],
            Prog.Signals[S].Type, sigName(S)};
  };

  // --- Code emission, one group per scheduled action ----------------------
  for (int ActIdx : Graph.schedule()) {
    const Action &A = Graph.actions()[ActIdx];
    // A clock action writes its clock's slot, any other its signal's
    // value slot (a delay store its memory, set below).
    VmInstr V;
    V.Target = A.Sig == InvalidSignal ? Lower.slot(A.Clock)
                                      : SP.SignalValueSlot[A.Sig];

    switch (A.Kind) {
    case ActionKind::ClockInput:
      V.Op = VmOp::ReadClockInput;
      V.Aux = static_cast<int32_t>(SP.ClockInputs.size());
      SP.ClockInputs.push_back(
          {V.Target, clockName(A.Clock, Forest, Sys, Prog, Names)});
      Lower.push(V);
      break;
    case ActionKind::ClockEval: {
      const ClockNode &Node = Forest.node(A.Clock);
      if (Node.Def == ClockDefKind::Literal) {
        // [C] = present(ĉ) ∧ (C == polarity): guarded by the condition's
        // clock (an ancestor in the tree), so the slot stays false when C
        // is absent.
        V.Op = VmOp::EvalClockLiteral;
        V.A = SP.SignalValueSlot[Node.CondSignal];
        V.Aux = Node.Positive ? 1 : 0;
        Lower.push(V);
      } else {
        // Derived/residual presence is a cheap boolean over already
        // computed slots; it runs unguarded because its operands may sit
        // below it in the tree (reparenting).
        Lower.emitClockOp(Node.Op, V.Target,
                          Lower.slot(Forest.nodeOf(Node.OpA)),
                          Lower.slot(Forest.nodeOf(Node.OpB)));
      }
      break;
    }
    case ActionKind::SignalInput:
      V.Op = VmOp::ReadSignal;
      V.Aux = static_cast<int32_t>(SP.Inputs.size());
      SP.Inputs.push_back(signalIO(A.Sig));
      Lower.push(V);
      break;
    case ActionKind::SignalEval: {
      const KernelEq &Eq = Prog.Equations[A.EqIndex];
      switch (Eq.Kind) {
      case KernelEqKind::Func:
        Lower.emitFunc(Eq, V.Target);
        break;
      case KernelEqKind::When:
        if (Eq.WhenValue.isSignal()) {
          V.Op = VmOp::CopyValue;
          V.A = SP.SignalValueSlot[Eq.WhenValue.Sig];
        } else {
          V.Op = VmOp::LoadConst;
          V.Aux = internConst(SP.Consts, Eq.WhenValue.Const);
        }
        Lower.push(V);
        break;
      case KernelEqKind::Default: {
        int32_t Pref = SP.SignalValueSlot[Eq.DefaultPreferred];
        int32_t Alt = SP.SignalValueSlot[Eq.DefaultAlternative];
        if (Pref < 0 || Alt < 0) {
          V.Op = VmOp::CopyValue; // One arm's clock is empty.
          V.A = Pref < 0 ? Alt : Pref;
        } else {
          V.Op = VmOp::Select;
          V.A = Pref;
          V.B = Alt;
          V.Aux = SP.SignalClockSlot[Eq.DefaultPreferred];
        }
        Lower.push(V);
        break;
      }
      case KernelEqKind::Delay:
        assert(false && "delay scheduled as SignalEval");
        break;
      }
      break;
    }
    case ActionKind::LoadDelay:
      V.Op = VmOp::CopyValue;
      V.A = StateSlotOfEq.at(A.EqIndex);
      DelayCopies.emplace_back(SP.Code.size(), false);
      Lower.push(V);
      break;
    case ActionKind::StoreDelay:
      V.Op = VmOp::CopyValue;
      V.Target = StateSlotOfEq.at(A.EqIndex);
      V.A = SP.SignalValueSlot[Prog.Equations[A.EqIndex].DelaySource];
      DelayCopies.emplace_back(SP.Code.size(), true);
      Lower.push(V);
      break;
    case ActionKind::WriteOutput:
      V.Op = VmOp::WriteOutput;
      V.A = V.Target;
      V.Target = -1;
      V.Aux = static_cast<int32_t>(SP.Outputs.size());
      SP.Outputs.push_back(signalIO(A.Sig));
      Lower.push(V);
      break;
    }

    Lower.closeGroup(A.Guard);
    // From here on the action's clock slot holds its final value (a
    // literal skipped by an absent condition clock correctly stays 0),
    // so later groups may nest under it.
    if (A.Kind == ActionKind::ClockInput || A.Kind == ActionKind::ClockEval)
      Lower.markComputed(A.Clock);
  }

  Lower.typeTemps();
  const int32_t MemoryBase =
      static_cast<int32_t>(SP.NumValueSlots + SP.NumTempSlots);
  for (auto [PC, IsStore] : DelayCopies)
    (IsStore ? SP.Code[PC].Target : SP.Code[PC].A) += MemoryBase;
  return SP;
}
