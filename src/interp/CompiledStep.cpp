//===--- CompiledStep.cpp -------------------------------------------------===//

#include "interp/CompiledStep.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace sigc;

const char *sigc::vmOpName(VmOp Op) {
  switch (Op) {
  case VmOp::SkipIfAbsent:
    return "skip-if-absent";
  case VmOp::ReadClockInput:
    return "read-clock";
  case VmOp::EvalClockLiteral:
    return "clock-literal";
  case VmOp::EvalClockAnd:
    return "clock-and";
  case VmOp::EvalClockOr:
    return "clock-or";
  case VmOp::EvalClockDiff:
    return "clock-diff";
  case VmOp::CopyClock:
    return "copy-clock";
  case VmOp::SetClockFalse:
    return "clock-false";
  case VmOp::ReadSignal:
    return "read-signal";
  case VmOp::UnarySlot:
    return "unary";
  case VmOp::BinarySS:
    return "binary-ss";
  case VmOp::BinarySC:
    return "binary-sc";
  case VmOp::BinaryCS:
    return "binary-cs";
  case VmOp::CopyValue:
    return "copy";
  case VmOp::LoadConst:
    return "const";
  case VmOp::Select:
    return "select";
  case VmOp::LoadDelay:
    return "load-delay";
  case VmOp::StoreDelay:
    return "store-delay";
  case VmOp::WriteOutput:
    return "write";
  }
  return "?";
}

namespace {

/// Flattens Func operator trees to three-address bytecode and translates
/// step instructions to VM instructions.
class StepLowering {
public:
  StepLowering(const KernelProgram &Prog, const StepProgram &Step,
               CompiledStep &Out)
      : Prog(Prog), Step(Step), Out(Out) {}

  /// Emits \p BlockIdx and its subtree into Out.Code.
  void emitBlock(int BlockIdx) {
    const StepBlock &B = Step.Blocks[BlockIdx];
    int SkipAt = -1;
    if (B.GuardSlot >= 0) {
      SkipAt = static_cast<int>(Out.Code.size());
      VmInstr Skip;
      Skip.Op = VmOp::SkipIfAbsent;
      Skip.Weight = 0; // Guard tests have their own counter.
      Skip.A = B.GuardSlot;
      Out.Code.push_back(Skip);
    }
    for (const StepBlock::Item &It : B.Items) {
      if (It.IsBlock)
        emitBlock(It.Index);
      else
        emitInstr(Step.Instrs[It.Index]);
    }
    if (SkipAt >= 0)
      Out.Code[SkipAt].Aux = static_cast<int32_t>(Out.Code.size());
  }

private:
  /// A flattened operand: a value/scratch slot or a constant-pool entry.
  struct Operand {
    bool IsConst = false;
    int32_t Idx = -1;
  };

  int constIndex(const Value &V) {
    for (size_t I = 0; I < Out.Consts.size(); ++I)
      if (Out.Consts[I].Kind == V.Kind && Out.Consts[I] == V)
        return static_cast<int>(I);
    Out.Consts.push_back(V);
    return static_cast<int>(Out.Consts.size()) - 1;
  }

  /// The scratch slot for interior results at tree depth \p Depth.
  int32_t tempSlot(unsigned Depth) {
    if (Depth + 1 > Out.NumTempSlots)
      Out.NumTempSlots = Depth + 1;
    return static_cast<int32_t>(Out.NumValueSlots + Depth);
  }

  /// Emits code computing node \p NodeIdx of \p Eq. Leaves emit nothing;
  /// constant subtrees fold at build time. Interior results land in the
  /// scratch slot of \p Depth, or directly in \p TargetSlot (>= 0) for
  /// the root — whose instruction then carries Weight 1 for the whole
  /// lowered step instruction.
  Operand emitNode(const KernelEq &Eq, int NodeIdx, unsigned Depth,
                   int32_t TargetSlot) {
    const FuncNode &N = Eq.Nodes[NodeIdx];
    switch (N.Kind) {
    case FuncNode::Kind::Arg: {
      int32_t Slot = Step.SignalValueSlot[Eq.Args[N.ArgIndex]];
      assert(Slot >= 0 && "func over a dead-clock operand");
      return {false, Slot};
    }
    case FuncNode::Kind::Const:
      return {true, constIndex(N.Const)};
    case FuncNode::Kind::Unary: {
      Operand C = emitNode(Eq, N.Lhs, Depth, -1);
      if (C.IsConst)
        return {true, constIndex(evalUnaryValue(N.UOp, Out.Consts[C.Idx]))};
      VmInstr V;
      V.Op = VmOp::UnarySlot;
      V.Weight = TargetSlot >= 0 ? 1 : 0;
      V.Target = TargetSlot >= 0 ? TargetSlot : tempSlot(Depth);
      V.A = C.Idx;
      V.Aux = static_cast<int32_t>(N.UOp);
      Out.Code.push_back(V);
      return {false, V.Target};
    }
    case FuncNode::Kind::Binary: {
      Operand L = emitNode(Eq, N.Lhs, Depth, -1);
      Operand R = emitNode(Eq, N.Rhs, Depth + 1, -1);
      if (L.IsConst && R.IsConst)
        return {true, constIndex(evalBinaryValue(N.BOp, Out.Consts[L.Idx],
                                                 Out.Consts[R.Idx]))};
      VmInstr V;
      V.Op = L.IsConst   ? VmOp::BinaryCS
             : R.IsConst ? VmOp::BinarySC
                         : VmOp::BinarySS;
      V.Weight = TargetSlot >= 0 ? 1 : 0;
      // Writing the destination cannot clobber an operand mid-compute:
      // the evaluator computes the result before storing it.
      V.Target = TargetSlot >= 0 ? TargetSlot : tempSlot(Depth);
      V.A = L.Idx;
      V.B = R.Idx;
      V.Aux = static_cast<int32_t>(N.BOp);
      Out.Code.push_back(V);
      return {false, V.Target};
    }
    }
    return {};
  }

  void emitInstr(const StepInstr &In) {
    VmInstr V;
    V.Target = In.Target;
    switch (In.Op) {
    case StepOp::ReadClockInput:
      assert(In.Desc >= 0 && "clock input without descriptor");
      V.Op = VmOp::ReadClockInput;
      V.Aux = In.Desc;
      break;
    case StepOp::EvalClockLiteral:
      V.Op = VmOp::EvalClockLiteral;
      V.A = In.A;
      V.Aux = In.Positive ? 1 : 0;
      break;
    case StepOp::EvalClockOp: {
      // Statically-absent operands (slot -1 = the clock calculus proved
      // the clock empty) are folded away here instead of re-tested every
      // instant.
      bool HasA = In.A >= 0, HasB = In.B >= 0;
      switch (In.COp) {
      case ClockOp::Inter:
        if (HasA && HasB) {
          V.Op = VmOp::EvalClockAnd;
          V.A = In.A;
          V.B = In.B;
        } else {
          V.Op = VmOp::SetClockFalse;
        }
        break;
      case ClockOp::Union:
        if (HasA && HasB) {
          V.Op = VmOp::EvalClockOr;
          V.A = In.A;
          V.B = In.B;
        } else if (HasA || HasB) {
          V.Op = VmOp::CopyClock;
          V.A = HasA ? In.A : In.B;
        } else {
          V.Op = VmOp::SetClockFalse;
        }
        break;
      case ClockOp::Diff:
        if (!HasA) {
          V.Op = VmOp::SetClockFalse;
        } else if (!HasB) {
          V.Op = VmOp::CopyClock;
          V.A = In.A;
        } else {
          V.Op = VmOp::EvalClockDiff;
          V.A = In.A;
          V.B = In.B;
        }
        break;
      }
      break;
    }
    case StepOp::ReadSignal:
      assert(In.Desc >= 0 && "signal input without descriptor");
      V.Op = VmOp::ReadSignal;
      V.Aux = In.Desc;
      break;
    case StepOp::EvalFunc: {
      const KernelEq &Eq = Prog.Equations[In.EqIndex];
      int Root = static_cast<int>(Eq.Nodes.size()) - 1;
      const FuncNode &RootNode = Eq.Nodes[Root];
      if (RootNode.Kind == FuncNode::Kind::Arg ||
          RootNode.Kind == FuncNode::Kind::Const) {
        Operand O = emitNode(Eq, Root, 0, -1);
        V.Op = O.IsConst ? VmOp::LoadConst : VmOp::CopyValue;
        (O.IsConst ? V.Aux : V.A) = O.Idx;
        break;
      }
      Operand O = emitNode(Eq, Root, 0, In.Target);
      if (O.IsConst) {
        // The whole tree folded to a constant.
        V.Op = VmOp::LoadConst;
        V.Aux = O.Idx;
        break;
      }
      return; // emitNode's root instruction already wrote In.Target.
    }
    case StepOp::EvalWhen: {
      const KernelEq &Eq = Prog.Equations[In.EqIndex];
      if (Eq.WhenValue.isSignal()) {
        V.Op = VmOp::CopyValue;
        V.A = In.A;
      } else {
        V.Op = VmOp::LoadConst;
        V.Aux = constIndex(Eq.WhenValue.Const);
      }
      break;
    }
    case StepOp::EvalDefault:
      if (In.A < 0) {
        V.Op = VmOp::CopyValue;
        V.A = In.B;
      } else if (In.B < 0) {
        V.Op = VmOp::CopyValue;
        V.A = In.A;
      } else {
        V.Op = VmOp::Select;
        V.A = In.A;
        V.B = In.B;
        V.Aux = In.PresA;
      }
      break;
    case StepOp::LoadDelay:
      V.Op = VmOp::LoadDelay;
      V.A = In.A;
      break;
    case StepOp::StoreDelay:
      V.Op = VmOp::StoreDelay;
      V.A = In.A;
      break;
    case StepOp::WriteOutput:
      assert(In.Desc >= 0 && "output without descriptor");
      V.Op = VmOp::WriteOutput;
      V.A = In.A;
      V.Aux = In.Desc;
      break;
    }
    Out.Code.push_back(V);
  }

  const KernelProgram &Prog;
  const StepProgram &Step;
  CompiledStep &Out;
};

} // namespace

CompiledStep CompiledStep::build(const KernelProgram &Prog,
                                 const StepProgram &Step) {
  CompiledStep CS;
  CS.NumClockSlots = Step.NumClockSlots;
  CS.NumValueSlots = Step.NumValueSlots;
  CS.StateInit = Step.StateInit;
  CS.ClockInputs = Step.ClockInputs;
  CS.Inputs = Step.Inputs;
  CS.Outputs = Step.Outputs;
  CS.SignalClockSlot = Step.SignalClockSlot;
  CS.ValueSlotType = Step.ValueSlotType;

  StepLowering Lower(Prog, Step, CS);
  if (Step.RootBlock >= 0)
    Lower.emitBlock(Step.RootBlock);

  // Flush order for batched output exchange: each output descriptor, in
  // the order its WriteOutput first appears in the instruction stream.
  std::vector<char> Seen(CS.Outputs.size(), 0);
  for (const VmInstr &In : CS.Code)
    if (In.Op == VmOp::WriteOutput && !Seen[In.Aux]) {
      Seen[In.Aux] = 1;
      CS.OutputFlushOrder.push_back(In.Aux);
    }
  // Descriptors the code never writes (none today) still flush last so
  // the order is total.
  for (size_t I = 0; I < Seen.size(); ++I)
    if (!Seen[I])
      CS.OutputFlushOrder.push_back(static_cast<int32_t>(I));
  return CS;
}

std::string CompiledStep::dump() const {
  std::string Out;
  char Buf[128];
  for (size_t I = 0; I < Code.size(); ++I) {
    const VmInstr &In = Code[I];
    std::snprintf(Buf, sizeof Buf,
                  "%4zu: %-16s t=%-3d a=%-3d b=%-3d aux=%-3d w=%d\n", I,
                  vmOpName(In.Op), In.Target, In.A, In.B, In.Aux, In.Weight);
    Out += Buf;
  }
  std::snprintf(Buf, sizeof Buf,
                "clock slots: %u, value slots: %u, temp slots: %u, "
                "consts: %zu, states: %zu\n",
                NumClockSlots, NumValueSlots, NumTempSlots, Consts.size(),
                StateInit.size());
  Out += Buf;
  return Out;
}

GuardShape CompiledStep::guardShape() const {
  GuardShape S;
  std::vector<char> Seen(NumClockSlots, 0);
  std::vector<int32_t> Close;
  for (int32_t PC = 0; PC < static_cast<int32_t>(Code.size()); ++PC) {
    while (!Close.empty() && Close.back() == PC)
      Close.pop_back();
    const VmInstr &In = Code[PC];
    if (In.Op != VmOp::SkipIfAbsent)
      continue;
    ++S.Guards;
    if (!Seen[In.A]) {
      Seen[In.A] = 1;
      ++S.DistinctGuards;
    }
    Close.push_back(In.Aux);
    S.MaxDepth = std::max(S.MaxDepth, static_cast<unsigned>(Close.size()));
  }
  return S;
}
