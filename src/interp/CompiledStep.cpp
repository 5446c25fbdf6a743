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
  case VmOp::CheckClockEq:
    return "check-clock-eq";
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

  /// Emits \p BlockIdx and its subtree into Out.Code, one skip per
  /// guarded block (the nested lowering).
  void emitBlock(int BlockIdx) {
    const StepBlock &B = Step.Blocks[BlockIdx];
    int SkipAt = openSkip(B.GuardSlot);
    for (const StepBlock::Item &It : B.Items) {
      if (It.IsBlock)
        emitBlock(It.Index);
      else
        emitInstr(Step.Instrs[It.Index]);
    }
    closeSkip(SkipAt);
  }

  /// Emits Step.Instrs in schedule order, one skip per guarded
  /// instruction (the flat lowering).
  void emitFlat() {
    for (const StepInstr &In : Step.Instrs) {
      int SkipAt = openSkip(In.Guard);
      emitInstr(In);
      closeSkip(SkipAt);
    }
  }

private:
  /// Emits a skip on clock slot \p Guard and returns its position, or -1
  /// (and emits nothing) when \p Guard is -1.
  int openSkip(int Guard) {
    if (Guard < 0)
      return -1;
    VmInstr Skip;
    Skip.Op = VmOp::SkipIfAbsent;
    Skip.Weight = 0; // Guard tests have their own counter.
    Skip.A = Guard;
    Out.Code.push_back(Skip);
    return static_cast<int>(Out.Code.size()) - 1;
  }

  /// Points the skip at \p SkipAt (if any) past the code emitted since.
  void closeSkip(int SkipAt) {
    if (SkipAt >= 0)
      Out.Code[SkipAt].Aux = static_cast<int32_t>(Out.Code.size());
  }

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
                                 const StepProgram &Step, GuardLowering L) {
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
  if (L == GuardLowering::Flat)
    Lower.emitFlat();
  else if (Step.RootBlock >= 0)
    Lower.emitBlock(Step.RootBlock);

  // A delay memory holds one kind for the whole run. Sema lets an integer
  // literal initialize a real signal, so a memory that stores reals but
  // starts from an integer widens its initial value. Widening can make a
  // loaded value real and so another memory's stores: repeat to a fixed
  // point (each round widens at least one memory).
  for (bool Widened = true; Widened;) {
    Widened = false;
    std::vector<InstrKinds> Kinds = CS.kinds();
    for (size_t PC = 0; PC < CS.Code.size(); ++PC) {
      const VmInstr &In = CS.Code[PC];
      if (In.Op != VmOp::StoreDelay || Kinds[PC].A != TypeKind::Real)
        continue;
      Value &Init = CS.StateInit[In.Target];
      if (Init.Kind == TypeKind::Integer) {
        Init = Value::makeReal(static_cast<double>(Init.Int));
        Widened = true;
      }
    }
  }

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

TypeKind sigc::binaryResultKind(BinaryOp Op, TypeKind L, TypeKind R) {
  bool BothInt = L == TypeKind::Integer && R == TypeKind::Integer;
  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Mul:
  case BinaryOp::Div:
    return BothInt ? TypeKind::Integer : TypeKind::Real;
  case BinaryOp::Mod:
    return TypeKind::Integer;
  case BinaryOp::And:
  case BinaryOp::Or:
  case BinaryOp::Xor:
  case BinaryOp::Eq:
  case BinaryOp::Ne:
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
    return TypeKind::Boolean;
  }
  return TypeKind::Unknown;
}

TypeKind sigc::unaryResultKind(UnaryOp Op, TypeKind A) {
  if (Op == UnaryOp::Not)
    return TypeKind::Boolean;
  return A == TypeKind::Integer ? TypeKind::Integer : TypeKind::Real;
}

std::vector<InstrKinds> CompiledStep::kinds() const {
  std::vector<InstrKinds> Kinds(Code.size());
  const size_t NumSlots = NumValueSlots + NumTempSlots;

  // The kind each slot currently holds, evolving down the linear stream.
  // Guards only skip code; they never change which instruction defines a
  // slot's kind, so the linear walk sees the same kinds any execution
  // does (a read whose defining write was skipped is never executed —
  // the schedule guarantees it). A slot not yet written reads as its
  // declared type; scratch slots default to integer.
  std::vector<TypeKind> Cur(NumSlots, TypeKind::Unknown);
  auto read = [&](int32_t Slot) {
    TypeKind K = Cur[Slot];
    if (K != TypeKind::Unknown)
      return K;
    return static_cast<size_t>(Slot) < ValueSlotType.size()
               ? ValueSlotType[Slot]
               : TypeKind::Integer;
  };

  for (size_t PC = 0; PC < Code.size(); ++PC) {
    const VmInstr &In = Code[PC];
    InstrKinds &IK = Kinds[PC];
    switch (In.Op) {
    case VmOp::SkipIfAbsent:
    case VmOp::ReadClockInput:
    case VmOp::EvalClockAnd:
    case VmOp::EvalClockOr:
    case VmOp::EvalClockDiff:
    case VmOp::CopyClock:
    case VmOp::SetClockFalse:
    case VmOp::CheckClockEq:
      continue; // No value operand, no value result.
    case VmOp::EvalClockLiteral:
    case VmOp::StoreDelay:
    case VmOp::WriteOutput:
      IK.A = read(In.A);
      continue; // Reads a value, writes none.
    case VmOp::ReadSignal:
      IK.Res = Inputs[In.Aux].Type;
      break;
    case VmOp::UnarySlot:
      IK.A = read(In.A);
      IK.Res = unaryResultKind(static_cast<UnaryOp>(In.Aux), IK.A);
      break;
    case VmOp::BinarySS:
    case VmOp::BinarySC:
    case VmOp::BinaryCS:
      IK.A = In.Op == VmOp::BinaryCS ? Consts[In.A].Kind : read(In.A);
      IK.B = In.Op == VmOp::BinarySC ? Consts[In.B].Kind : read(In.B);
      IK.Res = binaryResultKind(static_cast<BinaryOp>(In.Aux), IK.A, IK.B);
      break;
    case VmOp::CopyValue:
      IK.A = read(In.A);
      IK.Res = IK.A;
      break;
    case VmOp::LoadConst:
      IK.Res = Consts[In.Aux].Kind;
      break;
    case VmOp::Select: {
      IK.A = read(In.A);
      IK.B = read(In.B);
      // Sema rejects defaults whose arms mix integer and real, so the
      // arms share a storage class here and the static kind can only
      // differ from the dynamic one between an event arm and a boolean
      // arm, which are both stored as 0/1. Mixed numeric arms would
      // widen to real.
      bool IntA = IK.A == TypeKind::Integer, IntB = IK.B == TypeKind::Integer;
      bool RealA = IK.A == TypeKind::Real, RealB = IK.B == TypeKind::Real;
      bool SameClass = IntA == IntB && RealA == RealB;
      IK.Res = SameClass ? IK.A : TypeKind::Real;
      break;
    }
    case VmOp::LoadDelay:
      IK.Res = StateInit[In.A].Kind;
      break;
    }
    // Every case that breaks writes value[Target].
    Cur[In.Target] = IK.Res;
  }
  return Kinds;
}
