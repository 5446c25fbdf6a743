//===--- StepCompiler.cpp -------------------------------------------------===//

#include "codegen/StepCompiler.h"

#include <cassert>
#include <unordered_map>

using namespace sigc;

namespace {

/// Builds the nested block structure over the emitted instructions: blocks
/// follow the clock tree, instructions live in the block of their guard,
/// and a block is (re)opened lazily when the schedule reaches an
/// instruction guarded by it.
class NestedBuilder {
public:
  NestedBuilder(StepProgram &Prog, ClockForest &Forest,
                const std::unordered_map<ForestNodeId, int> &SlotOfNode)
      : Prog(Prog), Forest(Forest), SlotOfNode(SlotOfNode),
        SlotComputed(SlotOfNode.size(), false) {
    Prog.Blocks.emplace_back(); // Root block, guard -1.
    Prog.RootBlock = 0;
    Stack.push_back({InvalidForestNode, 0});
  }

  /// Appends instruction \p InstrIdx guarded by tree node \p GuardNode
  /// (InvalidForestNode = unguarded).
  void append(int InstrIdx, ForestNodeId GuardNode) {
    openPathTo(GuardNode);
    Prog.Blocks[Stack.back().Block].Items.push_back({false, InstrIdx});
  }

  /// Records that the slot of clock \p Node is computed from here on and
  /// may be used as a block guard.
  void markComputed(ForestNodeId Node) {
    SlotComputed[SlotOfNode.at(Node)] = true;
  }

  /// Collapses guard chains so each nested block tests its clock once
  /// (Figure 9, code a). Re-opening a root-to-leaf path leaves blocks
  /// whose only item is a sub-block; such a block buys a guard test and
  /// nothing else, so it is replaced by its innermost single-item
  /// descendant. Sound because every engine zeroes the clock slots at
  /// the start of each instant and a block's guard is only tested once
  /// computed (or skipped under an absent ancestor, leaving it zero):
  /// by tree inclusion the innermost clock is absent whenever any
  /// ancestor on the chain is. Blocks no longer reachable from the root
  /// are dropped, the survivors renumbered in preorder.
  void finish() {
    std::vector<StepBlock> Old = std::move(Prog.Blocks);
    Prog.Blocks.clear();
    Prog.RootBlock = copyBlock(Old, 0);
  }

private:
  int copyBlock(const std::vector<StepBlock> &Old, int BlockIdx) {
    int NewIdx = static_cast<int>(Prog.Blocks.size());
    Prog.Blocks.push_back({Old[BlockIdx].GuardSlot, {}});
    for (StepBlock::Item It : Old[BlockIdx].Items) {
      if (It.IsBlock) {
        int Inner = It.Index;
        while (Old[Inner].Items.size() == 1 && Old[Inner].Items[0].IsBlock)
          Inner = Old[Inner].Items[0].Index;
        It.Index = copyBlock(Old, Inner);
      }
      Prog.Blocks[NewIdx].Items.push_back(It);
    }
    return NewIdx;
  }

  struct Frame {
    ForestNodeId Node;
    int Block;
  };

  void openPathTo(ForestNodeId Target) {
    // Path of tree nodes from the root to Target. A block's guard test
    // reads the guard's clock slot at block-entry time, so only
    // already-computed ancestors can participate in the nesting:
    // reparenting (a derived clock inserted under a deeper parent whose
    // presence the schedule computes later) would otherwise read a slot
    // that is still zero and wrongly skip the subtree. Dropping an
    // uncomputed ancestor is sound — the instruction's own guard implies
    // every ancestor by clock inclusion; the ancestor test is only the
    // Figure-9 sharing optimization.
    std::vector<ForestNodeId> Path;
    if (Target != InvalidForestNode) {
      Path.push_back(Target);
      for (ForestNodeId N = Forest.node(Target).Parent;
           N != InvalidForestNode; N = Forest.node(N).Parent)
        if (SlotComputed[SlotOfNode.at(N)])
          Path.push_back(N);
    }
    // Stack[0] is the unguarded root; align the rest with Path reversed.
    size_t Keep = 1;
    for (size_t I = 0; I < Path.size(); ++I) {
      size_t StackIdx = 1 + I;
      ForestNodeId Want = Path[Path.size() - 1 - I];
      if (StackIdx < Stack.size() && Stack[StackIdx].Node == Want)
        Keep = StackIdx + 1;
      else
        break;
    }
    Stack.resize(Keep);
    // Open the missing blocks down to Target.
    for (size_t I = Keep - 1; I < Path.size(); ++I) {
      ForestNodeId Want = Path[Path.size() - 1 - I];
      int BlockIdx = static_cast<int>(Prog.Blocks.size());
      StepBlock B;
      B.GuardSlot = SlotOfNode.at(Want);
      Prog.Blocks.push_back(B);
      Prog.Blocks[Stack.back().Block].Items.push_back({true, BlockIdx});
      Stack.push_back({Want, BlockIdx});
    }
  }

  StepProgram &Prog;
  ClockForest &Forest;
  const std::unordered_map<ForestNodeId, int> &SlotOfNode;
  std::vector<bool> SlotComputed;
  std::vector<Frame> Stack;
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
  std::unordered_map<ForestNodeId, int> SlotOfNode;
  for (ForestNodeId N : Forest.dfsOrder())
    SlotOfNode.emplace(N, static_cast<int>(SlotOfNode.size()));
  SP.NumClockSlots = static_cast<unsigned>(SlotOfNode.size());

  SP.SignalValueSlot.assign(Prog.numSignals(), -1);
  SP.SignalClockSlot.assign(Prog.numSignals(), -1);
  for (SignalId S = 0; S < Prog.numSignals(); ++S) {
    ForestNodeId N = Forest.nodeOf(Sys.signalClock(S));
    if (N == InvalidForestNode)
      continue;
    SP.SignalClockSlot[S] = SlotOfNode.at(N);
    SP.SignalValueSlot[S] = static_cast<int>(SP.NumValueSlots++);
    SP.ValueSlotType.push_back(Prog.Signals[S].Type);
  }

  // State slots, one per delay equation with a live target.
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

  NestedBuilder Nest(SP, Forest, SlotOfNode);

  auto sigName = [&](SignalId S) {
    return std::string(Names.spelling(Prog.Signals[S].Name));
  };

  // --- Instruction emission, one per scheduled action ---------------------
  for (int ActIdx : Graph.schedule()) {
    const Action &A = Graph.actions()[ActIdx];
    StepInstr In;

    switch (A.Kind) {
    case ActionKind::ClockInput: {
      In.Op = StepOp::ReadClockInput;
      In.Target = SlotOfNode.at(A.Clock);
      In.Desc = static_cast<int>(SP.ClockInputs.size());
      SP.ClockInputs.push_back(
          {In.Target, clockName(A.Clock, Forest, Sys, Prog, Names)});
      break;
    }
    case ActionKind::ClockEval: {
      const ClockNode &Node = Forest.node(A.Clock);
      In.Target = SlotOfNode.at(A.Clock);
      if (Node.Def == ClockDefKind::Literal) {
        // [C] = present(ĉ) ∧ (C == polarity): guarded by the condition's
        // clock (an ancestor in the tree), so the slot stays false when C
        // is absent.
        In.Op = StepOp::EvalClockLiteral;
        In.A = SP.SignalValueSlot[Node.CondSignal];
        In.Positive = Node.Positive;
        In.Guard = SlotOfNode.at(A.Guard);
      } else {
        // Derived/residual presence is a cheap boolean over already
        // computed slots; it runs unguarded because its operands may sit
        // below it in the tree (reparenting).
        In.Op = StepOp::EvalClockOp;
        In.COp = Node.Op;
        ForestNodeId NA = Forest.nodeOf(Node.OpA);
        ForestNodeId NB = Forest.nodeOf(Node.OpB);
        In.A = NA == InvalidForestNode ? -1 : SlotOfNode.at(NA);
        In.B = NB == InvalidForestNode ? -1 : SlotOfNode.at(NB);
      }
      break;
    }
    case ActionKind::SignalInput: {
      In.Op = StepOp::ReadSignal;
      In.Target = SP.SignalValueSlot[A.Sig];
      In.Sig = A.Sig;
      In.Guard = SP.SignalClockSlot[A.Sig];
      In.Desc = static_cast<int>(SP.Inputs.size());
      SP.Inputs.push_back({A.Sig, In.Target, In.Guard,
                           Prog.Signals[A.Sig].Type, sigName(A.Sig)});
      break;
    }
    case ActionKind::SignalEval: {
      const KernelEq &Eq = Prog.Equations[A.EqIndex];
      In.Target = SP.SignalValueSlot[A.Sig];
      In.EqIndex = A.EqIndex;
      In.Sig = A.Sig;
      In.Guard = SP.SignalClockSlot[A.Sig];
      switch (Eq.Kind) {
      case KernelEqKind::Func:
        In.Op = StepOp::EvalFunc;
        break;
      case KernelEqKind::When:
        In.Op = StepOp::EvalWhen;
        if (Eq.WhenValue.isSignal())
          In.A = SP.SignalValueSlot[Eq.WhenValue.Sig];
        break;
      case KernelEqKind::Default:
        In.Op = StepOp::EvalDefault;
        In.A = SP.SignalValueSlot[Eq.DefaultPreferred];
        In.B = SP.SignalValueSlot[Eq.DefaultAlternative];
        In.PresA = SP.SignalClockSlot[Eq.DefaultPreferred];
        break;
      case KernelEqKind::Delay:
        assert(false && "delay scheduled as SignalEval");
        break;
      }
      break;
    }
    case ActionKind::LoadDelay: {
      In.Op = StepOp::LoadDelay;
      In.Target = SP.SignalValueSlot[A.Sig];
      In.A = StateSlotOfEq.at(A.EqIndex);
      In.Sig = A.Sig;
      In.Guard = SP.SignalClockSlot[A.Sig];
      break;
    }
    case ActionKind::StoreDelay: {
      const KernelEq &Eq = Prog.Equations[A.EqIndex];
      In.Op = StepOp::StoreDelay;
      In.Target = StateSlotOfEq.at(A.EqIndex);
      In.A = SP.SignalValueSlot[Eq.DelaySource];
      In.Sig = A.Sig;
      In.Guard = SP.SignalClockSlot[A.Sig];
      break;
    }
    case ActionKind::WriteOutput: {
      In.Op = StepOp::WriteOutput;
      In.A = SP.SignalValueSlot[A.Sig];
      In.Target = In.A;
      In.Sig = A.Sig;
      In.Guard = SP.SignalClockSlot[A.Sig];
      In.Desc = static_cast<int>(SP.Outputs.size());
      SP.Outputs.push_back({A.Sig, In.A, In.Guard, Prog.Signals[A.Sig].Type,
                            sigName(A.Sig)});
      break;
    }
    }

    int InstrIdx = static_cast<int>(SP.Instrs.size());
    SP.Instrs.push_back(In);
    Nest.append(InstrIdx, A.Guard);
    // From here on the action's clock slot holds its final value (a
    // literal skipped by an absent condition clock correctly stays 0),
    // so later instructions may nest under it.
    if (A.Kind == ActionKind::ClockInput || A.Kind == ActionKind::ClockEval)
      Nest.markComputed(A.Clock);
  }
  Nest.finish();

  return SP;
}
