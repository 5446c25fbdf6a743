//===--- StepOptimizer.cpp - The optimizer pass over a step's groups ------===//
//
// optimize() works on a step's skip-free code and its StepGroups, before
// layOutGuards places any skip, and repeats one round until a round
// changes nothing:
//
//   1. Forwarding. A CopyValue that is the only definition of its
//      target hands its source to each reader that no write of the
//      source separates from it in code order (a delay load's source is
//      the memory, which only the delay's store writes). A reader runs
//      only while its operand is present, so in an instant where it runs
//      the copy ran before it, and the source still holds what the copy
//      took. A delay store is never forwarded: its memory is read in the
//      next instant.
//   2. Liveness. Marking starts at the instructions with an effect
//      (clock checks, outputs, delay stores) and follows what each
//      reads: a scratch operand to the write just before it (a scratch
//      slot lives inside one step instruction's code), any other slot to
//      all of its writers. A group that keeps an instruction reads every
//      clock of its guard path, under either lowering, so the nested and
//      the flat layout keep the same instructions.
//   3. Deletion. An unmarked instruction goes, and each group's end
//      moves with it. A group left empty gets no skip from layOutGuards,
//      so a block whose code all died goes away with its guard test.
//
//===----------------------------------------------------------------------===//

#include "interp/CompiledStep.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

using namespace sigc;

namespace {

/// The operand class two slots must share for one to stand for the
/// other: integers, reals, or booleans and events (the VM and the C
/// emitter hold both as 0/1 integers).
int slotClass(TypeKind K) {
  return K == TypeKind::Integer ? 0 : K == TypeKind::Real ? 1 : 2;
}

/// Instruction-level view of one step's code: every slot read and write
/// under one key space, clocks first, then the value operands: values,
/// scratch slots and delay memories.
class StepView {
public:
  StepView(const CompiledStep &Slots, std::vector<VmInstr> &Code)
      : CS(Slots), Code(Code),
        NumClocks(static_cast<int32_t>(Slots.NumClockSlots)),
        ValueEnd(Slots.valueEnd()),
        NumKeys(static_cast<size_t>(NumClocks + ValueEnd) +
                Slots.StateInit.size()) {
    // Per key, its writers and readers in code order, in two flat lists
    // (counted, then filled).
    const int32_t N = static_cast<int32_t>(Code.size());
    WriteBegin.assign(NumKeys + 1, 0);
    ReadBegin.assign(NumKeys + 1, 0);
    std::vector<int32_t> Last(2 * NumKeys, -1);
    auto scan = [&](auto Record) {
      std::fill(Last.begin(), Last.end(), -1);
      for (int32_t PC = 0; PC < N; ++PC)
        forEachSlot(Code[PC], [&](int32_t Key, bool Write) {
          int32_t &Seen = Last[2 * Key + Write];
          if (Seen != PC) {
            Seen = PC;
            Record(Key, Write, PC);
          }
        });
    };
    scan([&](int32_t Key, bool Write, int32_t) {
      ++(Write ? WriteBegin : ReadBegin)[Key + 1];
    });
    for (size_t K = 0; K < NumKeys; ++K) {
      WriteBegin[K + 1] += WriteBegin[K];
      ReadBegin[K + 1] += ReadBegin[K];
    }
    WritePCs.resize(WriteBegin[NumKeys]);
    ReadPCs.resize(ReadBegin[NumKeys]);
    std::vector<int32_t> WriteAt(WriteBegin.begin(), WriteBegin.end() - 1),
        ReadAt(ReadBegin.begin(), ReadBegin.end() - 1);
    scan([&](int32_t Key, bool Write, int32_t PC) {
      if (Write)
        WritePCs[WriteAt[Key]++] = PC;
      else
        ReadPCs[ReadAt[Key]++] = PC;
    });
  }

  /// Calls \p F(key, is-write) for each slot field of \p In.
  template <typename Fn> void forEachSlot(const VmInstr &In, Fn F) const {
    VmOperands Ops = vmOperands(In.Op);
    auto visit = [&](OperandSpace S, int32_t Field, bool Write) {
      if (Field < 0)
        return; // A clock check's statically absent side.
      switch (S) {
      case OperandSpace::Clock:
        F(Field, Write);
        break;
      case OperandSpace::Value:
        F(NumClocks + Field, Write);
        break;
      default:
        break;
      }
    };
    visit(Ops.A, In.A, false);
    visit(Ops.B, In.B, false);
    visit(Ops.Aux, In.Aux, false);
    visit(Ops.Target, In.Target, true);
  }

  /// Forwards copies (step 1). \returns true if some reader changed.
  bool forward() {
    bool Changed = false;
    for (int32_t PC = 0; PC < static_cast<int32_t>(Code.size()); ++PC) {
      const VmInstr In = Code[PC];
      if (In.Op != VmOp::CopyValue || storesDelay(In))
        continue;
      const int32_t Source = In.A, Target = In.Target;
      const Span Uses = reads(NumClocks + Target);
      const Span SourceWrites = writes(NumClocks + Source);
      if (writes(NumClocks + Target).size() != 1 || Uses.empty() ||
          *Uses.begin() <= PC ||
          slotClass(CS.operandType(OperandSpace::Value, Target)) !=
              slotClass(CS.operandType(OperandSpace::Value, Source)))
        continue;
      // The first write of the source after the copy bounds its readers.
      const int32_t *W =
          std::upper_bound(SourceWrites.begin(), SourceWrites.end(), PC);
      const int32_t Bound = W == SourceWrites.end() ? INT32_MAX : *W;
      for (int32_t Use : Uses) {
        if (Use > Bound)
          continue; // The source changes before this reader.
        VmOperands Ops = vmOperands(Code[Use].Op);
        VmInstr &R = Code[Use];
        for (auto [S, F] : {std::pair<OperandSpace, int32_t *>{Ops.A, &R.A},
                            {Ops.B, &R.B}})
          if (S == OperandSpace::Value && *F == Target) {
            *F = Source;
            Changed = true;
          }
      }
    }
    return Changed;
  }

  /// Marks what is live (step 2) and deletes the rest from Code and
  /// \p Groups (step 3). \returns the instructions deleted.
  unsigned sweep(std::vector<StepGroup> &Groups) {
    const int32_t N = static_cast<int32_t>(Code.size());
    std::vector<int32_t> GroupOf(N);
    for (int32_t G = 0, PC = 0; G < static_cast<int32_t>(Groups.size()); ++G)
      for (; PC < static_cast<int32_t>(Groups[G].End); ++PC)
        GroupOf[PC] = G;

    // The write each scratch read sees: the last one before it.
    const int32_t ScratchBegin = NumClocks + static_cast<int32_t>(
                                                 CS.NumValueSlots);
    const int32_t ScratchEnd = NumClocks + ValueEnd;
    std::vector<int32_t> LastWrite(NumKeys, -1);
    std::vector<int32_t> ScratchDefs(2 * static_cast<size_t>(N), -1);
    for (int32_t PC = 0; PC < N; ++PC) {
      int32_t *Defs = &ScratchDefs[2 * static_cast<size_t>(PC)];
      forEachSlot(Code[PC], [&](int32_t Key, bool Write) {
        if (Key < ScratchBegin || Key >= ScratchEnd)
          return;
        if (Write)
          LastWrite[Key] = PC;
        else
          *(Defs[0] < 0 ? Defs : Defs + 1) = LastWrite[Key];
      });
    }

    std::vector<char> Live(N, 0), GroupLive(Groups.size(), 0),
        SlotLive(NumKeys, 0);
    std::vector<int32_t> Work;
    auto keep = [&](int32_t PC) {
      if (PC >= 0 && !Live[PC]) {
        Live[PC] = 1;
        Work.push_back(PC);
      }
    };
    auto read = [&](int32_t Key) {
      if (SlotLive[Key])
        return;
      SlotLive[Key] = 1;
      for (int32_t Def : writes(Key))
        keep(Def);
    };
    for (int32_t PC = 0; PC < N; ++PC)
      if (hasEffect(Code[PC]))
        keep(PC);
    while (!Work.empty()) {
      int32_t PC = Work.back();
      Work.pop_back();
      keep(ScratchDefs[2 * static_cast<size_t>(PC)]);
      keep(ScratchDefs[2 * static_cast<size_t>(PC) + 1]);
      forEachSlot(Code[PC], [&](int32_t Key, bool Write) {
        if (!Write && (Key < ScratchBegin || Key >= ScratchEnd))
          read(Key);
      });
      if (!GroupLive[GroupOf[PC]]) {
        GroupLive[GroupOf[PC]] = 1;
        for (int32_t Guard : Groups[GroupOf[PC]].Guards)
          read(Guard);
      }
    }

    // Delete, moving every group's end to its new place.
    std::vector<uint32_t> NewPC(N + 1);
    uint32_t Kept = 0;
    for (int32_t PC = 0; PC < N; ++PC) {
      NewPC[PC] = Kept;
      if (Live[PC])
        Code[Kept++] = Code[PC];
    }
    NewPC[N] = Kept;
    Code.resize(Kept);
    for (StepGroup &G : Groups)
      G.End = NewPC[G.End];
    return static_cast<unsigned>(N) - Kept;
  }

private:
  bool storesDelay(const VmInstr &In) const {
    return vmOperands(In.Op).Target == OperandSpace::Value &&
           In.Target >= ValueEnd;
  }
  bool hasEffect(const VmInstr &In) const {
    return In.Op == VmOp::CheckClockEq || In.Op == VmOp::WriteOutput ||
           storesDelay(In);
  }

  /// The instructions of one key's list.
  struct Span {
    const int32_t *B, *E;
    const int32_t *begin() const { return B; }
    const int32_t *end() const { return E; }
    size_t size() const { return static_cast<size_t>(E - B); }
    bool empty() const { return B == E; }
  };
  Span writes(int32_t Key) const {
    return {WritePCs.data() + WriteBegin[Key],
            WritePCs.data() + WriteBegin[Key + 1]};
  }
  Span reads(int32_t Key) const {
    return {ReadPCs.data() + ReadBegin[Key],
            ReadPCs.data() + ReadBegin[Key + 1]};
  }

  const CompiledStep &CS;
  std::vector<VmInstr> &Code;
  const int32_t NumClocks;
  const int32_t ValueEnd;
  const size_t NumKeys;
  /// Per key K, the instructions writing it are WritePCs[WriteBegin[K],
  /// WriteBegin[K + 1]), in code order; likewise the readers.
  std::vector<int32_t> WriteBegin, WritePCs, ReadBegin, ReadPCs;
};

} // namespace

unsigned sigc::optimize(const CompiledStep &Slots, std::vector<VmInstr> &Code,
                        std::vector<StepGroup> &Groups) {
  assert((Groups.empty() ? Code.empty() : Groups.back().End == Code.size()) &&
         "the groups must partition the code");
  unsigned Dropped = 0;
  for (;;) {
    // Forwarding rewrites only reads, so the writer lists the sweep
    // follows still hold.
    StepView View(Slots, Code);
    bool Forwarded = View.forward();
    unsigned Deleted = View.sweep(Groups);
    Dropped += Deleted;
    if (!Forwarded && Deleted == 0)
      return Dropped;
  }
}
