//===--- StepOptimizer.cpp - The optimizer pass over CompiledStep ---------===//
//
// optimize() repeats one round until a round changes nothing:
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
//      (skips, clock checks, outputs, delay stores) and follows what each
//      reads: a scratch operand to the write just before it (a scratch
//      slot lives inside one step instruction's code), any other slot to
//      all of its writers.
//   3. Deletion. An unmarked instruction goes and its weight moves to a
//      survivor of its segment: a straight run of code that no jump
//      enters or leaves and no clock check ends (skips and checks are
//      never deleted and weigh 0). Every instruction of a segment runs
//      iff its first does, so the executed count of every instant stays.
//      A segment whose instructions all die keeps one to carry its
//      weight, and a segment keeps as many as its weight needs at
//      INT8_MAX each.
//
//===----------------------------------------------------------------------===//

#include "interp/CompiledStep.h"

#include <algorithm>
#include <cassert>
#include <climits>

using namespace sigc;

namespace {

/// The operand class two slots must share for one to stand for the
/// other: integers, reals, or booleans and events (the VM and the C
/// emitter hold both as 0/1 integers).
int slotClass(TypeKind K) {
  return K == TypeKind::Integer ? 0 : K == TypeKind::Real ? 1 : 2;
}

/// Instruction-level view of one CompiledStep: every slot read and write
/// under one key space, clocks first, then the value operands: values,
/// scratch slots and delay memories.
class StepView {
public:
  explicit StepView(CompiledStep &CS)
      : CS(CS), NumClocks(static_cast<int32_t>(CS.NumClockSlots)),
        ValueEnd(CS.valueEnd()),
        NumKeys(static_cast<size_t>(NumClocks + ValueEnd) +
                CS.StateInit.size()) {
    // Per key, its writers and readers in code order, in two flat lists
    // (counted, then filled).
    const int32_t N = static_cast<int32_t>(CS.Code.size());
    WriteBegin.assign(NumKeys + 1, 0);
    ReadBegin.assign(NumKeys + 1, 0);
    std::vector<int32_t> Last(2 * NumKeys, -1);
    auto scan = [&](auto Record) {
      std::fill(Last.begin(), Last.end(), -1);
      for (int32_t PC = 0; PC < N; ++PC)
        forEachSlot(CS.Code[PC], [&](int32_t Key, bool Write) {
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
    for (int32_t PC = 0; PC < static_cast<int32_t>(CS.Code.size()); ++PC) {
      const VmInstr In = CS.Code[PC];
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
        VmOperands Ops = vmOperands(CS.Code[Use].Op);
        VmInstr &R = CS.Code[Use];
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

  /// Marks what is live (step 2) and deletes the rest (step 3).
  /// \returns the instructions deleted.
  unsigned sweep() {
    const int32_t N = static_cast<int32_t>(CS.Code.size());
    std::vector<VmInstr> &Code = CS.Code;

    // Segments: -1 for skips and checks, else an id per straight run.
    std::vector<char> JumpTarget(N + 1, 0);
    for (const VmInstr &In : Code)
      if (In.Op == VmOp::SkipIfAbsent)
        JumpTarget[In.Aux] = 1;
    std::vector<int32_t> Segment(N, -1);
    int32_t NumSegments = 0;
    for (int32_t PC = 0; PC < N; ++PC) {
      if (isBarrier(Code[PC]))
        continue;
      bool Fresh = PC == 0 || JumpTarget[PC] || Segment[PC - 1] < 0;
      Segment[PC] = Fresh ? NumSegments++ : Segment[PC - 1];
    }

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

    std::vector<char> Live(N, 0), SlotLive(NumKeys, 0);
    std::vector<int32_t> Work;
    auto keep = [&](int32_t PC) {
      if (PC >= 0 && !Live[PC]) {
        Live[PC] = 1;
        Work.push_back(PC);
      }
    };
    auto mark = [&]() {
      while (!Work.empty()) {
        int32_t PC = Work.back();
        Work.pop_back();
        keep(ScratchDefs[2 * static_cast<size_t>(PC)]);
        keep(ScratchDefs[2 * static_cast<size_t>(PC) + 1]);
        forEachSlot(Code[PC], [&](int32_t Key, bool Write) {
          if (Write || (Key >= ScratchBegin && Key < ScratchEnd) ||
              SlotLive[Key])
            return;
          SlotLive[Key] = 1;
          for (int32_t Def : writes(Key))
            keep(Def);
        });
      }
    };
    for (int32_t PC = 0; PC < N; ++PC)
      if (hasEffect(Code[PC]))
        keep(PC);
    mark();

    // Each segment keeps enough survivors to carry its weight, preferring
    // a carrier that reads nothing (so it keeps nothing else alive).
    std::vector<int32_t> Weight(NumSegments, 0), Survivors(NumSegments, 0);
    for (bool Added = true; Added;) {
      Added = false;
      std::fill(Weight.begin(), Weight.end(), 0);
      std::fill(Survivors.begin(), Survivors.end(), 0);
      for (int32_t PC = 0; PC < N; ++PC)
        if (Segment[PC] >= 0) {
          Weight[Segment[PC]] += Code[PC].Weight;
          Survivors[Segment[PC]] += Live[PC];
        }
      for (int32_t PC = 0; PC < N; ++PC) {
        int32_t S = Segment[PC];
        if (S < 0 || Live[PC] ||
            Survivors[S] * INT8_MAX >= Weight[S])
          continue;
        int32_t Carrier = PC;
        for (int32_t Q = PC; Q < N && Segment[Q] == S; ++Q)
          if (!Live[Q] && readsNothing(Code[Q])) {
            Carrier = Q;
            break;
          }
        keep(Carrier);
        ++Survivors[S];
        Added = true;
      }
      mark();
    }

    // Pour each dead weight onto the survivors after it, then before it.
    for (int32_t PC = 0; PC < N; ++PC) {
      int32_t S = Segment[PC];
      if (S < 0 || Live[PC])
        continue;
      int32_t Left = Code[PC].Weight;
      auto pour = [&](int32_t Q) {
        if (Left <= 0 || !Live[Q])
          return;
        int32_t Room = INT8_MAX - Code[Q].Weight;
        int32_t Moved = std::min(Room, Left);
        Code[Q].Weight = static_cast<int8_t>(Code[Q].Weight + Moved);
        Left -= Moved;
      };
      for (int32_t Q = PC + 1; Q < N && Segment[Q] == S; ++Q)
        pour(Q);
      for (int32_t Q = PC - 1; Q >= 0 && Segment[Q] == S; --Q)
        pour(Q);
      assert(Left == 0 && "a segment lost weight");
      Code[PC].Weight = 0;
    }

    // Delete, moving every jump to its target's new place.
    std::vector<int32_t> NewPC(N + 1);
    int32_t Kept = 0;
    for (int32_t PC = 0; PC < N; ++PC) {
      NewPC[PC] = Kept;
      if (Segment[PC] < 0 || Live[PC])
        Code[Kept++] = Code[PC];
    }
    NewPC[N] = Kept;
    Code.resize(Kept);
    for (VmInstr &In : Code)
      if (In.Op == VmOp::SkipIfAbsent)
        In.Aux = NewPC[In.Aux];
    return static_cast<unsigned>(N - Kept);
  }

private:
  static bool isBarrier(const VmInstr &In) {
    return In.Op == VmOp::SkipIfAbsent || In.Op == VmOp::CheckClockEq;
  }
  bool storesDelay(const VmInstr &In) const {
    return vmOperands(In.Op).Target == OperandSpace::Value &&
           In.Target >= ValueEnd;
  }
  bool hasEffect(const VmInstr &In) const {
    return isBarrier(In) || In.Op == VmOp::WriteOutput || storesDelay(In);
  }
  bool readsNothing(const VmInstr &In) const {
    bool Reads = false;
    forEachSlot(In, [&](int32_t, bool Write) {
      Reads = Reads || !Write;
    });
    return !Reads;
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

  CompiledStep &CS;
  const int32_t NumClocks;
  const int32_t ValueEnd;
  const size_t NumKeys;
  /// Per key K, the instructions writing it are WritePCs[WriteBegin[K],
  /// WriteBegin[K + 1]), in code order; likewise the readers.
  std::vector<int32_t> WriteBegin, WritePCs, ReadBegin, ReadPCs;
};

} // namespace

void sigc::optimize(CompiledStep &CS) {
  for (;;) {
    // Forwarding rewrites only reads, so the writer lists the sweep
    // follows still hold.
    StepView View(CS);
    bool Forwarded = View.forward();
    unsigned Deleted = View.sweep();
    CS.Dropped += Deleted;
    if (!Forwarded && Deleted == 0)
      return;
  }
}
