//===--- StepFusion.cpp ---------------------------------------------------===//

#include "link/StepFusion.h"

#include <algorithm>
#include <climits>
#include <map>
#include <set>

using namespace sigc;

namespace {

/// Type-correct zero for a dynamic channel's prelude: a default Value
/// would trip asReal()'s non-numeric assertion if a mismatch instant
/// reads the slot before the producer writes it.
Value typedZeroValue(TypeKind K) {
  switch (K) {
  case TypeKind::Boolean:
    return Value::makeBool(false);
  case TypeKind::Event:
    return Value::makeEvent();
  case TypeKind::Real:
    return Value::makeReal(0.0);
  case TypeKind::Integer:
  case TypeKind::Unknown:
    break;
  }
  return Value::makeInt(0);
}

/// A slot space whose reads and writes order the instructions.
bool isSlotSpace(OperandSpace S) {
  return S == OperandSpace::Clock || S == OperandSpace::Value;
}

/// One rebased instruction awaiting scheduling.
struct FInstr {
  VmInstr In;                  ///< Operands already in fused slot space.
  std::vector<int32_t> Guards; ///< Guard path (fused clock slots), outer
                               ///< block first.
  int CrossUnit = -1;    ///< Producer unit this instruction copies from.
  int CrossIdx = -1;     ///< Index of the producer's writing instruction.
  int CrossChannel = -1; ///< Channel behind the copy (cycle diagnosis).
  OperandSpace CrossSpace = OperandSpace::None; ///< Clock or Value.
  int32_t CrossSlot = -1;
};

} // namespace

FusionResult sigc::fuseLinkedSteps(const LinkedSystem &Sys) {
  FusionResult R;
  CompiledStep &F = R.Fused;
  const size_t NU = Sys.Units.size();

  // The units' guard-tagged step programs (see the header).
  auto unitStep = [&](size_t U) -> const StepProgram & {
    return Sys.Units[U].Comp->Step;
  };

  // --- Slot rebasing -----------------------------------------------------
  // Clock slots concatenate per unit; value operands keep the layout
  // [values | scratch | delay memories] with each part concatenated per
  // unit, so a unit's scratch slot v maps to TotalValues + TempBase +
  // (v - unit's NumValueSlots) and its memory k to TotalValues +
  // TotalTemps + StateBase + k.
  std::vector<int32_t> ClockBase(NU, 0), ValueBase(NU, 0), TempBase(NU, 0),
      StateBase(NU, 0);
  uint32_t TotalClocks = 0, TotalValues = 0, TotalTemps = 0, TotalStates = 0;
  for (size_t U = 0; U < NU; ++U) {
    const StepProgram &CS = unitStep(U);
    ClockBase[U] = static_cast<int32_t>(TotalClocks);
    TotalClocks += CS.NumClockSlots;
    ValueBase[U] = static_cast<int32_t>(TotalValues);
    TotalValues += CS.NumValueSlots;
    TempBase[U] = static_cast<int32_t>(TotalTemps);
    TotalTemps += CS.NumTempSlots;
    StateBase[U] = static_cast<int32_t>(TotalStates);
    TotalStates += static_cast<uint32_t>(CS.StateInit.size());
  }
  auto mapClock = [&](size_t U, int32_t C) { return ClockBase[U] + C; };
  auto mapValue = [&](size_t U, int32_t V) {
    const StepProgram &CS = unitStep(U);
    const int32_t Values = static_cast<int32_t>(CS.NumValueSlots);
    const int32_t End = Values + static_cast<int32_t>(CS.NumTempSlots);
    if (V < Values)
      return ValueBase[U] + V;
    if (V < End)
      return static_cast<int32_t>(TotalValues) + TempBase[U] + (V - Values);
    return static_cast<int32_t>(TotalValues + TotalTemps) + StateBase[U] +
           (V - End);
  };

  F.NumClockSlots = TotalClocks;
  F.NumValueSlots = TotalValues;
  F.NumTempSlots = TotalTemps;
  // Slot types follow the same layout: every unit's values, then every
  // unit's temps.
  for (size_t U = 0; U < NU; ++U) {
    const StepProgram &CS = unitStep(U);
    F.StateInit.insert(F.StateInit.end(), CS.StateInit.begin(),
                       CS.StateInit.end());
    F.SlotType.insert(F.SlotType.end(), CS.SlotType.begin(),
                      CS.SlotType.begin() + CS.NumValueSlots);
  }
  for (size_t U = 0; U < NU; ++U) {
    const StepProgram &CS = unitStep(U);
    F.SlotType.insert(F.SlotType.end(), CS.SlotType.begin() + CS.NumValueSlots,
                      CS.SlotType.end());
  }

  // --- Channel lookup tables ---------------------------------------------
  // First channel wins when several bind the same consumer clock input
  // (synchronous imports proved equal at link time).
  std::vector<std::map<int, int>> BoundCI(NU), BoundIn(NU);
  std::vector<std::set<int>> ConsumedOut(NU);
  for (size_t C = 0; C < Sys.Channels.size(); ++C) {
    const LinkChannel &Ch = Sys.Channels[C];
    if (Ch.ConsumerClockInput >= 0)
      BoundCI[Ch.Consumer].emplace(Ch.ConsumerClockInput,
                                   static_cast<int>(C));
    BoundIn[Ch.Consumer].emplace(Ch.ConsumerInput, static_cast<int>(C));
    ConsumedOut[Ch.Producer].insert(Ch.ProducerOutput);
  }

  // --- Fused descriptor tables -------------------------------------------
  // Unbound clock inputs and unbound inputs dedup by name (the VM's
  // name-keyed environment binding and the emitted C's struct fields
  // both pace same-named roots/inputs from one stream); outputs are one
  // per external output, in ExternalOutputs order.
  std::map<std::string, int> ClockDescByName, InDescByName;
  std::vector<std::map<int, int>> CIMap(NU), InMap(NU), OutMap(NU);
  for (size_t U = 0; U < NU; ++U) {
    const StepProgram &CS = unitStep(U);
    for (size_t CI = 0; CI < CS.ClockInputs.size(); ++CI) {
      if (BoundCI[U].count(static_cast<int>(CI)))
        continue;
      const StepProgram::ClockInputDesc &D = CS.ClockInputs[CI];
      auto [It, Inserted] =
          ClockDescByName.emplace(D.Name, static_cast<int>(F.ClockInputs.size()));
      if (Inserted)
        F.ClockInputs.push_back(
            {D.Slot >= 0 ? mapClock(U, D.Slot) : -1, D.Name});
      CIMap[U][static_cast<int>(CI)] = It->second;
    }
    for (size_t II = 0; II < CS.Inputs.size(); ++II) {
      if (BoundIn[U].count(static_cast<int>(II)))
        continue;
      const StepProgram::SignalIODesc &D = CS.Inputs[II];
      auto [It, Inserted] =
          InDescByName.emplace(D.Name, static_cast<int>(F.Inputs.size()));
      if (Inserted) {
        StepProgram::SignalIODesc ND = D;
        ND.ValueSlot = D.ValueSlot >= 0 ? mapValue(U, D.ValueSlot) : -1;
        ND.ClockSlot = D.ClockSlot >= 0 ? mapClock(U, D.ClockSlot) : -1;
        F.Inputs.push_back(ND);
      }
      InMap[U][static_cast<int>(II)] = It->second;
    }
  }
  for (const LinkedExternal &E : Sys.ExternalOutputs) {
    const StepProgram &CS = unitStep(E.Unit);
    for (size_t OI = 0; OI < CS.Outputs.size(); ++OI)
      if (CS.Outputs[OI].Sig == E.Sig) {
        StepProgram::SignalIODesc ND = CS.Outputs[OI];
        ND.ValueSlot = ND.ValueSlot >= 0 ? mapValue(E.Unit, ND.ValueSlot) : -1;
        ND.ClockSlot = ND.ClockSlot >= 0 ? mapClock(E.Unit, ND.ClockSlot) : -1;
        OutMap[E.Unit][static_cast<int>(OI)] =
            static_cast<int>(F.Outputs.size());
        F.Outputs.push_back(ND);
      }
  }

  // --- Pass 1: rebase + rewire each unit's bytecode ----------------------
  std::vector<std::vector<FInstr>> Lists(NU);

  // Typed-zero preludes for dynamic channels (one per producer slot).
  std::vector<std::set<int32_t>> Preluded(NU);
  for (const LinkChannel &Ch : Sys.Channels) {
    if (Ch.ConsumerClockInput >= 0)
      continue;
    const StepProgram &PCS = unitStep(Ch.Producer);
    const StepProgram::SignalIODesc &OD = PCS.Outputs[Ch.ProducerOutput];
    if (OD.ValueSlot < 0)
      continue;
    int32_t Slot = mapValue(Ch.Producer, OD.ValueSlot);
    if (!Preluded[Ch.Producer].insert(Slot).second)
      continue;
    FInstr P;
    P.In.Op = VmOp::LoadConst;
    P.In.Target = Slot;
    P.In.Aux = internConst(F.Consts, typedZeroValue(OD.Type));
    Lists[Ch.Producer].push_back(P);
  }

  for (size_t U = 0; U < NU; ++U) {
    const StepProgram &SP = unitStep(U);
    // Rebases one field into the fused spaces, by its operand space.
    auto rebase = [&](OperandSpace S, int32_t &V) {
      switch (S) {
      case OperandSpace::Clock:
        V = mapClock(U, V);
        break;
      case OperandSpace::Value:
        V = mapValue(U, V);
        break;
      case OperandSpace::Const:
        V = internConst(F.Consts, SP.Consts[V]);
        break;
      case OperandSpace::ClockInput:
        V = CIMap[U].at(V);
        break;
      case OperandSpace::Input:
        V = InMap[U].at(V);
        break;
      case OperandSpace::Output:
        V = OutMap[U].at(V);
        break;
      default:
        break; // Not an index into a per-unit space.
      }
    };
    // Each instruction keeps its group's guard path (layOutGuards places
    // the skips after interleaving).
    size_t Group = 0;
    for (size_t I = 0; I < SP.Code.size(); ++I) {
      while (SP.Groups[Group].End <= I)
        ++Group;
      const VmInstr &In = SP.Code[I];
      // A channel-consumed output is dropped: consumers copy the slot.
      if (In.Op == VmOp::WriteOutput && ConsumedOut[U].count(In.Aux))
        continue;
      FInstr FI;
      FI.In = In;
      for (int32_t G : SP.Groups[Group].Guards)
        FI.Guards.push_back(mapClock(U, G));
      // A channel-bound clock or input read becomes a copy of the
      // producer's export slot; everything else rebases field by field.
      int Bound = -1;
      bool IsClock = In.Op == VmOp::ReadClockInput;
      if (IsClock || In.Op == VmOp::ReadSignal) {
        const std::map<int, int> &M = IsClock ? BoundCI[U] : BoundIn[U];
        auto It = M.find(In.Aux);
        if (It != M.end())
          Bound = It->second;
      }
      if (Bound >= 0) {
        const LinkChannel &Ch = Sys.Channels[Bound];
        const StepProgram::SignalIODesc &OD =
            unitStep(Ch.Producer).Outputs[Ch.ProducerOutput];
        FI.In.Op = IsClock ? VmOp::CopyClock : VmOp::CopyValue;
        FI.In.Target =
            IsClock ? mapClock(U, In.Target) : mapValue(U, In.Target);
        FI.In.A = IsClock ? mapClock(Ch.Producer, OD.ClockSlot)
                          : mapValue(Ch.Producer, OD.ValueSlot);
        FI.In.Aux = -1;
        FI.CrossUnit = static_cast<int>(Ch.Producer);
        FI.CrossChannel = Bound;
        FI.CrossSpace = IsClock ? OperandSpace::Clock : OperandSpace::Value;
        FI.CrossSlot = FI.In.A;
      } else {
        VmOperands Ops = vmOperands(In.Op);
        rebase(Ops.Target, FI.In.Target);
        rebase(Ops.A, FI.In.A);
        rebase(Ops.B, FI.In.B);
        rebase(Ops.Aux, FI.In.Aux);
      }
      Lists[U].push_back(std::move(FI));
    }
  }

  // --- Pass 2: cross-unit dependence edges -------------------------------
  // Each rewired copy waits for the producer's LAST write of the source
  // slot (the defining equation; the typed-zero prelude is earlier and
  // ordered before it by a write-after-write edge).
  std::vector<std::map<std::pair<OperandSpace, int32_t>, int>> LastWrite(NU);
  for (size_t U = 0; U < NU; ++U)
    for (size_t I = 0; I < Lists[U].size(); ++I) {
      const VmInstr &In = Lists[U][I].In;
      OperandSpace T = vmOperands(In.Op).Target;
      if (isSlotSpace(T))
        LastWrite[U][{T, In.Target}] = static_cast<int>(I);
    }
  for (size_t U = 0; U < NU; ++U)
    for (FInstr &FI : Lists[U]) {
      if (FI.CrossUnit < 0)
        continue;
      auto &M = LastWrite[FI.CrossUnit];
      auto It = M.find({FI.CrossSpace, FI.CrossSlot});
      if (It != M.end())
        FI.CrossIdx = It->second;
      else
        FI.CrossUnit = -1; // Nothing ever writes the slot: no constraint.
    }

  // --- Pass 3: intra-unit dependence edges -------------------------------
  // A unit's bytecode order is NOT preserved wholesale: under feedback
  // the consumer half of a unit may have to wait for another process
  // while its producer half runs ahead (the compiler is free to order a
  // unit's clock classes either way, so the import-consuming block can
  // precede the export-defining one). What must be preserved is the
  // dependence order: read-after-write, write-after-read and write-
  // after-write on every clock/value/state slot, with an instruction's
  // guard path counting as reads of the guard clock slots.
  std::vector<std::vector<std::vector<int>>> Succs(NU);
  std::vector<std::vector<int>> PredsLeft(NU);
  for (size_t U = 0; U < NU; ++U) {
    const std::vector<FInstr> &L = Lists[U];
    Succs[U].resize(L.size());
    PredsLeft[U].assign(L.size(), 0);
    struct SlotUse {
      int LastWrite = -1;
      std::vector<int> ReadersSince;
    };
    std::map<std::pair<OperandSpace, int32_t>, SlotUse> Use;
    std::set<std::pair<int, int>> Edges; // (from, to), deduped
    auto addEdge = [&](int From, int To) {
      if (From >= 0 && From != To && Edges.emplace(From, To).second) {
        Succs[U][From].push_back(To);
        ++PredsLeft[U][To];
      }
    };
    auto read = [&](int I, OperandSpace K, int32_t S) {
      SlotUse &SU = Use[{K, S}];
      addEdge(SU.LastWrite, I);
      SU.ReadersSince.push_back(I);
    };
    auto write = [&](int I, OperandSpace K, int32_t S) {
      SlotUse &SU = Use[{K, S}];
      addEdge(SU.LastWrite, I);
      for (int R : SU.ReadersSince)
        addEdge(R, I);
      SU.LastWrite = I;
      SU.ReadersSince.clear();
    };
    for (size_t IS = 0; IS < L.size(); ++IS) {
      int I = static_cast<int>(IS);
      const VmInstr &In = L[IS].In;
      for (int32_t G : L[IS].Guards)
        read(I, OperandSpace::Clock, G);
      // Operands by the table; a rewired copy's A is another unit's slot.
      VmOperands Ops = vmOperands(In.Op);
      auto readField = [&](OperandSpace K, int32_t S) {
        if (isSlotSpace(K))
          read(I, K, S);
      };
      if (L[IS].CrossUnit < 0)
        readField(Ops.A, In.A);
      readField(Ops.B, In.B);
      readField(Ops.Aux, In.Aux);
      if (isSlotSpace(Ops.Target))
        write(I, Ops.Target, In.Target);
    }
  }

  // --- Schedule: rounds over the dependence order ------------------------
  // The round priority is a Kahn order over the unit-level channel
  // dataflow, smallest index first; a feedback cycle between units is no
  // error (only a same-instant cycle of instructions is, diagnosed below),
  // and its units follow in index order. Each round sweeps every unit,
  // emitting its ready instructions in index order (re-sweeping while
  // anything lands). When nothing is cross-blocked the lowest unscheduled
  // index is always ready, so an acyclic system degenerates to plain
  // concatenation of whole units in topological order; feedback systems
  // interleave the independent halves across rounds.
  std::vector<unsigned> Rounds;
  {
    std::vector<unsigned> InDeg(NU, 0);
    std::vector<std::vector<unsigned>> Succ(NU);
    for (const LinkChannel &Ch : Sys.Channels) {
      // Count each producer->consumer pair once.
      if (std::find(Succ[Ch.Producer].begin(), Succ[Ch.Producer].end(),
                    Ch.Consumer) == Succ[Ch.Producer].end()) {
        Succ[Ch.Producer].push_back(Ch.Consumer);
        ++InDeg[Ch.Consumer];
      }
    }
    std::vector<unsigned> Ready;
    for (unsigned U = 0; U < NU; ++U)
      if (InDeg[U] == 0)
        Ready.push_back(U);
    while (!Ready.empty()) {
      auto It = std::min_element(Ready.begin(), Ready.end());
      unsigned U = *It;
      Ready.erase(It);
      Rounds.push_back(U);
      for (unsigned V : Succ[U])
        if (--InDeg[V] == 0)
          Ready.push_back(V);
    }
    // A cyclic unit graph yields a partial Kahn order: append the rest.
    std::vector<char> InRounds(NU, 0);
    for (unsigned U : Rounds)
      InRounds[U] = 1;
    for (unsigned U = 0; U < NU; ++U)
      if (!InRounds[U])
        Rounds.push_back(U);
  }
  std::vector<std::vector<char>> Emitted(NU);
  std::vector<size_t> Cursor(NU, 0); // First unscheduled index.
  for (size_t U = 0; U < NU; ++U)
    Emitted[U].assign(Lists[U].size(), 0);
  std::vector<FInstr *> Sched;
  std::vector<int> FirstAt(NU, -1);
  size_t Total = 0;
  for (const auto &L : Lists)
    Total += L.size();
  Sched.reserve(Total);
  while (Sched.size() < Total) {
    bool Progress = false;
    for (unsigned U : Rounds) {
      bool Landed = true;
      while (Landed) {
        Landed = false;
        for (size_t I = Cursor[U]; I < Lists[U].size(); ++I) {
          if (Emitted[U][I] || PredsLeft[U][I] > 0)
            continue;
          FInstr &FI = Lists[U][I];
          if (FI.CrossUnit >= 0 && !Emitted[FI.CrossUnit][FI.CrossIdx])
            continue;
          if (FirstAt[U] < 0)
            FirstAt[U] = static_cast<int>(Sched.size());
          Sched.push_back(&FI);
          Emitted[U][I] = 1;
          for (int S : Succs[U][I])
            --PredsLeft[U][S];
          while (Cursor[U] < Lists[U].size() && Emitted[U][Cursor[U]])
            ++Cursor[U];
          Landed = Progress = true;
        }
      }
    }
    if (Progress)
      continue;

    // A true instruction-level cycle. In every stalled unit the lowest
    // unscheduled instruction has its intra-unit predecessors scheduled
    // (they sit at lower indices), so it must be waiting on the producer
    // of some channel; walking those wait edges must reach a repeat —
    // print that cycle in dataflow direction.
    std::vector<int> WaitOn(NU, -1), WaitCh(NU, -1);
    int Start = -1;
    for (size_t U = 0; U < NU; ++U)
      if (Cursor[U] < Lists[U].size()) {
        const FInstr &FI = Lists[U][Cursor[U]];
        WaitOn[U] = FI.CrossUnit;
        WaitCh[U] = FI.CrossChannel;
        if (Start < 0)
          Start = static_cast<int>(U);
      }
    int Cur = Start;
    for (size_t K = 0; K < NU; ++K)
      Cur = WaitOn[Cur];
    std::vector<int> Cycle;
    int C0 = Cur;
    do {
      Cycle.push_back(Cur);
      Cur = WaitOn[Cur];
    } while (Cur != C0);
    // WaitOn[u] -[WaitCh[u]]-> u carries the data, so the flow path walks
    // the wait cycle backwards.
    std::string Path = Sys.Units[Cycle.front()].Name;
    for (size_t K = Cycle.size(); K-- > 0;)
      Path += " -[" + Sys.Channels[WaitCh[Cycle[K]]].Name + "]-> " +
              Sys.Units[Cycle[K]].Name;
    R.Error = "channel dataflow between processes is cyclic at instruction "
              "granularity (" +
              Path +
              "): every signal on the cycle needs another's same-instant "
              "value — break the cycle with a delay ($)";
    return R;
  }

  // --- Groups: each instruction is one, under its guard path -------------
  std::vector<VmInstr> &Code = R.Code;
  std::vector<StepGroup> &Groups = R.Groups;
  Code.reserve(Sched.size());
  Groups.reserve(Sched.size() + 1);
  for (FInstr *FI : Sched) {
    Code.push_back(FI->In);
    Groups.push_back(
        {std::move(FI->Guards), static_cast<uint32_t>(Code.size())});
  }

  // --- Dynamic checks ----------------------------------------------------
  // A channel whose consumer derives the import's clock itself: at the
  // end of every instant both sides must agree on presence. One trailing
  // unguarded group, so a failed check ends a completed instant.
  for (size_t C = 0; C < Sys.Channels.size(); ++C) {
    const LinkChannel &Ch = Sys.Channels[C];
    if (Ch.ConsumerClockInput >= 0)
      continue;
    const StepProgram &CCS = unitStep(Ch.Consumer);
    const StepProgram &PCS = unitStep(Ch.Producer);
    int CSlot = CCS.SignalClockSlot[Ch.ConsumerSig];
    int PSlot = PCS.Outputs[Ch.ProducerOutput].ClockSlot;
    VmInstr Check;
    Check.Op = VmOp::CheckClockEq;
    Check.A = CSlot >= 0 ? mapClock(Ch.Consumer, CSlot) : -1;
    Check.B = PSlot >= 0 ? mapClock(Ch.Producer, PSlot) : -1;
    Check.Aux = static_cast<int32_t>(C);
    Code.push_back(Check);
  }
  Groups.push_back({{}, static_cast<uint32_t>(Code.size())});

  // --- Optimize, then lay out --------------------------------------------
  F.Dropped = optimize(F, Code, Groups);
  F.Code = layOutGuards(Code, Groups, GuardLowering::Nested);
  F.orderOutputFlush();

  // --- Unit order by first fused instruction -----------------------------
  for (unsigned U = 0; U < NU; ++U)
    R.Order.push_back(U);
  std::stable_sort(R.Order.begin(), R.Order.end(),
                   [&](unsigned A, unsigned B) {
                     int FA = FirstAt[A] < 0 ? INT_MAX : FirstAt[A];
                     int FB = FirstAt[B] < 0 ? INT_MAX : FirstAt[B];
                     return FA < FB;
                   });

  R.Ok = true;
  return R;
}
