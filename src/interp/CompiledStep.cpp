//===--- CompiledStep.cpp -------------------------------------------------===//

#include "interp/CompiledStep.h"

#include <algorithm>
#include <cstdio>

using namespace sigc;

std::vector<VmInstr> sigc::layOutGuards(const std::vector<VmInstr> &Code,
                                        const std::vector<StepGroup> &Groups,
                                        GuardLowering L) {
  std::vector<VmInstr> Out;
  Out.reserve(Code.size() + Groups.size());
  std::vector<std::pair<int32_t, size_t>> Open; // (guard slot, skip index)
  auto closeTo = [&](size_t Depth) {
    while (Open.size() > Depth) {
      Out[Open.back().second].Aux = static_cast<int32_t>(Out.size());
      Open.pop_back();
    }
  };
  auto open = [&](int32_t Guard) {
    VmInstr Skip;
    Skip.Op = VmOp::SkipIfAbsent;
    Skip.A = Guard;
    Open.emplace_back(Guard, Out.size());
    Out.push_back(Skip);
  };

  uint32_t Begin = 0;
  for (const StepGroup &G : Groups) {
    if (G.End == Begin)
      continue; // No code, no skip.
    if (L == GuardLowering::Flat) {
      closeTo(0);
      if (!G.Guards.empty())
        open(G.Guards.back());
    } else {
      // Keep the skips of the clock path shared with the open ones, close
      // the rest and open the group's remaining path.
      size_t Common = 0;
      while (Common < Open.size() && Common < G.Guards.size() &&
             Open[Common].first == G.Guards[Common])
        ++Common;
      closeTo(Common);
      for (size_t I = Common; I < G.Guards.size(); ++I)
        open(G.Guards[I]);
    }
    Out.insert(Out.end(), Code.begin() + Begin, Code.begin() + G.End);
    Begin = G.End;
  }
  closeTo(0);
  if (L == GuardLowering::Flat)
    return Out;

  // The chain collapse (Figure 9, code a): re-opening a root-to-leaf path
  // leaves skips whose only content is the next skip, which buy a guard
  // test and nothing else. Keep only the innermost test of such a chain.
  // Sound because every engine zeroes the clock slots at the start of
  // each instant and a guard is only tested once computed (or skipped
  // under an absent ancestor, leaving it zero): by tree inclusion the
  // innermost clock is absent whenever any ancestor on the chain is.
  std::vector<int32_t> NewPC(Out.size() + 1);
  size_t Kept = 0;
  for (size_t PC = 0; PC < Out.size(); ++PC) {
    NewPC[PC] = static_cast<int32_t>(Kept);
    bool Chained = Out[PC].Op == VmOp::SkipIfAbsent && PC + 1 < Out.size() &&
                   Out[PC + 1].Op == VmOp::SkipIfAbsent &&
                   Out[PC + 1].Aux == Out[PC].Aux;
    if (!Chained)
      Out[Kept++] = Out[PC];
  }
  NewPC[Out.size()] = static_cast<int32_t>(Kept);
  Out.resize(Kept);
  for (VmInstr &In : Out)
    if (In.Op == VmOp::SkipIfAbsent)
      In.Aux = NewPC[In.Aux];
  return Out;
}

namespace {

/// \p Step's slots, constants and descriptors, without code.
CompiledStep slotsOf(const StepProgram &Step) {
  CompiledStep CS;
  CS.NumClockSlots = Step.NumClockSlots;
  CS.NumValueSlots = Step.NumValueSlots;
  CS.NumTempSlots = Step.NumTempSlots;
  CS.StateInit = Step.StateInit;
  CS.Consts = Step.Consts;
  CS.ClockInputs = Step.ClockInputs;
  CS.Inputs = Step.Inputs;
  CS.Outputs = Step.Outputs;
  CS.SignalClockSlot = Step.SignalClockSlot;
  CS.SlotType = Step.SlotType;
  return CS;
}

} // namespace

CompiledStep CompiledStep::build(const StepProgram &Step, GuardLowering L) {
  CompiledStep CS = slotsOf(Step);
  std::vector<VmInstr> Code = Step.Code;
  std::vector<StepGroup> Groups = Step.Groups;
  CS.Dropped = optimize(CS, Code, Groups);
  CS.Code = layOutGuards(Code, Groups, L);
  CS.orderOutputFlush();
  return CS;
}

CompiledStep CompiledStep::layOut(const StepProgram &Step, GuardLowering L) {
  CompiledStep CS = slotsOf(Step);
  CS.Code = layOutGuards(Step.Code, Step.Groups, L);
  CS.orderOutputFlush();
  return CS;
}

void CompiledStep::orderOutputFlush() {
  // Each output descriptor, in the order its WriteOutput first appears in
  // the instruction stream.
  OutputFlushOrder.clear();
  std::vector<char> Seen(Outputs.size(), 0);
  for (const VmInstr &In : Code)
    if (In.Op == VmOp::WriteOutput && !Seen[In.Aux]) {
      Seen[In.Aux] = 1;
      OutputFlushOrder.push_back(In.Aux);
    }
  // Descriptors the code never writes (none today) still flush last so
  // the order is total.
  for (size_t I = 0; I < Seen.size(); ++I)
    if (!Seen[I])
      OutputFlushOrder.push_back(static_cast<int32_t>(I));
}

std::string CompiledStep::dump() const {
  std::string Out;
  char Buf[128];
  for (size_t I = 0; I < Code.size(); ++I) {
    const VmInstr &In = Code[I];
    std::snprintf(Buf, sizeof Buf, "%4zu: %-16s t=%-3d a=%-3d b=%-3d aux=%d\n",
                  I, vmOpName(In.Op), In.Target, In.A, In.B, In.Aux);
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
