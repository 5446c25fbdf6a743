//===--- TraceEnvironment.cpp ---------------------------------------------===//

#include "io/TraceEnvironment.h"

#include "interp/VmExecutor.h"

#include <algorithm>
#include <cassert>

using namespace sigc;

namespace {

/// Index of \p Name in a name list; TraceUnrecorded when absent.
template <typename List, typename NameOf>
unsigned specIndex(const List &Names, std::string_view Name, NameOf GetName) {
  for (size_t I = 0; I < Names.size(); ++I)
    if (GetName(Names[I]) == Name)
      return static_cast<unsigned>(I);
  return TraceUnrecorded;
}

unsigned clockSpecIndex(const TraceSpec &Spec, std::string_view Name) {
  return specIndex(Spec.Clocks, Name, [](const std::string &N) { return N; });
}
unsigned inputSpecIndex(const TraceSpec &Spec, std::string_view Name) {
  return specIndex(Spec.Inputs, Name,
                   [](const TraceSpec::Signal &S) { return S.Name; });
}
unsigned outputSpecIndex(const TraceSpec &Spec, std::string_view Name) {
  return specIndex(Spec.Outputs, Name,
                   [](const TraceSpec::Signal &S) { return S.Name; });
}

} // namespace

//===----------------------------------------------------------------------===//
// RecordingEnvironment
//===----------------------------------------------------------------------===//

RecordingEnvironment::RecordingEnvironment(Environment &Inner,
                                           TraceWriter &Writer)
    : Inner(Inner), Writer(Writer) {}

EnvClockId RecordingEnvironment::resolveClock(std::string_view Name) {
  EnvClockId Id = Environment::resolveClock(Name);
  if (Id == InnerClock.size()) {
    InnerClock.push_back(Inner.resolveClock(Name));
    ClockSpec.push_back(clockSpecIndex(Writer.spec(), Name));
  }
  return Id;
}

EnvInputId RecordingEnvironment::resolveInput(std::string_view Name,
                                              TypeKind Type) {
  EnvInputId Id = Environment::resolveInput(Name, Type);
  if (Id == InnerIn.size()) {
    InnerIn.push_back(Inner.resolveInput(Name, Type));
    InSpec.push_back(inputSpecIndex(Writer.spec(), Name));
  }
  return Id;
}

EnvOutputId RecordingEnvironment::resolveOutput(std::string_view Name,
                                                TypeKind Type) {
  EnvOutputId Id = Environment::resolveOutput(Name, Type);
  if (Id == InnerOut.size()) {
    InnerOut.push_back(Inner.resolveOutput(Name, Type));
    OutSpec.push_back(outputSpecIndex(Writer.spec(), Name));
  }
  return Id;
}

void RecordingEnvironment::clockTicks(EnvClockId Clock, unsigned Start,
                                      unsigned Count, unsigned char *Out) {
  Inner.clockTicks(InnerClock[Clock], Start, Count, Out);
  if (ClockSpec[Clock] != TraceUnrecorded)
    Writer.putClockTicks(ClockSpec[Clock], Start, Count, Out);
}

void RecordingEnvironment::inputValues(EnvInputId Input, unsigned Start,
                                       unsigned Count, VmSlot *Out) {
  Inner.inputValues(InnerIn[Input], Start, Count, Out);
  if (InSpec[Input] != TraceUnrecorded)
    Writer.putInputValues(InSpec[Input], Start, Count, Out);
}

void RecordingEnvironment::exchangeOutputs(unsigned Start, unsigned Count,
                                           unsigned NumOutputs,
                                           const EnvOutputId *Ids,
                                           const unsigned char *Present,
                                           const VmSlot *Vals) {
  InnerIdScratch.resize(NumOutputs);
  ColSpec.resize(NumOutputs);
  for (unsigned C = 0; C < NumOutputs; ++C) {
    InnerIdScratch[C] = InnerOut[Ids[C]];
    ColSpec[C] = OutSpec[Ids[C]];
  }
  Inner.exchangeOutputs(Start, Count, NumOutputs, InnerIdScratch.data(),
                        Present, Vals);
  Writer.putOutputs(Start, Count, NumOutputs, ColSpec.data(), Present, Vals);
  // The executor exchanges outputs once per window, after the window's
  // stimulus queries: the window below Start+Count is complete and its
  // full frames can flush.
  Writer.completeThrough(Start + Count);
}

//===----------------------------------------------------------------------===//
// StreamEnvironment
//===----------------------------------------------------------------------===//

StreamEnvironment::StreamEnvironment(TraceSpec Spec) : Spec(std::move(Spec)) {}

void StreamEnvironment::rebase(unsigned Instant) {
  assert(Window.empty() && "rebase with frames resident");
  assert(Instant % Spec.FrameInstants == 0 &&
         "resume points are frame boundaries");
  NextPush = Instant;
}

TraceFrame StreamEnvironment::takeRecycledFrame() {
  TraceFrame F;
  if (!Free.empty()) {
    F = std::move(Free.back());
    Free.pop_back();
  }
  F.shape(Spec);
  return F;
}

void StreamEnvironment::pushFrame(TraceFrame &&F) {
  assert(F.Start == NextPush && "frames must arrive contiguously");
  assert(F.Cap == Spec.FrameInstants && "frame shaped for another spec");
  NextPush = F.end();
  Window.push_back(std::move(F));
}

void StreamEnvironment::release(unsigned Instant) {
  while (!Window.empty() && Window.front().end() <= Instant) {
    Free.push_back(std::move(Window.front()));
    Window.pop_front();
  }
}

void StreamEnvironment::setEcho(TraceWriter *W) {
  Echo = W;
  EchoStimulus = W && (!W->spec().Clocks.empty() || !W->spec().Inputs.empty());
}

const TraceFrame &StreamEnvironment::frameAt(unsigned Instant) const {
  assert(!Window.empty() && Instant >= Window.front().Start &&
         Instant < NextPush && "query outside the resident window");
  size_t Idx = (Instant - Window.front().Start) / Spec.FrameInstants;
  const TraceFrame &F = Window[Idx];
  assert(Instant >= F.Start && Instant < F.end() && "window misaligned");
  return F;
}

EnvClockId StreamEnvironment::resolveClock(std::string_view Name) {
  EnvClockId Id = Environment::resolveClock(Name);
  if (Id == ClockSpec.size())
    ClockSpec.push_back(clockSpecIndex(Spec, Name));
  return Id;
}

EnvInputId StreamEnvironment::resolveInput(std::string_view Name,
                                           TypeKind Type) {
  EnvInputId Id = Environment::resolveInput(Name, Type);
  if (Id == InSpec.size())
    InSpec.push_back(inputSpecIndex(Spec, Name));
  return Id;
}

EnvOutputId StreamEnvironment::resolveOutput(std::string_view Name,
                                             TypeKind Type) {
  EnvOutputId Id = Environment::resolveOutput(Name, Type);
  if (Id == OutSpec.size())
    OutSpec.push_back(outputSpecIndex(Spec, Name));
  return Id;
}

void StreamEnvironment::verifyOutputs(unsigned Start, unsigned Count,
                                      unsigned NumOutputs,
                                      const EnvOutputId *Ids,
                                      const unsigned char *Present,
                                      const VmSlot *Vals) {
  unsigned I = 0;
  while (I < Count) {
    const TraceFrame &F = frameAt(Start + I);
    unsigned Off = (Start + I) - F.Start;
    unsigned Take = std::min(Count - I, F.Count - Off);
    for (unsigned J = 0; J < Take; ++J) {
      const size_t Row = static_cast<size_t>(I + J) * NumOutputs;
      for (unsigned C = 0; C < NumOutputs; ++C) {
        unsigned S = ColSpec[C];
        if (S == TraceUnrecorded)
          continue;
        size_t FAt = static_cast<size_t>(S) * F.Cap + Off + J;
        bool Produced = Present[Row + C] != 0;
        bool Recorded = F.OutPresent[FAt] != 0;
        const TypeKind T = Spec.Outputs[S].Type;
        if (Produced == Recorded &&
            (!Produced || sameTraceValue(T, F.OutVals[FAt], Vals[Row + C])))
          continue;
        Divergence = "instant " + std::to_string(Start + I + J) +
                     ": output " + outputBindingName(Ids[C]);
        if (Produced != Recorded) {
          Divergence += Produced ? " produced but absent in the trace"
                                 : " recorded in the trace but not produced";
        } else {
          Divergence += " = ";
          appendSlotText(Divergence, Vals[Row + C], T);
          Divergence += ", trace recorded ";
          appendSlotText(Divergence, F.OutVals[FAt], T);
        }
        return;
      }
    }
    I += Take;
  }
}

void StreamEnvironment::clockTicks(EnvClockId Clock, unsigned Start,
                                   unsigned Count, unsigned char *Out) {
  unsigned S = ClockSpec[Clock];
  assert(S != TraceUnrecorded && "clock not in the trace interface");
  unsigned I = 0;
  while (I < Count) {
    const TraceFrame &F = frameAt(Start + I);
    unsigned Off = (Start + I) - F.Start;
    unsigned Take = std::min(Count - I, F.Count - Off);
    const unsigned char *Row = &F.ClockTicks[static_cast<size_t>(S) * F.Cap];
    std::copy_n(Row + Off, Take, Out + I);
    I += Take;
  }
  if (Echo && EchoStimulus)
    Echo->putClockTicks(S, Start, Count, Out);
}

void StreamEnvironment::inputValues(EnvInputId Input, unsigned Start,
                                    unsigned Count, VmSlot *Out) {
  unsigned S = InSpec[Input];
  assert(S != TraceUnrecorded && "input not in the trace interface");
  unsigned I = 0;
  while (I < Count) {
    const TraceFrame &F = frameAt(Start + I);
    unsigned Off = (Start + I) - F.Start;
    unsigned Take = std::min(Count - I, F.Count - Off);
    const VmSlot *Row = &F.InputVals[static_cast<size_t>(S) * F.Cap];
    std::copy_n(Row + Off, Take, Out + I);
    I += Take;
  }
  if (Echo && EchoStimulus)
    Echo->putInputValues(S, Start, Count, Out);
}

void StreamEnvironment::exchangeOutputs(unsigned Start, unsigned Count,
                                        unsigned NumOutputs,
                                        const EnvOutputId *Ids,
                                        const unsigned char *Present,
                                        const VmSlot *Vals) {
  if (CollectEvents)
    Environment::exchangeOutputs(Start, Count, NumOutputs, Ids, Present, Vals);
  const size_t Cells = static_cast<size_t>(Count) * NumOutputs;
  for (size_t At = 0; At < Cells; ++At)
    OutputCount += Present[At] != 0;
  ColSpec.resize(NumOutputs);
  for (unsigned C = 0; C < NumOutputs; ++C)
    ColSpec[C] = OutSpec[Ids[C]];
  if (Echo) {
    Echo->putOutputs(Start, Count, NumOutputs, ColSpec.data(), Present, Vals);
    Echo->completeThrough(Start + Count);
  }
  if (VerifyOutputs && Divergence.empty())
    verifyOutputs(Start, Count, NumOutputs, Ids, Present, Vals);
}

//===----------------------------------------------------------------------===//
// replayTrace
//===----------------------------------------------------------------------===//

unsigned sigc::replayTrace(TraceInput &In, TraceDecoder &Dec,
                           StreamEnvironment &Env, VmExecutor &Exec,
                           unsigned Window, TierController *Tier) {
  const unsigned W = std::max(Window, 1u);
  unsigned At = Env.residentEnd();
  for (;;) {
    while (!Dec.finished() && Env.residentEnd() < At + W) {
      TraceFrame F = Env.takeRecycledFrame();
      TraceFrameStatus St = In.next(Dec, F);
      if (St == TraceFrameStatus::Frame)
        Env.pushFrame(std::move(F));
      else if (St != TraceFrameStatus::End)
        return At; // Dec.error() is positioned.
    }
    unsigned N = std::min(W, Env.residentEnd() - At);
    if (N == 0)
      return At;
    At += runWindows(Exec, Env, At, N, N, Tier);
    Env.release(At);
    if (Exec.checkFailure())
      return At;
  }
}
