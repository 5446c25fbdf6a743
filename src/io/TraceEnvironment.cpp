//===--- TraceEnvironment.cpp ---------------------------------------------===//

#include "io/TraceEnvironment.h"

#include <algorithm>
#include <cassert>

using namespace sigc;

namespace {

constexpr unsigned NoSpec = ~0u;

/// Index of \p Name in a name list; NoSpec when absent.
template <typename List, typename NameOf>
unsigned specIndex(const List &Names, std::string_view Name, NameOf GetName) {
  for (size_t I = 0; I < Names.size(); ++I)
    if (GetName(Names[I]) == Name)
      return static_cast<unsigned>(I);
  return NoSpec;
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
  if (ClockSpec[Clock] != NoSpec)
    Writer.putClockTicks(ClockSpec[Clock], Start, Count, Out);
}

void RecordingEnvironment::inputValues(EnvInputId Input, unsigned Start,
                                       unsigned Count, VmSlot *Out) {
  Inner.inputValues(InnerIn[Input], Start, Count, Out);
  if (InSpec[Input] != NoSpec)
    Writer.putInputValues(InSpec[Input], Start, Count, Out);
}

void RecordingEnvironment::exchangeOutputs(unsigned Start, unsigned Count,
                                           unsigned NumOutputs,
                                           const EnvOutputId *Ids,
                                           const unsigned char *Present,
                                           const VmSlot *Vals) {
  InnerIdScratch.resize(NumOutputs);
  for (unsigned C = 0; C < NumOutputs; ++C)
    InnerIdScratch[C] = InnerOut[Ids[C]];
  Inner.exchangeOutputs(Start, Count, NumOutputs, InnerIdScratch.data(),
                        Present, Vals);
  for (unsigned I = 0; I < Count; ++I)
    for (unsigned C = 0; C < NumOutputs; ++C)
      if (Present[static_cast<size_t>(I) * NumOutputs + C]) {
        unsigned S = OutSpec[Ids[C]];
        if (S != NoSpec)
          Writer.putOutput(S, Start + I,
                           Vals[static_cast<size_t>(I) * NumOutputs + C]);
      }
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

void StreamEnvironment::checkOutput(EnvOutputId Id, unsigned S,
                                    unsigned Instant, bool Produced,
                                    VmSlot V) {
  if (Produced && Echo)
    Echo->putOutput(S, Instant, V);
  if (!VerifyOutputs || !Divergence.empty())
    return;
  const TraceFrame &F = frameAt(Instant);
  size_t FAt = static_cast<size_t>(S) * F.Cap + (Instant - F.Start);
  bool Recorded = F.OutPresent[FAt] != 0;
  const TypeKind T = Spec.Outputs[S].Type;
  if (Recorded != Produced) {
    Divergence = "instant " + std::to_string(Instant) + ": output " +
                 outputBindingName(Id) +
                 (Produced ? " produced but absent in the trace"
                           : " recorded in the trace but not produced");
  } else if (Produced && !sameTraceValue(T, F.OutVals[FAt], V)) {
    Divergence = "instant " + std::to_string(Instant) + ": output " +
                 outputBindingName(Id) + " = ";
    appendSlotText(Divergence, V, T);
    Divergence += ", trace recorded ";
    appendSlotText(Divergence, F.OutVals[FAt], T);
  }
}

void StreamEnvironment::clockTicks(EnvClockId Clock, unsigned Start,
                                   unsigned Count, unsigned char *Out) {
  unsigned S = ClockSpec[Clock];
  assert(S != NoSpec && "clock not in the trace interface");
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
  assert(S != NoSpec && "input not in the trace interface");
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
  for (unsigned I = 0; I < Count; ++I) {
    for (unsigned C = 0; C < NumOutputs; ++C) {
      size_t At = static_cast<size_t>(I) * NumOutputs + C;
      bool Produced = Present[At] != 0;
      OutputCount += Produced;
      unsigned S = OutSpec[Ids[C]];
      if (S != NoSpec)
        checkOutput(Ids[C], S, Start + I, Produced, Vals[At]);
    }
  }
  if (Echo)
    Echo->completeThrough(Start + Count);
}

//===----------------------------------------------------------------------===//
// TraceEnvironment
//===----------------------------------------------------------------------===//

TraceEnvironment::TraceEnvironment(TraceReader &Reader)
    : StreamEnvironment(Reader.spec()), Reader(Reader) {}

unsigned TraceEnvironment::prepare(unsigned Start, unsigned Want) {
  release(Start);
  while (!AtEnd && residentEnd() < Start + Want) {
    TraceFrame F = takeRecycledFrame();
    TraceFrameStatus St = Reader.nextFrame(F);
    if (St == TraceFrameStatus::Frame) {
      pushFrame(std::move(F));
      continue;
    }
    if (St == TraceFrameStatus::End)
      AtEnd = true;
    else
      return 0; // Reader.error() is positioned.
    break;
  }
  unsigned End = residentEnd();
  if (Start >= End)
    return 0;
  return std::min(Want, End - Start);
}
