//===--- Environment.cpp --------------------------------------------------===//

#include "interp/Environment.h"

#include <atomic>
#include <cassert>

using namespace sigc;

Environment::~Environment() = default;

uint64_t Environment::nextIdentity() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

uint32_t
Environment::internBinding(std::vector<NamedBinding> &Table,
                           std::unordered_map<std::string, uint32_t> &Idx,
                           std::string_view Name, TypeKind Type) {
  auto It = Idx.find(std::string(Name));
  if (It != Idx.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Table.size());
  Table.push_back({std::string(Name), Type});
  Idx.emplace(Table.back().Name, Id);
  return Id;
}

EnvClockId Environment::resolveClock(std::string_view Name) {
  return internBinding(ClockB, ClockIdx, Name, TypeKind::Event);
}

EnvInputId Environment::resolveInput(std::string_view Name, TypeKind Type) {
  return internBinding(InputB, InputIdx, Name, Type);
}

EnvOutputId Environment::resolveOutput(std::string_view Name, TypeKind Type) {
  return internBinding(OutputB, OutputIdx, Name, Type);
}

void Environment::exchangeOutputs(unsigned Start, unsigned Count,
                                  unsigned NumOutputs, const EnvOutputId *Ids,
                                  const unsigned char *Present,
                                  const VmSlot *Vals) {
  // Instants outer, outputs inner (in the executor's emission order).
  for (unsigned I = 0; I < Count; ++I)
    for (unsigned O = 0; O < NumOutputs; ++O)
      if (Present[I * NumOutputs + O]) {
        const NamedBinding &B = OutputB[Ids[O]];
        Outputs.push_back(
            {Start + I, B.Name, fromSlot(Vals[I * NumOutputs + O], B.Type)});
      }
}

std::string sigc::formatEvents(const std::vector<OutputEvent> &Events) {
  std::string Out;
  for (const OutputEvent &E : Events)
    appendOutputLine(Out, E.Instant, E.Signal, toSlot(E.Val, E.Val.Kind),
                     E.Val.Kind);
  return Out;
}

//===----------------------------------------------------------------------===//
// RandomEnvironment
//===----------------------------------------------------------------------===//

uint64_t RandomEnvironment::draw(uint64_t NameSeed, unsigned Instant) {
  // splitmix64 over a combination of the per-name seed and the instant: a
  // pure function of its inputs, independent of query and binding order.
  uint64_t X =
      NameSeed ^ (static_cast<uint64_t>(Instant) * 0xbf58476d1ce4e5b9ull);
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

uint64_t RandomEnvironment::nameSeed(const char *Prefix,
                                     std::string_view Name) const {
  // Hashed exactly as the historical per-query formula did ("tick:" /
  // "val:" + name through std::hash), so traces are stable across the
  // slot-resolution rework; the hash now happens once per binding.
  std::string Key = Prefix + std::string(Name);
  return Seed ^ (std::hash<std::string>()(Key) * 0x9e3779b97f4a7c15ull);
}

EnvClockId RandomEnvironment::resolveClock(std::string_view Name) {
  EnvClockId Id = Environment::resolveClock(Name);
  if (Id >= ClockSeed.size())
    ClockSeed.resize(Id + 1, 0);
  ClockSeed[Id] = nameSeed("tick:", Name);
  return Id;
}

EnvInputId RandomEnvironment::resolveInput(std::string_view Name,
                                           TypeKind Type) {
  EnvInputId Id = Environment::resolveInput(Name, Type);
  if (Id >= InputSeed.size())
    InputSeed.resize(Id + 1, 0);
  InputSeed[Id] = nameSeed("val:", Name);
  return Id;
}

void RandomEnvironment::clockTicks(EnvClockId Clock, unsigned Start,
                                   unsigned Count, unsigned char *Out) {
  uint64_t S = ClockSeed[Clock];
  for (unsigned I = 0; I < Count; ++I)
    Out[I] = draw(S, Start + I) % 1000 < TickPermille ? 1 : 0;
}

void RandomEnvironment::inputValues(EnvInputId Input, unsigned Start,
                                    unsigned Count, VmSlot *Out) {
  uint64_t S = InputSeed[Input];
  switch (inputBindingType(Input)) {
  case TypeKind::Boolean:
    for (unsigned I = 0; I < Count; ++I)
      Out[I].I = draw(S, Start + I) % 2 == 0;
    return;
  case TypeKind::Event:
    for (unsigned I = 0; I < Count; ++I)
      Out[I].I = 1;
    return;
  case TypeKind::Integer: {
    uint64_t Span = static_cast<uint64_t>(IntHi - IntLo + 1);
    for (unsigned I = 0; I < Count; ++I)
      Out[I].I = IntLo + static_cast<int64_t>(draw(S, Start + I) % Span);
    return;
  }
  case TypeKind::Real:
    for (unsigned I = 0; I < Count; ++I)
      Out[I].R = static_cast<double>(draw(S, Start + I) % 10000) / 100.0;
    return;
  case TypeKind::Unknown:
    break;
  }
  for (unsigned I = 0; I < Count; ++I)
    Out[I].I = 0;
}

//===----------------------------------------------------------------------===//
// ScriptedEnvironment
//===----------------------------------------------------------------------===//

void ScriptedEnvironment::clockTicks(EnvClockId Clock, unsigned Start,
                                     unsigned Count, unsigned char *Out) {
  const std::string &Name = clockBindingName(Clock);
  for (unsigned I = 0; I < Count; ++I) {
    auto It = Ticks.find({Name, Start + I});
    Out[I] = (It != Ticks.end() ? It->second : AlwaysTick) ? 1 : 0;
  }
}

void ScriptedEnvironment::inputValues(EnvInputId Input, unsigned Start,
                                      unsigned Count, VmSlot *Out) {
  const std::string &Name = inputBindingName(Input);
  const TypeKind T = inputBindingType(Input);
  // Absent script entries default to neutral values (an event's is its
  // tick); tests that care set every queried value explicitly.
  const VmSlot Neutral{T == TypeKind::Event ? 1 : 0};
  for (unsigned I = 0; I < Count; ++I) {
    auto It = Values.find({Name, Start + I});
    Out[I] = It != Values.end() ? toSlot(It->second, T) : Neutral;
  }
}
