//===--- Environment.h - Reactive environment interface ---------*- C++-*-===//
///
/// \file
/// The execution environment of a compiled process. Per instant the
/// runtime asks the environment for
///   * the tick of every *free clock* exhibited by the clock calculus (the
///     paper's point in Section 3.3: free variables are inputs the
///     environment must provide),
///   * the value of every input signal — read only at the instants the
///     runtime establishes the signal is present,
/// and hands back the outputs produced in that instant.
///
/// The interface is split into a cold *binding* phase and a hot
/// *exchange* phase. An executor resolves every name it will ever ask
/// about exactly once (resolveClock/resolveInput/resolveOutput return
/// dense ids), and the exchange carries only those ids — no string
/// hashing, comparison or construction on the reactive step. The
/// exchange is windowed: ticks and inputs are fetched a column per
/// binding and window, outputs handed back a row per instant, and the
/// values cross as untagged VmSlots typed by the bindings' declared
/// types. Every engine crosses here, a window of one instant included
/// (KernelInterp, the VM's step()); tagged Values stay on the engine's
/// side of the boundary.
///
/// Two ready-made environments cover testing and benchmarking:
/// RandomEnvironment (deterministic PRNG) and ScriptedEnvironment (exact
/// per-instant values). Both record outputs for comparison.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_INTERP_ENVIRONMENT_H
#define SIGNALC_INTERP_ENVIRONMENT_H

#include "ast/Value.h"
#include "interp/Slot.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sigc {

/// Dense per-environment ids handed out by the binding phase. Each id
/// space is independent; ids are only meaningful for the environment that
/// issued them.
using EnvClockId = uint32_t;
using EnvInputId = uint32_t;
using EnvOutputId = uint32_t;
constexpr uint32_t InvalidEnvId = 0xFFFFFFFFu;

/// One recorded output occurrence.
struct OutputEvent {
  unsigned Instant = 0;
  std::string Signal;
  Value Val;

  bool operator==(const OutputEvent &RHS) const {
    return Instant == RHS.Instant && Signal == RHS.Signal && Val == RHS.Val;
  }
};

/// Renders a sequence of output events, one appendOutputLine() line per
/// event, each value by its own type (an executor's events carry their
/// output's declared type).
std::string formatEvents(const std::vector<OutputEvent> &Events);

/// The environment-side half of an executor's binding: the EnvIds of a
/// step program's descriptor tables, index-aligned with them.
struct StepBindings {
  std::vector<EnvClockId> Clocks;   ///< Per clock-input descriptor.
  std::vector<EnvInputId> Inputs;   ///< Per input descriptor.
  std::vector<EnvOutputId> Outputs; ///< Per output descriptor.
};

/// Resolves the ids of step descriptor tables against \p Env — the one
/// binding routine shared by every executor (StepProgram and
/// CompiledStep carry the same descriptor vector types).
template <typename ClockDescs, typename IODescs>
StepBindings resolveBindings(class Environment &Env, const ClockDescs &Clocks,
                             const IODescs &Inputs, const IODescs &Outputs);

/// Abstract environment; implementations decide presence and values.
/// Reference semantics: executors hold onto one and key their binding
/// caches on its identity(), so environments are neither copyable nor
/// movable.
class Environment {
public:
  Environment() = default;
  Environment(const Environment &) = delete;
  Environment &operator=(const Environment &) = delete;
  virtual ~Environment();

  //===--- Binding (cold path, once per executor-environment pair) --------===//

  /// Registers free clock \p Name; equal names share one id.
  virtual EnvClockId resolveClock(std::string_view Name);
  /// Registers input signal \p Name of \p Type; equal names share one id.
  virtual EnvInputId resolveInput(std::string_view Name, TypeKind Type);
  /// Registers output signal \p Name of \p Type; equal names share one id.
  virtual EnvOutputId resolveOutput(std::string_view Name, TypeKind Type);

  //===--- Exchange (hot path, once per window) ---------------------------===//
  //
  // An executor crosses the virtual environment boundary once per
  // descriptor per window, and the values cross as untagged VmSlots:
  // each input column and each output column is typed by the declared
  // type its binding was resolved with (inputBindingType/
  // outputBindingType), the type the step's native twin reads and
  // writes too; only the default output recording builds tagged Values.
  // Input fetches are unconditional over the window — an environment whose answers are
  // pure functions of (binding, instant), which the differential-testing
  // contract already requires, observes no difference between one
  // window and the same instants split into smaller ones.

  /// Fills Out[0..Count) with the ticks (0/1) of \p Clock at instants
  /// Start..Start+Count.
  virtual void clockTicks(EnvClockId Clock, unsigned Start, unsigned Count,
                          unsigned char *Out) = 0;

  /// Fills Out[0..Count) with the values of \p Input at instants
  /// Start..Start+Count, as slots of the binding's declared type.
  virtual void inputValues(EnvInputId Input, unsigned Start, unsigned Count,
                           VmSlot *Out) = 0;

  /// Delivers a window of outputs in one crossing. \p Present and \p Vals
  /// are row-major [instant][output] over \p NumOutputs outputs whose ids
  /// are \p Ids, listed in the executor's per-instant emission order;
  /// each value is a slot of its binding's declared type. The default
  /// records an OutputEvent per present cell, instant-major and in
  /// column order, its Value typed by the binding's declared type.
  virtual void exchangeOutputs(unsigned Start, unsigned Count,
                               unsigned NumOutputs, const EnvOutputId *Ids,
                               const unsigned char *Present,
                               const VmSlot *Vals);

  //===--- Binding-table introspection (adapters, executors) --------------===//

  unsigned numClockBindings() const {
    return static_cast<unsigned>(ClockB.size());
  }
  unsigned numInputBindings() const {
    return static_cast<unsigned>(InputB.size());
  }
  unsigned numOutputBindings() const {
    return static_cast<unsigned>(OutputB.size());
  }
  const std::string &clockBindingName(EnvClockId Id) const {
    return ClockB[Id].Name;
  }
  const std::string &inputBindingName(EnvInputId Id) const {
    return InputB[Id].Name;
  }
  TypeKind inputBindingType(EnvInputId Id) const { return InputB[Id].Type; }
  const std::string &outputBindingName(EnvOutputId Id) const {
    return OutputB[Id].Name;
  }
  TypeKind outputBindingType(EnvOutputId Id) const { return OutputB[Id].Type; }

  const std::vector<OutputEvent> &outputs() const { return Outputs; }
  void clearOutputs() { Outputs.clear(); }

  /// Unique per-instance identity. Executors key their lazy binding
  /// caches on this, not on the address: a new environment constructed
  /// where a destroyed one lived must not look like the bound one.
  uint64_t identity() const { return Identity; }

private:
  static uint64_t nextIdentity();

  const uint64_t Identity = nextIdentity();

  struct NamedBinding {
    std::string Name;
    TypeKind Type = TypeKind::Unknown;
  };

  /// Interns \p Name into \p Table, deduplicating by spelling.
  static uint32_t internBinding(std::vector<NamedBinding> &Table,
                                std::unordered_map<std::string, uint32_t> &Idx,
                                std::string_view Name, TypeKind Type);

  std::vector<NamedBinding> ClockB, InputB, OutputB;
  std::unordered_map<std::string, uint32_t> ClockIdx, InputIdx, OutputIdx;
  std::vector<OutputEvent> Outputs;
};

template <typename ClockDescs, typename IODescs>
StepBindings resolveBindings(Environment &Env, const ClockDescs &Clocks,
                             const IODescs &Inputs, const IODescs &Outputs) {
  StepBindings B;
  B.Clocks.reserve(Clocks.size());
  for (const auto &CI : Clocks)
    B.Clocks.push_back(Env.resolveClock(CI.Name));
  B.Inputs.reserve(Inputs.size());
  for (const auto &SI : Inputs)
    B.Inputs.push_back(Env.resolveInput(SI.Name, SI.Type));
  B.Outputs.reserve(Outputs.size());
  for (const auto &SO : Outputs)
    B.Outputs.push_back(Env.resolveOutput(SO.Name, SO.Type));
  return B;
}

/// Deterministic pseudo-random environment: every free clock ticks with
/// probability TickPermille/1000, values are drawn uniformly.
///
/// Each answer is a pure function of (seed, name, instant) — *not* of the
/// query order or the binding order — so the fixpoint interpreter and the
/// compiled-step executors, which interrogate the environment in
/// different orders and bind different id spaces, observe the same
/// trace. This is what makes differential testing sound. The per-name
/// hash is computed once at binding time; the hot path is pure integer
/// mixing.
class RandomEnvironment : public Environment {
public:
  explicit RandomEnvironment(uint64_t Seed, unsigned TickPermille = 800)
      : Seed(Seed), TickPermille(TickPermille) {}

  EnvClockId resolveClock(std::string_view Name) override;
  EnvInputId resolveInput(std::string_view Name, TypeKind Type) override;

  /// One virtual dispatch, then pure integer mixing straight into the
  /// tick and slot columns.
  void clockTicks(EnvClockId Clock, unsigned Start, unsigned Count,
                  unsigned char *Out) override;
  void inputValues(EnvInputId Input, unsigned Start, unsigned Count,
                   VmSlot *Out) override;

  void setIntRange(int64_t Lo, int64_t Hi) {
    IntLo = Lo;
    IntHi = Hi;
  }

private:
  /// splitmix64 over the precomputed per-name seed and the instant.
  static uint64_t draw(uint64_t NameSeed, unsigned Instant);
  /// The per-name seed: seed ^ hash(prefix + name) * phi, fixed at bind.
  uint64_t nameSeed(const char *Prefix, std::string_view Name) const;

  uint64_t Seed;
  unsigned TickPermille;
  int64_t IntLo = 0, IntHi = 99;
  std::vector<uint64_t> ClockSeed; ///< Indexed by EnvClockId.
  std::vector<uint64_t> InputSeed; ///< Indexed by EnvInputId.
};

/// Scripted environment: exact presence and values per instant. The
/// scripting API is name-keyed (tests read best that way); queries go
/// through the bound name, so this environment is not allocation-free —
/// it is for tests, not benchmarks. A scripted value crosses as the slot
/// of the binding's declared type (an integer scripted for a real input
/// arrives widened); an unscripted cell does not tick and holds the
/// type's neutral value (false, 0, 0.0; an event's tick).
class ScriptedEnvironment : public Environment {
public:
  /// Makes \p ClockName tick at \p Instant.
  void tick(const std::string &ClockName, unsigned Instant) {
    Ticks[{ClockName, Instant}] = true;
  }
  /// Makes every queried clock tick at every instant.
  void tickAlways(bool On = true) { AlwaysTick = On; }

  /// Sets the value of \p SignalName at \p Instant.
  void set(const std::string &SignalName, unsigned Instant, Value V) {
    Values[{SignalName, Instant}] = V;
  }

  void clockTicks(EnvClockId Clock, unsigned Start, unsigned Count,
                  unsigned char *Out) override;
  void inputValues(EnvInputId Input, unsigned Start, unsigned Count,
                   VmSlot *Out) override;

private:
  std::map<std::pair<std::string, unsigned>, bool> Ticks;
  std::map<std::pair<std::string, unsigned>, Value> Values;
  bool AlwaysTick = false;
};

} // namespace sigc

#endif // SIGNALC_INTERP_ENVIRONMENT_H
