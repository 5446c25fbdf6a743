//===--- Simulation.cpp ---------------------------------------------------===//

#include "driver/Simulation.h"

#include "interp/VmExecutor.h"

#include <algorithm>
#include <atomic>
#include <future>

using namespace sigc;

void TextEnvironment::exchangeOutputs(unsigned Start, unsigned Count,
                                      unsigned NumOutputs,
                                      const EnvOutputId *Ids,
                                      const unsigned char *Present,
                                      const VmSlot *Vals) {
  for (unsigned I = 0; I < Count; ++I)
    for (unsigned O = 0; O < NumOutputs; ++O) {
      size_t At = static_cast<size_t>(I) * NumOutputs + O;
      if (Present[At])
        appendOutputLine(Text, Start + I, outputBindingName(Ids[O]), Vals[At],
                         outputBindingType(Ids[O]));
    }
}

namespace {

/// Shares the native module among a run's threads: the polling thread
/// asks the controller, the others read what it published.
class TierGate {
public:
  explicit TierGate(const TierController *TC) : TC(TC) { poll(); }

  bool enabled() const { return TC != nullptr; }

  /// Publishes the module once the controller has loaded it.
  void poll() {
    if (TC && !Published)
      Published = TC->module();
  }

  /// The module an instance at instant \p At swaps onto, or null.
  const NativeModule *promotion(unsigned At) const {
    return TC && At >= TC->tierAfter() ? Published.load() : nullptr;
  }

private:
  const TierController *TC;
  std::atomic<const NativeModule *> Published{nullptr};
};

/// Runs instances [First, End) one after another on this thread's
/// executors, each in stepN windows.
SimulationTotals runShard(const CompiledStep &CS,
                          const std::vector<Environment *> &Envs,
                          unsigned First, unsigned End, unsigned Instants,
                          unsigned Batch, TierGate &Gate, bool Polls) {
  SimulationTotals T;
  VmExecutor Vm(CS);
  const unsigned Window = Batch > 1 ? Batch : UnbatchedWindow;
  for (unsigned J = First; J < End; ++J) {
    Environment &Env = *Envs[J];
    Vm.setNative(nullptr);
    Vm.reset();
    Vm.resetCounters();
    for (unsigned At = 0; At < Instants;) {
      if (Polls)
        Gate.poll();
      if (!Vm.native())
        Vm.setNative(Gate.promotion(At));
      unsigned N = Vm.stepN(Env, At, std::min(Window, Instants - At));
      if (Gate.enabled())
        (Vm.native() ? T.NativeInstants : T.VmInstants) += N;
      At += N;
      if (Vm.checkFailure()) {
        T.Stops.push_back({J, Vm.checkFailure()});
        break;
      }
    }
    T.Executed += Vm.executed();
    T.GuardTests += Vm.guardTests();
  }
  return T;
}

} // namespace

unsigned sigc::fleetShards(unsigned Threads, unsigned Instances) {
  return std::max(1u, std::min(std::max(Threads, 1u), Instances));
}

SimulationTotals sigc::simulateFleet(const CompiledStep &CS,
                                     const std::vector<Environment *> &Envs,
                                     unsigned Instants, unsigned Batch,
                                     unsigned Threads,
                                     const TierController *Tier) {
  const unsigned Instances = static_cast<unsigned>(Envs.size());
  const unsigned Shards = fleetShards(Threads, Instances);
  TierGate Gate(Tier);
  // Contiguous shards, the first Instances % Shards one instance longer.
  auto First = [&](unsigned S) {
    return S * (Instances / Shards) + std::min(S, Instances % Shards);
  };
  // A std::async future joins its thread when destroyed, on every path.
  std::vector<std::future<SimulationTotals>> Workers;
  for (unsigned S = 1; S < Shards; ++S)
    Workers.push_back(std::async(std::launch::async, [&, S] {
      return runShard(CS, Envs, First(S), First(S + 1), Instants, Batch, Gate,
                      /*Polls=*/false);
    }));
  std::vector<SimulationTotals> Totals;
  Totals.push_back(runShard(CS, Envs, First(0), First(1), Instants, Batch,
                            Gate, /*Polls=*/true));
  for (std::future<SimulationTotals> &W : Workers)
    Totals.push_back(W.get());

  SimulationTotals Sum;
  for (const SimulationTotals &T : Totals) {
    Sum.Executed += T.Executed;
    Sum.GuardTests += T.GuardTests;
    Sum.VmInstants += T.VmInstants;
    Sum.NativeInstants += T.NativeInstants;
    Sum.Stops.insert(Sum.Stops.end(), T.Stops.begin(), T.Stops.end());
  }
  return Sum;
}
