//===--- Simulation.h - Scalar and fleet --simulate runs --------*- C++-*-===//
///
/// \file
/// The run loop behind `signalc --simulate`, for one instance or a fleet.
/// A fleet of N instances is N independent scalar runs of one
/// CompiledStep: instance j runs exactly the loop a scalar run of its
/// environment runs, so its trace and counters are that run's. Instances
/// are sharded contiguously over the worker threads, which are spawned
/// once per run; each thread owns its executors and reuses them from one
/// instance to the next, and the counters are summed after the join.
///
/// Every instance runs in stepN windows of the batch size
/// (UnbatchedWindow when unbatched); traces and counters do not depend
/// on the window, which only decides how often the environment boundary
/// is crossed.
/// An instance whose step fails a clock check (a linked system's
/// dynamic channel check) stops after that instant, as an unbatched run
/// would; the others run on.
/// With a tier controller each instance starts on the VM and, once the
/// native module is loaded, attaches it at its first window boundary at
/// or past the controller's warm-up threshold; both tiers run on the
/// VM's one state block, so nothing is copied. Only the calling thread
/// polls the controller; it publishes the loaded module to the other
/// threads.
///
/// TextEnvironment is the CLI's environment: it renders every flushed
/// output row straight into text, so a --simulate run builds its stdout
/// without recording a single OutputEvent.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_DRIVER_SIMULATION_H
#define SIGNALC_DRIVER_SIMULATION_H

#include "interp/CompiledStep.h"
#include "interp/Environment.h"
#include "native/TierController.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sigc {

/// A RandomEnvironment that streams its outputs as text instead of
/// recording OutputEvents: each output becomes one appendOutputLine()
/// line, its value rendered by the binding's declared type. The text is
/// exactly formatEvents() over the events a plain RandomEnvironment of
/// the same seed records.
class TextEnvironment : public RandomEnvironment {
public:
  using RandomEnvironment::RandomEnvironment;

  void exchangeOutputs(unsigned Start, unsigned Count, unsigned NumOutputs,
                       const EnvOutputId *Ids, const unsigned char *Present,
                       const VmSlot *Vals) override;

  /// The output lines so far.
  const std::string &text() const { return Text; }

private:
  std::string Text;
};

/// Counters of a run, summed over its instances.
struct SimulationTotals {
  uint64_t Executed = 0;
  uint64_t GuardTests = 0;
  uint64_t VmInstants = 0;     ///< Instants run on the VM (tiered runs).
  uint64_t NativeInstants = 0; ///< Instants run natively (tiered runs).
  /// Instances stopped by a failed clock check, in instance order.
  std::vector<std::pair<unsigned, ClockCheckFailure>> Stops;
};

/// The threads a fleet of \p Instances runs on when \p Threads are
/// asked for: at least one, and no more than one per instance.
unsigned fleetShards(unsigned Threads, unsigned Instances);

/// Runs \p Instants instants of \p CS against each of \p Envs (one
/// instance per environment) on fleetShards(\p Threads) threads.
/// \p Batch > 1 runs stepN windows of that many instants. \p Tier, when
/// non-null, must be started; the run then promotes instances to its
/// native module (see the file comment). The caller folds the per-tier
/// counts into the controller's statistics.
SimulationTotals simulateFleet(const CompiledStep &CS,
                               const std::vector<Environment *> &Envs,
                               unsigned Instants, unsigned Batch,
                               unsigned Threads,
                               const TierController *Tier = nullptr);

} // namespace sigc

#endif // SIGNALC_DRIVER_SIMULATION_H
