//===--- KernelInterp.h - Reference fixpoint interpreter --------*- C++-*-===//
///
/// \file
/// A reference interpreter of kernel programs that is deliberately
/// *independent of the scheduler and code generator*: each instant it
/// solves presence and values by chaotic fixpoint iteration over the
/// equations instead of following a precomputed order. Differential tests
/// run it against the compiled step on random traces — any divergence
/// means the dependency graph, the schedule or the emitted step is wrong.
///
/// Clock presence still comes from the resolved forest (free roots are
/// environment ticks, exactly as in generated code), because presence is
/// the clock calculus' *output*; what this interpreter does not reuse is
/// the instruction order.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_INTERP_KERNELINTERP_H
#define SIGNALC_INTERP_KERNELINTERP_H

#include "clock/ClockSystem.h"
#include "forest/ClockForest.h"
#include "interp/Environment.h"
#include "sema/Kernel.h"

#include <vector>

namespace sigc {

/// Fixpoint interpreter for one kernel program.
class KernelInterp {
public:
  KernelInterp(const KernelProgram &Prog, const ClockSystem &Sys,
               ClockForest &Forest, const StringInterner &Names);

  /// Re-initializes delay memories.
  void reset();

  /// Runs one instant. \returns false if the fixpoint got stuck (a
  /// causality problem the graph phase should have rejected).
  bool step(Environment &Env, unsigned Instant);

  /// Runs \p Count instants; \returns false on the first stuck instant.
  bool run(Environment &Env, unsigned Count);

  /// Post-step inspection for tests.
  bool signalPresent(SignalId S) const { return Present[S]; }
  const Value &signalValue(SignalId S) const { return Values[S]; }

private:
  /// Resolves environment ids for the roots, free signals and outputs.
  /// Called lazily whenever the environment instance changes; the hot
  /// fixpoint loop then queries by id only (no per-instant name builds),
  /// each query a one-instant window of the environment's exchange.
  void bind(Environment &Env);

  const KernelProgram &Prog;
  const ClockSystem &Sys;
  ClockForest &Forest;
  const StringInterner &Names;

  std::vector<ForestNodeId> NodeOrder;     ///< All alive forest nodes.
  std::vector<int> SignalNode;             ///< Signal -> forest node (-1 null).
  std::vector<Value> DelayState;           ///< Per delay equation.
  std::vector<int> DelayEqIndex;           ///< Delay equations, in order.
  std::vector<int> DelayEqOfSignal;        ///< Signal -> delay index (-1).

  uint64_t BoundIdentity = 0;              ///< identity() of the bound env.
  std::vector<EnvClockId> RootClock;       ///< Forest node -> env clock id.
  std::vector<EnvInputId> InputId;         ///< Free signal -> env input id.
  std::vector<EnvOutputId> OutputRow;      ///< Per Prog.outputs() entry.

  // Per-instant scratch.
  std::vector<char> ClockKnown, ClockOn;   ///< Indexed by forest node id.
  std::vector<char> ValueKnown;            ///< Indexed by signal.
  std::vector<char> Present;
  std::vector<Value> Values;
  std::vector<unsigned char> OutPresent;   ///< The instant's output row.
  std::vector<VmSlot> OutVals;
};

} // namespace sigc

#endif // SIGNALC_INTERP_KERNELINTERP_H
