//===--- CondDepGraph.h - Conditional dependency graph ----------*- C++-*-===//
///
/// \file
/// The conditional dependency graph of the paper's Section 2.5 (Table 2)
/// and its scheduling into a sequential step. Graph nodes are *actions*
/// (compute a clock's presence, read an input, evaluate a signal, update a
/// delay, emit an output); edges mean "must happen earlier in the step".
///
/// The Table-2 rows appear as:
///   Xi --x̂→ X          Func operand edges (value before value),
///   U --x̂→ X            when/default value edges,
///   C --ĉ→ [C], [¬C]    a literal clock needs the condition's value,
///   x̂ --x̂→ X            every signal needs its own clock's presence,
///   (ZX := X$1)          no value edge; instead a StoreDelay action at the
///                        end of the instant ordered after X and after the
///                        LoadDelay that reads the old state.
///
/// A dependency cycle makes the program causally incorrect and is
/// rejected. (The paper refines this with the clock labels — a cycle whose
/// label product is the null clock is harmless; this implementation keeps
/// the simpler conservative check and documents the difference.)
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_GRAPH_CONDDEPGRAPH_H
#define SIGNALC_GRAPH_CONDDEPGRAPH_H

#include "forest/ClockForest.h"
#include "sema/Kernel.h"
#include "support/Diagnostics.h"

#include <string>
#include <vector>

namespace sigc {

/// What one scheduled step action does.
enum class ActionKind {
  ClockInput,  ///< Read a free root clock's tick from the environment.
  ClockEval,   ///< Compute a derived/literal clock's presence.
  SignalInput, ///< Read an input signal's value (guarded by its clock).
  SignalEval,  ///< Evaluate a Func/When/Default equation.
  LoadDelay,   ///< Read the delay state into the target signal.
  StoreDelay,  ///< Write the delay source into the state (end of instant).
  WriteOutput, ///< Hand an output to the environment.
};

const char *actionKindName(ActionKind K);

/// One node of the dependency graph.
struct Action {
  ActionKind Kind = ActionKind::ClockEval;
  ForestNodeId Clock = InvalidForestNode; ///< Clock computed / guard clock.
  /// Clock the step code nests the action under (InvalidForestNode:
  /// unguarded). Clock inputs and derived clocks run unguarded, a literal
  /// clock under its condition's clock, everything else under Clock.
  ForestNodeId Guard = InvalidForestNode;
  SignalId Sig = InvalidSignal;           ///< Signal read/evaluated/output.
  int EqIndex = -1;                       ///< Kernel equation, if any.
};

/// The built graph plus its schedule.
class CondDepGraph {
public:
  /// Builds the graph for \p Prog whose clocks were resolved into
  /// \p Forest, then topologically sorts it, keeping actions under the
  /// same guard clock together (clock affinity).
  /// \returns false on a causality cycle (diagnosed).
  bool build(const KernelProgram &Prog, const ClockSystem &Sys,
             ClockForest &Forest, const StringInterner &Names,
             DiagnosticEngine &Diags);

  const std::vector<Action> &actions() const { return Actions; }
  /// Indices into actions() in a valid execution order.
  const std::vector<int> &schedule() const { return Schedule; }
  const std::vector<std::vector<int>> &successors() const { return Succs; }

  unsigned numEdges() const;

  /// Renders the scheduled actions (tests, -dump-graph).
  std::string dump(const KernelProgram &Prog, const StringInterner &Names,
                   ClockForest &Forest, const ClockSystem &Sys) const;

private:
  int addAction(const Action &A);
  void addEdge(int From, int To);

  std::vector<Action> Actions;
  std::vector<std::vector<int>> Succs;
  std::vector<int> Schedule;
};

} // namespace sigc

#endif // SIGNALC_GRAPH_CONDDEPGRAPH_H
