//===--- Budget.h - Resource budgets for solver runs ------------*- C++-*-===//
///
/// \file
/// Models the resource limits of the paper's experiment (Figure 13): a CPU
/// time limit ("unable-cpu": 40 minutes in the paper) and a memory limit
/// ("unable-mem": 200 MB in the paper, expressed here as a BDD node budget).
/// Solvers poll a Budget while working and abort with the matching verdict
/// when a limit is exceeded.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_SUPPORT_BUDGET_H
#define SIGNALC_SUPPORT_BUDGET_H

#include <chrono>
#include <cstdint>
#include <string>

namespace sigc {

/// Outcome of a resource-bounded computation, mirroring the verdicts of the
/// paper's Figure 13.
enum class BudgetVerdict {
  Ok,        ///< Finished within limits.
  UnableCpu, ///< "unable-cpu": exceeded the wall-clock budget.
  UnableMem, ///< "unable-mem": exceeded the node/memory budget.
};

/// \returns the Figure-13 spelling of \p V ("ok" / "unable-cpu" /
/// "unable-mem").
const char *budgetVerdictName(BudgetVerdict V);

/// A wall-clock + node-count budget that long-running solver loops poll.
///
/// A default-constructed Budget is unlimited. The node budget is checked by
/// whoever allocates (the BDD manager); the time budget is checked via
/// checkTime() at operation boundaries.
class Budget {
public:
  Budget() = default;

  /// Creates a budget of \p Millis wall-clock milliseconds and \p MaxNodes
  /// allocated BDD nodes; 0 means unlimited for either.
  Budget(uint64_t Millis, uint64_t MaxNodes)
      : TimeLimitMs(Millis), NodeLimit(MaxNodes) {}

  /// Starts (or restarts) the wall clock.
  void start();

  /// \returns elapsed milliseconds since start().
  uint64_t elapsedMs() const;

  /// \returns false once the time budget is exhausted (sticky).
  bool checkTime();

  /// Records that \p Nodes nodes are now allocated (a BDD manager frees
  /// none); \returns false once over budget (sticky).
  bool checkNodes(uint64_t Nodes);

  /// \returns the final verdict; Ok unless some limit tripped.
  BudgetVerdict verdict() const { return Verdict; }
  bool exhausted() const { return Verdict != BudgetVerdict::Ok; }

  uint64_t timeLimitMs() const { return TimeLimitMs; }

private:
  using Clock = std::chrono::steady_clock;

  uint64_t TimeLimitMs = 0; ///< 0 = unlimited.
  uint64_t NodeLimit = 0;   ///< 0 = unlimited.
  Clock::time_point Start = Clock::now();
  BudgetVerdict Verdict = BudgetVerdict::Ok;
};

} // namespace sigc

#endif // SIGNALC_SUPPORT_BUDGET_H
