//===--- fleet_test.cpp - Fleet-vs-scalar identity pins -------------------===//
///
/// A fleet run (`signalc --simulate N --fleet M --threads T`) is M
/// independent scalar runs of one CompiledStep, sharded over T threads.
/// Its contract is *bit-identical observable behaviour* per instance:
/// every instance's trace is exactly the trace a lone VmExecutor
/// produces for that instance's environment, and the fleet's
/// guard/executed counters are the sums of the per-instance counters —
/// for every thread count and every batching window. These tests pin
/// that contract over the Figure-13 builtins and generated programs.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/VmExecutor.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

using namespace sigc;
using namespace sigc::test;

namespace {

struct ScalarRef {
  std::string Trace;
  uint64_t GuardTests = 0;
  uint64_t Executed = 0;
};

/// The scalar reference: one VmExecutor, one environment, unbatched.
ScalarRef scalarRun(const CompiledStep &CS, uint64_t Seed, unsigned Instants) {
  VmExecutor Exec(CS);
  RandomEnvironment Env(Seed);
  Exec.run(Env, Instants);
  return {formatEvents(Env.outputs()), Exec.guardTests(), Exec.executed()};
}

/// Pins a fleet run of \p Instances instances against per-instance
/// scalar references: traces per instance, counters as the sum.
void expectFleetMatchesScalar(const CompiledStep &CS, unsigned Instances,
                              unsigned Instants, uint64_t BaseSeed,
                              unsigned Batch, unsigned Threads,
                              const std::string &What) {
  FleetRun F(CS, Instances, BaseSeed, Instants, Batch, Threads);
  uint64_t SumGuards = 0, SumExecuted = 0;
  for (unsigned J = 0; J < Instances; ++J) {
    ScalarRef Ref = scalarRun(CS, FleetRun::seed(BaseSeed, J), Instants);
    EXPECT_EQ(formatEvents(F.Owned[J]->outputs()), Ref.Trace)
        << What << ": instance " << J << " diverged (batch " << Batch
        << ", threads " << Threads << ")";
    SumGuards += Ref.GuardTests;
    SumExecuted += Ref.Executed;
  }
  EXPECT_EQ(F.Totals.GuardTests, SumGuards)
      << What << ": guard tests must sum per instance";
  EXPECT_EQ(F.Totals.Executed, SumExecuted)
      << What << ": executed count must sum per instance";
  EXPECT_EQ(F.Totals.VmInstants + F.Totals.NativeInstants, 0u)
      << What << ": an untiered run reports no tier split";
}

} // namespace

TEST(Fleet, MatchesScalarAcrossFigure13Suite) {
  for (const Figure13Program &P : figure13Suite()) {
    auto C = compileOk(P.Source);
    if (!C->Ok)
      continue;
    expectFleetMatchesScalar(C->Compiled, 5, 40, 0xF13 + P.PaperVariables,
                             /*Batch=*/4, /*Threads=*/2, P.Name);
  }
}

TEST(Fleet, ThreadCountDoesNotChangeTheTrace) {
  // Shards own disjoint instance ranges, executors and counters; the
  // only post-join step is a deterministic fold. 1, 2 and 5 threads, and
  // more threads than instances, must be observationally identical (and
  // identical to scalar).
  ProgramShape Shape;
  Shape.DividerStages = 8;
  Shape.GridA = 2;
  Shape.GridB = 2;
  auto C = compileOk(generateProgram("FLEET_THREADED", Shape));
  for (unsigned Threads : {1u, 2u, 5u, 16u})
    expectFleetMatchesScalar(C->Compiled, 13, 48, 99, /*Batch=*/0, Threads,
                             "FLEET_THREADED");
}

TEST(Fleet, WindowedRunsMatchOneWindow) {
  // Delay state is the only carrier across windows; windowed execution
  // (many stepN calls) must equal the unbatched run and the scalar run.
  auto C = compileOk(proc("? integer A; ! integer SUM;",
                          "   SUM := A + (SUM$ init 0)"));
  FleetRun Windowed(C->Compiled, 6, 555, 60, /*Batch=*/7, /*Threads=*/2);
  FleetRun Single(C->Compiled, 6, 555, 60, /*Batch=*/0, /*Threads=*/2);
  for (unsigned J = 0; J < 6; ++J) {
    std::string Trace = formatEvents(Windowed.Owned[J]->outputs());
    EXPECT_EQ(Trace, formatEvents(Single.Owned[J]->outputs()))
        << "instance " << J;
    ScalarRef Ref = scalarRun(C->Compiled, FleetRun::seed(555, J), 60);
    EXPECT_EQ(Trace, Ref.Trace) << "instance " << J;
  }
  EXPECT_EQ(Windowed.Totals.GuardTests, Single.Totals.GuardTests);
  EXPECT_EQ(Windowed.Totals.Executed, Single.Totals.Executed);
}

TEST(Fleet, ResetRestoresInitialDelayState) {
  // One thread runs every instance on the same executor: each instance
  // must start from the initial delay state, not from where the previous
  // instance left the accumulator.
  auto C = compileOk(proc("? integer A; ! integer SUM;",
                          "   SUM := A + (SUM$ init 0)"));
  expectFleetMatchesScalar(C->Compiled, 3, 20, 31, /*Batch=*/0,
                           /*Threads=*/1, "SUM");
}

TEST(Fleet, SingleInstanceFleetIsAScalarRun) {
  // Degenerate fleet: one instance on more threads than instances. A
  // fleet of one is indistinguishable from the VM.
  auto C = compileOk(alarmFigure5Source());
  expectFleetMatchesScalar(C->Compiled, 1, 80, 8, /*Batch=*/0,
                           /*Threads=*/4, "FIG5_ALARM[1]");
}
