//===--- bench_nesting.cpp - Figure 9 ablation: nested vs flat guards -----===//
///
/// The paper (Section 3.4, "Code optimization", Figure 9) credits the
/// nesting of if-then-else control structures along the clock inclusion
/// tree with making generated code up to 300 % faster. This benchmark
/// runs the *same* scheduled step program in both control structures —
/// its flat and its nested lowering, on the one VM — over random traces
/// and sweeps
///
///   * the depth of the divider chain (deeper tree = more skippable work),
///   * the tick density of the root clock (sparser = more skipping).
///
/// Expected shape: nested is never slower and approaches the paper's
/// multiple-× speedup on deep trees with sparse activity.
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "interp/VmExecutor.h"
#include "programs/Programs.h"

#include <benchmark/benchmark.h>

using namespace sigc;

namespace {

std::unique_ptr<Compilation> compileChain(unsigned Stages) {
  ProgramShape Shape;
  Shape.DividerStages = Stages;
  auto C = compileSource("chain", generateProgram("CHAIN", Shape));
  if (!C->Ok)
    std::abort();
  return C;
}

void runBench(benchmark::State &State, GuardLowering L) {
  unsigned Stages = static_cast<unsigned>(State.range(0));
  unsigned TickPermille = static_cast<unsigned>(State.range(1));
  auto C = compileChain(Stages);
  CompiledStep CS = CompiledStep::build(C->Step, L);
  VmExecutor Exec(CS);
  RandomEnvironment Env(42, TickPermille);

  unsigned Instant = 0;
  for (auto _ : State) {
    Exec.step(Env, Instant++);
    benchmark::DoNotOptimize(Instant);
  }
  State.counters["guard_tests_per_step"] = benchmark::Counter(
      static_cast<double>(Exec.guardTests()),
      benchmark::Counter::kAvgIterations);
}

void BM_StepFlat(benchmark::State &State) {
  runBench(State, GuardLowering::Flat);
}

void BM_StepNested(benchmark::State &State) {
  runBench(State, GuardLowering::Nested);
}

void sweep(benchmark::internal::Benchmark *B) {
  for (int Stages : {4, 16, 48})
    for (int Permille : {1000, 500, 100, 25})
      B->Args({Stages, Permille});
}

} // namespace

BENCHMARK(BM_StepFlat)->Apply(sweep);
BENCHMARK(BM_StepNested)->Apply(sweep);

BENCHMARK_MAIN();
