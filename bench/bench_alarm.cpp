//===--- bench_alarm.cpp - The worked example of Section 3.3 --------------===//
///
/// Reproduces the paper's PROCESS_ALARM walk-through end to end:
///   * compiles the Figure-5 source,
///   * shows that the cyclic equation ĉ = [D] ∨ [C1] ∨ ĉ is discharged by
///     inclusion rewriting (VerifiedEquations ≥ 1),
///   * shows the Figure-7 hierarchy and the exhibited free variable ĉ,
///   * then measures the run-time effect of the clock-tree nesting on a
///     long random simulation (guard tests + wall time of the VM running
///     the nested vs the flat lowering).
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "interp/VmExecutor.h"
#include "programs/Programs.h"

#include <chrono>
#include <cstdio>

using namespace sigc;

int main() {
  auto C = compileSource("FIG5_ALARM", alarmFigure5Source());
  if (!C->Ok) {
    std::fprintf(stderr, "ALARM failed to compile:\n%s",
                 C->Diags.render().c_str());
    return 1;
  }

  std::printf("PROCESS_ALARM (paper Figure 5) — clock calculus results\n\n");
  std::printf("clock variables: %u, classes alive: %zu, free clocks: %zu\n",
              C->Clocks.numVars(), C->Forest->dfsOrder().size(),
              C->Forest->freeClocks().size());
  std::printf("equations discharged by rewriting: %u (the paper's "
              "ĉ = [D] v [C1] v ĉ example)\n",
              C->Forest->stats().VerifiedEquations);
  std::printf("\nclock hierarchy (paper Figure 7):\n%s\n",
              C->Forest->dump(C->Clocks, *C->Kernel, C->names()).c_str());

  constexpr unsigned Steps = 200000;
  const CompiledStep Lowered[2] = {
      CompiledStep::build(C->Step, GuardLowering::Flat),
      C->Compiled};
  for (unsigned Permille : {900, 500, 100}) {
    double Times[2];
    uint64_t Guards[2];
    for (int ModeIdx = 0; ModeIdx < 2; ++ModeIdx) {
      VmExecutor Exec(Lowered[ModeIdx]);
      RandomEnvironment Env(7, Permille);
      auto T0 = std::chrono::steady_clock::now();
      Exec.run(Env, Steps);
      auto T1 = std::chrono::steady_clock::now();
      Times[ModeIdx] =
          std::chrono::duration<double, std::milli>(T1 - T0).count();
      Guards[ModeIdx] = Exec.guardTests();
    }
    std::printf("tick density %3u/1000: flat %8.2f ms (%llu guard tests), "
                "nested %8.2f ms (%llu guard tests), speedup %.2fx\n",
                Permille, Times[0],
                static_cast<unsigned long long>(Guards[0]), Times[1],
                static_cast<unsigned long long>(Guards[1]),
                Times[0] / Times[1]);
  }
  return 0;
}
