//===--- quickstart.cpp - First contact with the signalc library ----------===//
///
/// Compiles a small SIGNAL process from a string, walks through every
/// artifact the pipeline produces (kernel equations, boolean clock system,
/// resolved clock forest, flat and nested step bytecode, generated C),
/// then runs a short simulation. Start here.
///
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "driver/Driver.h"
#include "interp/VmExecutor.h"

#include <cstdio>

using namespace sigc;

int main() {
  // A rate divider: every other occurrence of IN is accumulated.
  const char *Source = R"(
% HALF: accumulate every other occurrence of IN.
process HALF =
  ( ? integer IN;
    ! integer OUT; )
  (| EVENFLAG := (IN mod 2) = 0        % a condition on IN's clock
   | SAMPLED := IN when EVENFLAG       % present only when the flag is true
   | PREV := OUT $ 1 init 0            % the accumulator's memory
   | OUT := SAMPLED + PREV             % all three share OUT's clock
  |)
  where
    boolean EVENFLAG;
    integer SAMPLED, PREV;
  end;
)";

  auto C = compileSource("quickstart.sig", Source);
  if (!C->Ok) {
    std::fprintf(stderr, "compilation failed (%s):\n%s",
                 C->failedStageName(), C->Diags.render().c_str());
    return 1;
  }

  std::printf("== 1. kernel equations (after lowering) ==\n%s\n",
              C->Kernel->dump(C->names()).c_str());
  std::printf("== 2. boolean clock system (Table 1 of the paper) ==\n%s\n",
              C->Clocks.dump(*C->Kernel, C->names()).c_str());
  std::printf("== 3. resolved clock forest ==\n%s\n",
              C->Forest->dump(C->Clocks, *C->Kernel, C->names()).c_str());
  std::printf("== 4. step bytecode, flat lowering (every instruction tests "
              "its own guard) ==\n%s\n",
              CompiledStep::build(C->Step, GuardLowering::Flat)
                  .dump()
                  .c_str());
  std::printf("== 5. step bytecode, nested lowering (the single lowered "
              "IR) ==\n%s\n",
              C->Compiled.dump().c_str());

  CEmitOptions Options;
  std::printf("== 6. generated C (lowered from the bytecode) ==\n%s\n",
              emitC(C->Compiled, "half", Options).c_str());

  std::printf("== 7. simulation ==\n");
  // IN = 1, 2, 3, ..., 8 on every instant; only even values accumulate.
  ScriptedEnvironment Env;
  Env.tickAlways();
  for (unsigned I = 0; I < 8; ++I)
    Env.set("IN", I, Value::makeInt(static_cast<int>(I) + 1));
  VmExecutor Exec(C->Compiled);
  Exec.run(Env, 8);
  std::printf("%s", formatEvents(Env.outputs()).c_str());
  std::printf("(OUT fires at instants with even IN: 2, 2+4=6, 6+6=12, "
              "12+8=20)\n");
  return 0;
}
