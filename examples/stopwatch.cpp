//===--- stopwatch.cpp - A button-driven chronometer ----------------------===//
///
/// A hand-written stopwatch in the style the paper's evaluation programs
/// hint at: a RUNNING mode toggled by START_STOP, a centisecond counter
/// that only advances while running, and a LAP display frozen with the
/// derived "cell" operator. Demonstrates mode automata, oversampling
/// control and the memorizing cell on a real(istic) device.
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "interp/VmExecutor.h"

#include <cstdio>

using namespace sigc;

int main() {
  const char *Source = R"(
% STOPWATCH: TICK is the time base; START_STOP and LAP are buttons
% (booleans sampled on the time base).
process STOPWATCH =
  ( ? integer TICK; boolean START_STOP, LAP;
    ! integer TIME, LAPTIME; )
  (| synchro {TICK, START_STOP, LAP}
   | RUNNING := (not RUNPREV when START_STOP) default RUNPREV
   | RUNPREV := RUNNING $ 1 init false
   | CNT := (CNTPREV + 1) when RUNNING
   | CNTPREV := (CNT default CNTPREV2) $ 1 init 0
   | CNTPREV2 := CNTPREV
   | TIME := CNT
   | LAPTIME := CNT cell LAPHOLD init 0
   | LAPHOLD := LAP
  |)
  where
    boolean RUNNING, RUNPREV, LAPHOLD;
    integer CNT, CNTPREV, CNTPREV2;
  end;
)";

  auto C = compileSource("stopwatch.sig", Source);
  if (!C->Ok) {
    std::fprintf(stderr, "compilation failed (%s):\n%s",
                 C->failedStageName(), C->Diags.render().c_str());
    return 1;
  }
  std::printf("STOPWATCH compiled: %u clock variables resolved into %zu "
              "classes, %zu free clock(s)\n\n",
              C->Clocks.numVars(), C->Forest->dfsOrder().size(),
              C->Forest->freeClocks().size());

  // Scenario: start at 1, stop at 6, query LAP at 7 (while stopped!),
  // restart at 8.
  ScriptedEnvironment Env;
  Env.tickAlways();
  for (unsigned I = 0; I < 10; ++I) {
    Env.set("TICK", I, Value::makeInt(static_cast<int>(I)));
    Env.set("START_STOP", I, Value::makeBool(I == 1 || I == 6 || I == 8));
    Env.set("LAP", I, Value::makeBool(I == 7));
  }

  VmExecutor Exec(C->Compiled);
  std::printf("instant | events\n--------+---------------------------\n");
  for (unsigned I = 0; I < 10; ++I) {
    size_t Before = Env.outputs().size();
    Exec.step(Env, I);
    std::printf("   %2u   |", I);
    for (size_t K = Before; K < Env.outputs().size(); ++K)
      std::printf(" %s=%s", Env.outputs()[K].Signal.c_str(),
                  Env.outputs()[K].Val.str().c_str());
    std::printf("\n");
  }
  std::printf("\nTIME advances only while running. At instant 7 the watch "
              "is stopped — TIME is\nabsent — yet pressing LAP shows the "
              "memorized count: the 'cell' operator keeps\nthe last value "
              "available at the clock ĉnt v [LAP].\n");
  return 0;
}
