//===--- codegen_compare.cpp - One lowering, two backends -----------------===//
///
/// Shows the single-lowering pipeline on one process: the CompiledStep
/// bytecode (skip offsets along the clock tree), the C the emitter
/// derives from that same bytecode (structured ifs — code a of the
/// paper's Figure 9), and the guard work the hierarchy saves against the
/// flat one-guard-per-statement lowering (code b), both run on the VM
/// over the same random trace.
///
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "driver/Driver.h"
#include "interp/VmExecutor.h"

#include <cstdio>

using namespace sigc;

int main() {
  const char *Source = R"(
process FILTERBANK =
  ( ? integer IN;
    ! integer OUT; )
  (| C1 := (IN mod 2) = 0
   | S1 := IN when C1
   | C2 := (S1 mod 2) = 0
   | S2 := S1 when C2
   | C3 := (S2 mod 2) = 0
   | S3 := S2 when C3
   | OUT := S3 + (OUT $ 1 init 0)
  |)
  where boolean C1, C2, C3; integer S1, S2, S3; end;
)";

  auto C = compileSource("filterbank.sig", Source);
  if (!C->Ok) {
    std::fprintf(stderr, "%s", C->Diags.render().c_str());
    return 1;
  }

  std::printf("==== CompiledStep bytecode (the single lowered IR) ====\n%s\n",
              C->Compiled.dump().c_str());
  std::printf("==== generated C: structured ifs from the skip offsets "
              "(code a of Figure 9) ====\n%s\n",
              emitC(C->Compiled, "fb", CEmitOptions()).c_str());

  constexpr unsigned Steps = 100000;
  CompiledStep Flat = CompiledStep::build(C->Step, GuardLowering::Flat);
  for (unsigned Permille : {1000, 200}) {
    VmExecutor FlatExec(Flat);
    RandomEnvironment E1(3, Permille);
    FlatExec.run(E1, Steps);
    VmExecutor Vm(C->Compiled);
    RandomEnvironment E2(3, Permille);
    Vm.run(E2, Steps);
    std::printf("tick density %4u/1000 over %u steps: flat %llu guard "
                "tests, bytecode/C %llu (%.1fx fewer)\n",
                Permille, Steps,
                static_cast<unsigned long long>(FlatExec.guardTests()),
                static_cast<unsigned long long>(Vm.guardTests()),
                static_cast<double>(FlatExec.guardTests()) /
                    static_cast<double>(Vm.guardTests()));
  }
  return 0;
}
