//===--- vm_test.cpp - Slot-resolved VM: structure, semantics, counters ---===//
///
/// Tests of the CompiledStep/VmExecutor execution engine:
///   * structural invariants of the lowered bytecode (resolved descriptor
///     indices, well-formed skip offsets, folded constants),
///   * trace equivalence against the nested StepExecutor on scripted and
///     random programs (the differential oracle re-checks this at scale;
///     here the failures localize),
///   * the guard-economics regression pins: the VM must do exactly the
///     nested structure's guard work — never regress to flat-level — and
///     its Executed counter stays comparable across the multi-instruction
///     expression lowering (Weight accounting),
///   * Figure-9 nesting: no guard block holds nothing but another guard
///     block (a same-target chain), in compiled and in fused steps.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/StepExecutor.h"
#include "interp/VmExecutor.h"
#include "programs/Programs.h"
#include "testing/RandomProgram.h"

#include <gtest/gtest.h>

using namespace sigc;
using namespace sigc::test;

namespace {

CompiledStep buildVm(Compilation &C) {
  return CompiledStep::build(*C.Kernel, C.Step);
}

} // namespace

//===----------------------------------------------------------------------===//
// Structural invariants of the lowered bytecode.
//===----------------------------------------------------------------------===//

TEST(CompiledStep, DescriptorIndicesAreResolved) {
  auto C = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                          "   Y := (A + 1) when C1"));
  CompiledStep CS = buildVm(*C);
  for (const VmInstr &In : CS.Code) {
    switch (In.Op) {
    case VmOp::ReadClockInput:
      ASSERT_GE(In.Aux, 0);
      ASSERT_LT(static_cast<size_t>(In.Aux), CS.ClockInputs.size());
      break;
    case VmOp::ReadSignal:
      ASSERT_GE(In.Aux, 0);
      ASSERT_LT(static_cast<size_t>(In.Aux), CS.Inputs.size());
      break;
    case VmOp::WriteOutput:
      ASSERT_GE(In.Aux, 0);
      ASSERT_LT(static_cast<size_t>(In.Aux), CS.Outputs.size());
      break;
    default:
      break;
    }
  }
}

TEST(CompiledStep, SkipOffsetsAreForwardAndBounded) {
  auto C = compileOk(proc("? integer A; boolean C1, C2; ! integer Y;",
                          "   T1 := A when C1\n"
                          "   | T2 := T1 when C2\n"
                          "   | Y := T2 + 1",
                          "integer T1, T2;"));
  CompiledStep CS = buildVm(*C);
  unsigned Skips = 0;
  for (size_t PC = 0; PC < CS.Code.size(); ++PC) {
    const VmInstr &In = CS.Code[PC];
    if (In.Op != VmOp::SkipIfAbsent)
      continue;
    ++Skips;
    EXPECT_GT(In.Aux, static_cast<int32_t>(PC)) << "skip must move forward";
    EXPECT_LE(In.Aux, static_cast<int32_t>(CS.Code.size()));
    EXPECT_GE(In.A, 0);
    EXPECT_LT(In.A, static_cast<int32_t>(CS.NumClockSlots));
    EXPECT_EQ(In.Weight, 0) << "guard tests are not executed instructions";
  }
  EXPECT_GT(Skips, 0u) << "a sampled program must have guarded blocks";
}

TEST(CompiledStep, ExpressionLoweringCountsOnceViaWeights) {
  // (A * A + 1) * (A - 2) lowers to several three-address instructions;
  // exactly one of them (the root) must carry Weight 1.
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := (A * A + 1) * (A - 2)"));
  CompiledStep CS = buildVm(*C);
  EXPECT_GT(CS.NumTempSlots, 0u) << "interior results need scratch slots";
  uint64_t StepInstrs = C->Step.Instrs.size();
  uint64_t WeightSum = 0;
  for (const VmInstr &In : CS.Code)
    WeightSum += In.Weight;
  EXPECT_EQ(WeightSum, StepInstrs)
      << "every step instruction contributes exactly 1 to Executed";
}

TEST(CompiledStep, ConstantSubtreesFoldAtBuildTime) {
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A + (2 * 3 + 4)"));
  CompiledStep CS = buildVm(*C);
  bool FoldedSeen = false;
  for (const Value &V : CS.Consts)
    FoldedSeen |= V.Kind == TypeKind::Integer && V.Int == 10;
  EXPECT_TRUE(FoldedSeen) << "2 * 3 + 4 should fold to the constant 10";
}

//===----------------------------------------------------------------------===//
// Trace equivalence with the step executor.
//===----------------------------------------------------------------------===//

TEST(VmExecutor, MatchesNestedOnScriptedTrace) {
  auto C = compileOk(proc("? integer X1, X2; ! integer X;",
                          "   X := X1 + X2"));
  ScriptedEnvironment EnvA, EnvB;
  for (auto *E : {&EnvA, &EnvB}) {
    E->tickAlways();
    for (unsigned I = 0; I < 4; ++I) {
      E->set("X1", I, Value::makeInt(static_cast<int>(I) + 1));
      E->set("X2", I, Value::makeInt(10 - static_cast<int>(I)));
    }
  }
  StepExecutor Nested(*C->Kernel, C->Step);
  Nested.run(EnvA, 4, ExecMode::Nested);
  CompiledStep CS = buildVm(*C);
  VmExecutor Vm(CS);
  Vm.run(EnvB, 4);
  EXPECT_EQ(formatEvents(EnvA.outputs()), formatEvents(EnvB.outputs()));
}

TEST(VmExecutor, MatchesNestedOnBuiltinSuite) {
  for (const Figure13Program &P : figure13Suite()) {
    auto C = compileSource("<vm:" + P.Name + ">", P.Source);
    ASSERT_TRUE(C->Ok) << P.Name;
    RandomEnvironment EnvNested(17), EnvVm(17);
    StepExecutor Nested(*C->Kernel, C->Step);
    Nested.run(EnvNested, 48, ExecMode::Nested);
    CompiledStep CS = buildVm(*C);
    VmExecutor Vm(CS);
    Vm.run(EnvVm, 48);
    EXPECT_EQ(formatEvents(EnvNested.outputs()), formatEvents(EnvVm.outputs()))
        << P.Name;
    EXPECT_EQ(Vm.guardTests(), Nested.guardTests()) << P.Name;
    EXPECT_EQ(Vm.executed(), Nested.executed()) << P.Name;
  }
}

TEST(VmExecutor, ResetRestoresInitialState) {
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A + (Y $ 1 init 100)"));
  ScriptedEnvironment Env;
  Env.tickAlways();
  for (unsigned I = 0; I < 3; ++I)
    Env.set("A", I, Value::makeInt(1));
  CompiledStep CS = buildVm(*C);
  VmExecutor Exec(CS);
  Exec.run(Env, 3);
  std::string First = formatEvents(Env.outputs());
  Env.clearOutputs();
  Exec.reset();
  Exec.run(Env, 3);
  EXPECT_EQ(formatEvents(Env.outputs()), First);
}

TEST(VmExecutor, RebindsWhenEnvironmentAddressIsReused) {
  // A loop-local environment is destroyed and the next one typically
  // lands at the same address: the binding cache must key on the
  // environment's identity, not its address, or the second run queries
  // a dead environment's ids (historically an out-of-bounds read).
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A + 1"));
  CompiledStep CS = CompiledStep::build(*C->Kernel, C->Step);
  VmExecutor Exec(CS);
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    RandomEnvironment Env(Seed, 1000);
    RandomEnvironment Ref(Seed, 1000); // fresh executor = known-good path
    Exec.reset();
    Exec.run(Env, 16);
    VmExecutor Fresh(CS);
    Fresh.run(Ref, 16);
    EXPECT_EQ(formatEvents(Env.outputs()), formatEvents(Ref.outputs()))
        << "stale binding after environment address reuse (seed " << Seed
        << ")";
  }
}

TEST(VmExecutor, RebindsWhenEnvironmentChanges) {
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A + 1"));
  CompiledStep CS = buildVm(*C);
  VmExecutor Exec(CS);
  ScriptedEnvironment E1, E2;
  E1.tickAlways();
  E2.tickAlways();
  E1.set("A", 0, Value::makeInt(1));
  E2.set("A", 1, Value::makeInt(41));
  Exec.step(E1, 0);
  Exec.step(E2, 1); // different environment: must rebind, not misroute
  EXPECT_EQ(formatEvents(E1.outputs()), "0 Y=2\n");
  EXPECT_EQ(formatEvents(E2.outputs()), "1 Y=42\n");
}

//===----------------------------------------------------------------------===//
// Instant batching: stepN must be invisible next to step().
//===----------------------------------------------------------------------===//

TEST(VmExecutor, BatchedMatchesSteppedOnBuiltinSuite) {
  // Exact event-sequence identity (not just canonical-trace identity):
  // the batched flush replays outputs in the unbatched order, so the raw
  // recorded vectors must be equal, at every batch/instant phase.
  const unsigned Instants = 53; // deliberately no multiple of any batch
  for (const Figure13Program &P : figure13Suite()) {
    auto C = compileSource("<vmbatch:" + P.Name + ">", P.Source);
    ASSERT_TRUE(C->Ok) << P.Name;
    RandomEnvironment EnvStep(23);
    VmExecutor Stepped(C->Compiled);
    Stepped.run(EnvStep, Instants);
    for (unsigned Batch : {1u, 2u, 7u, 64u}) {
      RandomEnvironment EnvBatch(23);
      VmExecutor Batched(C->Compiled);
      Batched.runBatched(EnvBatch, Instants, Batch);
      EXPECT_EQ(formatEvents(EnvBatch.outputs()),
                formatEvents(EnvStep.outputs()))
          << P.Name << " batch=" << Batch;
      EXPECT_EQ(Batched.guardTests(), Stepped.guardTests())
          << P.Name << " batch=" << Batch;
      EXPECT_EQ(Batched.executed(), Stepped.executed())
          << P.Name << " batch=" << Batch;
    }
  }
}

TEST(VmExecutor, BatchedDelayStateCarriesAcrossWindows) {
  // A delay chain is where a windowing bug (state reset or instant
  // mis-tagging between batches) shows first.
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A + (Y $ 1 init 0)"));
  RandomEnvironment E1(5, 1000), E2(5, 1000);
  VmExecutor Stepped(C->Compiled), Batched(C->Compiled);
  Stepped.run(E1, 20);
  Batched.runBatched(E2, 20, 7);
  EXPECT_EQ(formatEvents(E2.outputs()), formatEvents(E1.outputs()));
}

TEST(VmExecutor, BatchedOutputOrderWithinInstantIsUnbatchedOrder) {
  auto C = compileOk(proc("? integer A; ! integer DBL, SQR;",
                          "   DBL := A * 2\n   | SQR := A * A"));
  RandomEnvironment E1(9, 1000), E2(9, 1000);
  VmExecutor Stepped(C->Compiled), Batched(C->Compiled);
  Stepped.run(E1, 6);
  Batched.stepN(E2, 0, 6);
  // Raw sequences equal — per instant, DBL before SQR on both paths.
  ASSERT_EQ(E1.outputs().size(), E2.outputs().size());
  for (size_t I = 0; I < E1.outputs().size(); ++I)
    EXPECT_TRUE(E1.outputs()[I] == E2.outputs()[I]) << I;
}

//===----------------------------------------------------------------------===//
// Guard-economics regression pin (the Figure-9 effect, satellite task).
//===----------------------------------------------------------------------===//

TEST(VmExecutor, GuardWorkNeverRegressesToFlatLevel) {
  // A deep divider chain with a sparse root: the whole point of the
  // clock hierarchy is that nested/VM skip absent subtrees wholesale.
  ProgramShape Shape;
  Shape.DividerStages = 24;
  auto C = compileOk(generateProgram("CHAIN", Shape));
  const unsigned Instants = 256;

  RandomEnvironment EnvFlat(5, 200), EnvNested(5, 200), EnvVm(5, 200);
  StepExecutor Flat(*C->Kernel, C->Step);
  Flat.run(EnvFlat, Instants, ExecMode::Flat);
  StepExecutor Nested(*C->Kernel, C->Step);
  Nested.run(EnvNested, Instants, ExecMode::Nested);
  CompiledStep CS = buildVm(*C);
  VmExecutor Vm(CS);
  Vm.run(EnvVm, Instants);

  // Identical traces first — the economics are meaningless otherwise.
  EXPECT_EQ(formatEvents(EnvNested.outputs()), formatEvents(EnvFlat.outputs()));
  EXPECT_EQ(formatEvents(EnvVm.outputs()), formatEvents(EnvNested.outputs()));

  // The pins: VM == nested exactly; both well below flat on this shape.
  EXPECT_EQ(Vm.guardTests(), Nested.guardTests());
  EXPECT_EQ(Vm.executed(), Nested.executed());
  EXPECT_LT(Nested.guardTests(), Flat.guardTests() / 2)
      << "nested guard work regressed toward flat-level scanning";
  EXPECT_LT(Vm.guardTests(), Flat.guardTests() / 2)
      << "VM guard work regressed toward flat-level scanning";
  EXPECT_LE(Nested.executed(), Flat.executed());
}

TEST(VmExecutor, StopwatchGuardTestsPerInstantBounded) {
  // The deepest builtin: flat tests ~1,460 guards per instant. A nesting
  // that re-opens whole root-to-leaf block paths tests ~1,990.
  for (const Figure13Program &P : figure13Suite()) {
    if (P.Name != "STOPWATCH")
      continue;
    auto C = compileSource("<economics:STOPWATCH>", P.Source);
    ASSERT_TRUE(C->Ok);
    const unsigned Instants = 2000;
    RandomEnvironment Env(7);
    VmExecutor Vm(C->Compiled);
    Vm.run(Env, Instants);
    EXPECT_LE(Vm.guardTests(), 400ull * Instants);
    return;
  }
  FAIL() << "STOPWATCH missing from the builtin suite";
}

//===----------------------------------------------------------------------===//
// Figure-9 nesting: each nested block tests its clock once.
//===----------------------------------------------------------------------===//

namespace {

/// Fails when a guard's block holds nothing but the next guard's block:
/// a SkipIfAbsent immediately followed by another with the same target.
void expectNoGuardChains(const CompiledStep &CS, const std::string &What) {
  for (size_t PC = 0; PC + 1 < CS.Code.size(); ++PC) {
    const VmInstr &A = CS.Code[PC], &B = CS.Code[PC + 1];
    if (A.Op == VmOp::SkipIfAbsent && B.Op == VmOp::SkipIfAbsent) {
      EXPECT_NE(A.Aux, B.Aux) << What << ": guard chain at pc " << PC;
    }
  }
}

} // namespace

TEST(GuardChains, NoneOnBuiltins) {
  auto Fig5 = compileOk(alarmFigure5Source());
  expectNoGuardChains(Fig5->Compiled, "FIG5_ALARM");
  for (const Figure13Program &P : figure13Suite()) {
    auto C = compileSource("<chains:" + P.Name + ">", P.Source);
    ASSERT_TRUE(C->Ok) << P.Name;
    expectNoGuardChains(C->Compiled, P.Name);
  }
}

TEST(GuardChains, NoneOnRandomSweep) {
  RandomProgramOptions Gen;
  Gen.Equations = 24;
  for (uint64_t Seed = 0; Seed < 64; ++Seed) {
    auto C = compileSource("<chains>", generateRandomProgram("R", Seed, Gen));
    ASSERT_TRUE(C->Ok) << "seed " << Seed << "\n" << C->Diags.render();
    expectNoGuardChains(C->Compiled, "seed " + std::to_string(Seed));
  }
}

TEST(GuardChains, NoneInFusedLinkedSystems) {
  for (const auto &[Name, Inputs] :
       {std::make_pair("LINKED_PIPELINE", linkedPipelineInputs()),
        std::make_pair("LINKED_FEEDBACK", linkedFeedbackInputs()),
        std::make_pair("split-block feedback", linkedSplitBlockInputs())}) {
    LinkResult R = compileAndLinkSources(Inputs);
    ASSERT_TRUE(R.Sys) << Name << ": " << R.Error;
    expectNoGuardChains(R.Sys->Fused, Name);
  }
}

//===----------------------------------------------------------------------===//
// Dispatch strategy: computed goto must be execution-invisible.
//===----------------------------------------------------------------------===//

TEST(VmDispatch, GotoMatchesSwitchOnBuiltinSuite) {
  // Identical raw event sequences AND counters across dispatchers, on
  // both the stepped and the batched path — the direct-threaded loop is
  // a branch-structure change only.
  for (const Figure13Program &P : figure13Suite()) {
    auto C = compileSource("<vmdispatch:" + P.Name + ">", P.Source);
    ASSERT_TRUE(C->Ok) << P.Name;
    RandomEnvironment EnvSwitch(31), EnvGoto(31);
    VmExecutor Sw(C->Compiled), Go(C->Compiled);
    Sw.setDispatch(VmDispatch::Switch);
    Go.setDispatch(VmDispatch::Goto);
    ASSERT_EQ(Sw.dispatch(), VmDispatch::Switch);
    if (VmExecutor::computedGotoAvailable()) {
      ASSERT_EQ(Go.dispatch(), VmDispatch::Goto) << P.Name;
    }
    Sw.run(EnvSwitch, 48);
    Go.run(EnvGoto, 48);
    EXPECT_EQ(formatEvents(EnvGoto.outputs()), formatEvents(EnvSwitch.outputs()))
        << P.Name;
    EXPECT_EQ(Go.guardTests(), Sw.guardTests()) << P.Name;
    EXPECT_EQ(Go.executed(), Sw.executed()) << P.Name;

    RandomEnvironment BatchSwitch(31), BatchGoto(31);
    VmExecutor BSw(C->Compiled), BGo(C->Compiled);
    BSw.setDispatch(VmDispatch::Switch);
    BGo.setDispatch(VmDispatch::Goto);
    BSw.runBatched(BatchSwitch, 48, 7);
    BGo.runBatched(BatchGoto, 48, 7);
    EXPECT_EQ(formatEvents(BatchGoto.outputs()),
              formatEvents(BatchSwitch.outputs()))
        << P.Name << " (batched)";
    EXPECT_EQ(BGo.guardTests(), BSw.guardTests()) << P.Name;
  }
}

TEST(VmDispatch, SwitchOverrideSurvivesResetAndRebind) {
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A + (Y $ 1 init 0)"));
  VmExecutor Exec(C->Compiled);
  Exec.setDispatch(VmDispatch::Switch);
  RandomEnvironment E1(7, 1000);
  Exec.run(E1, 8);
  Exec.reset();
  EXPECT_EQ(Exec.dispatch(), VmDispatch::Switch)
      << "reset() must not reconsider the dispatch choice";
  RandomEnvironment E2(7, 1000);
  Exec.run(E2, 8);
  EXPECT_EQ(formatEvents(E2.outputs()), formatEvents(E1.outputs()));
}
