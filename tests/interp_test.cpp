//===--- interp_test.cpp - Operator semantics & differential execution ----===//
///
/// The first group reproduces the timing diagrams of the paper's
/// Figures 1–4 as scripted traces; the second group runs differential
/// tests: the VM on the flat lowering == the VM on the nested lowering
/// == reference fixpoint interpretation, on scripted and random programs.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/KernelInterp.h"
#include "interp/VmExecutor.h"

#include <gtest/gtest.h>

#include <random>

using namespace sigc;
using namespace sigc::test;

namespace {

/// Runs the compiled step over a scripted environment and returns the
/// formatted outputs.
std::string runSteps(Compilation &C, ScriptedEnvironment &Env,
                     unsigned Instants) {
  VmExecutor Exec(C.Compiled);
  Exec.run(Env, Instants);
  return formatEvents(Env.outputs());
}

} // namespace

//===----------------------------------------------------------------------===//
// Figure 1: X := X1 + X2 — pointwise sum on a common clock.
//===----------------------------------------------------------------------===//

TEST(InterpFigures, Figure1PointwiseSum) {
  auto C = compileOk(proc("? integer X1, X2; ! integer X;",
                          "   X := X1 + X2"));
  ScriptedEnvironment Env;
  Env.tickAlways();
  // Paper values: X1 = 1,5,2,7,8,...; X2 = 6,7,11,10,...
  int X1[] = {1, 5, 2, 7};
  int X2[] = {6, 7, 11, 10};
  for (unsigned I = 0; I < 4; ++I) {
    Env.set("X1", I, Value::makeInt(X1[I]));
    Env.set("X2", I, Value::makeInt(X2[I]));
  }
  EXPECT_EQ(runSteps(*C, Env, 4), "0 X=7\n1 X=12\n2 X=13\n3 X=17\n");
}

//===----------------------------------------------------------------------===//
// Figure 2: ZX := X $ 1 init v0 — reference to past values.
//===----------------------------------------------------------------------===//

TEST(InterpFigures, Figure2Delay) {
  auto C = compileOk(proc("? integer X; ! integer ZX;",
                          "   ZX := X $ 1 init -1"));
  ScriptedEnvironment Env;
  Env.tickAlways();
  int X[] = {1, 5, 2, 7, 8};
  for (unsigned I = 0; I < 5; ++I)
    Env.set("X", I, Value::makeInt(X[I]));
  EXPECT_EQ(runSteps(*C, Env, 5),
            "0 ZX=-1\n1 ZX=1\n2 ZX=5\n3 ZX=2\n4 ZX=7\n");
}

TEST(InterpFigures, DelayOnlyAdvancesWhenPresent) {
  auto C = compileOk(proc("? integer X; ! integer ZX;",
                          "   ZX := X $ 1 init 0"));
  ScriptedEnvironment Env;
  // The shared clock ticks at instants 0, 2, 5 only.
  std::string Root;
  for (const auto &CI : C->Step.ClockInputs)
    Root = CI.Name;
  Env.tick(Root, 0);
  Env.tick(Root, 2);
  Env.tick(Root, 5);
  Env.set("X", 0, Value::makeInt(10));
  Env.set("X", 2, Value::makeInt(20));
  Env.set("X", 5, Value::makeInt(30));
  EXPECT_EQ(runSteps(*C, Env, 6), "0 ZX=0\n2 ZX=10\n5 ZX=20\n");
}

//===----------------------------------------------------------------------===//
// Figure 3: X := U when C — downsampling.
//===----------------------------------------------------------------------===//

TEST(InterpFigures, Figure3When) {
  auto C = compileOk(proc("? integer U; boolean CC; ! integer X;",
                          "   X := U when CC\n   | synchro {U, CC}"));
  ScriptedEnvironment Env;
  Env.tickAlways();
  // U:      1, 7, 2, 1, 3
  // C:      f, t, t, f, t
  int U[] = {1, 7, 2, 1, 3};
  bool Cv[] = {false, true, true, false, true};
  for (unsigned I = 0; I < 5; ++I) {
    Env.set("U", I, Value::makeInt(U[I]));
    Env.set("CC", I, Value::makeBool(Cv[I]));
  }
  EXPECT_EQ(runSteps(*C, Env, 5), "1 X=7\n2 X=2\n4 X=3\n");
}

//===----------------------------------------------------------------------===//
// Figure 4: X := U default V — deterministic merge with priority.
//===----------------------------------------------------------------------===//

TEST(InterpFigures, Figure4Default) {
  // U present when PU, V present when PV (both sampled from a base).
  auto C = compileOk(proc("? integer B; boolean PU, PV; ! integer X;",
                          "   U := B when PU\n   | V := (B * 10) when PV\n"
                          "   | X := U default V",
                          "integer U, V;"));
  ScriptedEnvironment Env;
  Env.tickAlways();
  // instants:   0     1     2     3
  // U present:  yes   no    yes   no
  // V present:  yes   yes   no    no
  bool PU[] = {true, false, true, false};
  bool PV[] = {true, true, false, false};
  for (unsigned I = 0; I < 4; ++I) {
    Env.set("B", I, Value::makeInt(static_cast<int>(I) + 1));
    Env.set("PU", I, Value::makeBool(PU[I]));
    Env.set("PV", I, Value::makeBool(PV[I]));
  }
  // X = U at 0 and 2 (priority), V at 1, absent at 3.
  EXPECT_EQ(runSteps(*C, Env, 4), "0 X=1\n1 X=20\n2 X=3\n");
}

//===----------------------------------------------------------------------===//
// ALARM behaviour end to end (the paper's Section 3.3 scenario).
//===----------------------------------------------------------------------===//

TEST(InterpScenario, AlarmRaisesOnlyPastLimit) {
  auto C = compileOk(R"(
process ALARM =
  ( ? boolean BRAKE, STOP_OK, LIMIT_REACHED;
    ! boolean ALARM; )
  (| BRAKING_STATE := BRAKING_NEXT_STATE $ 1 init false
   | BRAKING_NEXT_STATE :=
       (true when BRAKE) default (false when STOP_OK) default BRAKING_STATE
   | synchro {when BRAKING_STATE, STOP_OK, LIMIT_REACHED}
   | synchro {when (not BRAKING_STATE), BRAKE}
   | ALARM := LIMIT_REACHED and (not STOP_OK)
  |)
  where boolean BRAKING_STATE, BRAKING_NEXT_STATE; end;
)");
  ScriptedEnvironment Env;
  Env.tickAlways();
  // Instant 0: idle, BRAKE=false             -> stay idle, no alarm.
  // Instant 1: idle, BRAKE=true              -> start braking.
  // Instant 2: braking, not stopped, limit   -> ALARM=true.
  // Instant 3: braking, stopped              -> ALARM=false, leave braking.
  // Instant 4: idle again, BRAKE=false       -> no alarm.
  Env.set("BRAKE", 0, Value::makeBool(false));
  Env.set("BRAKE", 1, Value::makeBool(true));
  Env.set("STOP_OK", 2, Value::makeBool(false));
  Env.set("LIMIT_REACHED", 2, Value::makeBool(true));
  Env.set("STOP_OK", 3, Value::makeBool(true));
  Env.set("LIMIT_REACHED", 3, Value::makeBool(false));
  Env.set("BRAKE", 4, Value::makeBool(false));
  EXPECT_EQ(runSteps(*C, Env, 5),
            "2 ALARM=true\n3 ALARM=false\n");
}

//===----------------------------------------------------------------------===//
// Differential tests: flat lowering == nested lowering == reference.
//===----------------------------------------------------------------------===//

namespace {

void expectAllModesAgree(const std::string &Source, uint64_t Seed,
                         unsigned Instants = 64) {
  auto C = compileOk(Source);
  if (!C->Ok)
    return;

  RandomEnvironment EnvFlat(Seed);
  CompiledStep Flat = CompiledStep::build(C->Step, GuardLowering::Flat);
  VmExecutor ExecFlat(Flat);
  ExecFlat.run(EnvFlat, Instants);

  RandomEnvironment EnvNested(Seed);
  VmExecutor ExecNested(C->Compiled);
  ExecNested.run(EnvNested, Instants);

  RandomEnvironment EnvRef(Seed);
  KernelInterp Ref(*C->Kernel, C->Clocks, *C->Forest, C->names());
  EXPECT_TRUE(Ref.run(EnvRef, Instants)) << "fixpoint got stuck";

  EXPECT_EQ(formatEvents(EnvFlat.outputs()),
            formatEvents(EnvNested.outputs()))
      << "flat vs nested divergence\n"
      << Source;
  EXPECT_LE(ExecNested.guardTests(), ExecFlat.guardTests())
      << "nesting tested more guards than the flat lowering\n"
      << Source;
  EXPECT_EQ(ExecNested.executed(), ExecFlat.executed())
      << "the lowerings executed different step instructions\n"
      << Source;
  EXPECT_EQ(formatEvents(EnvFlat.outputs()), formatEvents(EnvRef.outputs()))
      << "step vs reference divergence\n"
      << Source;
}

class DifferentialTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST(Differential, SumProgram) {
  expectAllModesAgree(proc("? integer A, B; ! integer Y;", "   Y := A + B"),
                      1);
}

TEST(Differential, CounterProgram) {
  expectAllModesAgree(proc("? integer A; ! integer Y;",
                           "   Y := A + (Y $ 1 init 0)"),
                      2);
}

TEST(Differential, DownsampleProgram) {
  expectAllModesAgree(proc("? integer A; boolean C1; ! integer Y;",
                           "   Y := A when C1"),
                      3);
}

TEST(Differential, MergeProgram) {
  expectAllModesAgree(proc("? integer A, B; ! integer Y;",
                           "   Y := A default B"),
                      4);
}

TEST(Differential, CellProgram) {
  expectAllModesAgree(proc("? integer X; boolean B; ! integer Y;",
                           "   Y := X cell B init -5\n   | synchro {X, B}"),
                      5);
}

TEST(Differential, AlarmProgram) {
  expectAllModesAgree(
      R"(process A =
  ( ? boolean BRAKE, STOP_OK, LIMIT_REACHED; ! boolean ALARM; )
  (| BRAKING_STATE := BRAKING_NEXT_STATE $ 1 init false
   | BRAKING_NEXT_STATE :=
       (true when BRAKE) default (false when STOP_OK) default BRAKING_STATE
   | synchro {when BRAKING_STATE, STOP_OK, LIMIT_REACHED}
   | synchro {when (not BRAKING_STATE), BRAKE}
   | ALARM := LIMIT_REACHED and (not STOP_OK)
  |) where boolean BRAKING_STATE, BRAKING_NEXT_STATE; end;
)",
      6);
}

TEST(Differential, GridProgram) {
  expectAllModesAgree(proc("? integer IN; ! integer OUT;",
                           "   P1 := (IN mod 2) = 0\n"
                           "   | A1 := IN when P1\n"
                           "   | Q1 := (IN mod 3) = 1\n"
                           "   | M11 := A1 when Q1\n"
                           "   | OUT := IN default M11",
                           "boolean P1, Q1; integer A1, M11;"),
                      7);
}

TEST_P(DifferentialTest, RandomChainMergePrograms) {
  unsigned Seed = GetParam();
  std::mt19937 Rng(Seed ^ 0xABCDEF);
  std::string Body = "   B0 := (IN mod 2) = 0\n";
  std::string Locals = "boolean B0; ";
  std::vector<std::string> Pool{"IN"};
  std::vector<std::string> Conds{"B0"};
  unsigned NextId = 1;
  for (unsigned I = 0; I < 6; ++I) {
    unsigned Kind = Rng() % 4;
    std::string New = "S" + std::to_string(NextId);
    if (Kind == 0) {
      std::string Src = Pool[Rng() % Pool.size()];
      std::string Cond = Conds[Rng() % Conds.size()];
      Locals += "integer " + New + "; ";
      Body += "   | " + New + " := " + Src + " when " + Cond + "\n";
      Pool.push_back(New);
    } else if (Kind == 1) {
      std::string A = Pool[Rng() % Pool.size()];
      std::string B = Pool[Rng() % Pool.size()];
      Locals += "integer " + New + "; ";
      Body += "   | " + New + " := " + A + " default " + B + "\n";
      Pool.push_back(New);
    } else if (Kind == 2) {
      std::string Src = Pool[Rng() % Pool.size()];
      Locals += "integer " + New + "; ";
      Body += "   | " + New + " := " + Src + " + (" + New +
              " $ 1 init 0)\n";
      Pool.push_back(New);
    } else {
      std::string Src = Pool[Rng() % Pool.size()];
      std::string CN = "B" + std::to_string(NextId);
      Locals += "boolean " + CN + "; ";
      Body += "   | " + CN + " := (" + Src + " mod 3) = 0\n";
      Conds.push_back(CN);
    }
    ++NextId;
  }
  Body += "   | OUT := " + Pool.back();
  expectAllModesAgree(proc("? integer IN; ! integer OUT;", Body, Locals),
                      Seed * 31 + 7, 48);
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, DifferentialTest,
                         ::testing::Range(0u, 25u));

//===----------------------------------------------------------------------===//
// Executor details
//===----------------------------------------------------------------------===//

TEST(GuardLowering, NestedDoesFewerGuardTests) {
  auto C = compileOk(proc("? integer A; boolean C1, C2; ! integer Y;",
                          "   T1 := A when C1\n"
                          "   | T2 := T1 when C2\n"
                          "   | Y := T2 + 1",
                          "integer T1, T2;"));
  // Environment where the root rarely ticks: nesting skips whole subtrees.
  RandomEnvironment Env(1, /*TickPermille=*/100);
  CompiledStep FlatStep = CompiledStep::build(C->Step, GuardLowering::Flat);
  VmExecutor Flat(FlatStep);
  Flat.run(Env, 256);
  RandomEnvironment Env2(1, 100);
  VmExecutor Nested(C->Compiled);
  Nested.run(Env2, 256);
  EXPECT_LT(Nested.guardTests(), Flat.guardTests());
  EXPECT_LE(Nested.executed(), Flat.executed());
}

TEST(GuardLowering, FlatResetRestoresInitialState) {
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A + (Y $ 1 init 100)"));
  ScriptedEnvironment Env;
  Env.tickAlways();
  for (unsigned I = 0; I < 3; ++I)
    Env.set("A", I, Value::makeInt(1));
  CompiledStep Flat = CompiledStep::build(C->Step, GuardLowering::Flat);
  VmExecutor Exec(Flat);
  Exec.run(Env, 3);
  std::string First = formatEvents(Env.outputs());
  Env.clearOutputs();
  Exec.reset();
  Exec.run(Env, 3);
  EXPECT_EQ(formatEvents(Env.outputs()), First);
}

TEST(Environment, RandomIsQueryOrderIndependent) {
  // E1 binds X then Y, E2 binds Y then X: the ids differ, the answers
  // must not.
  RandomEnvironment E1(9), E2(9);
  EnvInputId X1 = E1.resolveInput("X", TypeKind::Integer);
  EnvInputId Y1 = E1.resolveInput("Y", TypeKind::Integer);
  EnvInputId Y2 = E2.resolveInput("Y", TypeKind::Integer);
  EnvInputId X2 = E2.resolveInput("X", TypeKind::Integer);
  VmSlot A1, B1, B2, A2;
  E1.inputValues(X1, 3, 1, &A1);
  E1.inputValues(Y1, 3, 1, &B1);
  E2.inputValues(Y2, 3, 1, &B2);
  E2.inputValues(X2, 3, 1, &A2);
  EXPECT_EQ(A1.I, A2.I);
  EXPECT_EQ(B1.I, B2.I);
}

TEST(Environment, ScriptedDefaults) {
  ScriptedEnvironment E;
  EnvClockId X = E.resolveClock("^X");
  unsigned char Tick = 9;
  E.clockTicks(X, 0, 1, &Tick);
  EXPECT_EQ(Tick, 0);
  E.tickAlways();
  E.clockTicks(X, 0, 1, &Tick);
  EXPECT_EQ(Tick, 1);
  VmSlot A{7};
  E.inputValues(E.resolveInput("A", TypeKind::Integer), 0, 1, &A);
  EXPECT_EQ(A.I, 0);
}
