//===--- codegen_test.cpp - Step IR and C emission -------------------------===//

#include "TestUtil.h"
#include "codegen/CEmitter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace sigc;
using namespace sigc::test;

TEST(StepProgram, SlotsAssigned) {
  auto C = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                          "   Y := A when C1"));
  EXPECT_GT(C->Step.NumClockSlots, 0u);
  EXPECT_GT(C->Step.NumValueSlots, 0u);
  // Every live signal has distinct value slots.
  std::vector<int> Seen;
  for (int Slot : C->Step.SignalValueSlot) {
    if (Slot < 0)
      continue;
    EXPECT_EQ(std::count(Seen.begin(), Seen.end(), Slot), 0);
    Seen.push_back(Slot);
  }
}

TEST(StepProgram, DelayHasStateSlot) {
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A $ 1 init 42"));
  ASSERT_EQ(C->Step.StateInit.size(), 1u);
  EXPECT_EQ(C->Step.StateInit[0].Int, 42);
}

TEST(StepProgram, IODescriptors) {
  auto C = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                          "   Y := A when C1"));
  ASSERT_EQ(C->Step.Inputs.size(), 2u);
  ASSERT_EQ(C->Step.Outputs.size(), 1u);
  EXPECT_EQ(C->Step.Outputs[0].Name, "Y");
  // A and C1 are unrelated inputs, so each brings its own free clock.
  EXPECT_EQ(C->Step.ClockInputs.size(), 2u);
}

TEST(StepProgram, GuardsCoveredByNestedBlocks) {
  auto C = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                          "   Y := A when C1"));
  // The groups partition the skip-free code, and each group's guard path
  // ends in its instruction's own guard: the clock of the signal whose
  // value it writes or reads, or none for clock inputs and derived
  // clocks.
  const StepProgram &SP = C->Step;
  std::vector<int> ClockOfValue(SP.NumValueSlots, -1);
  for (size_t S = 0; S < SP.SignalValueSlot.size(); ++S)
    if (SP.SignalValueSlot[S] >= 0)
      ClockOfValue[SP.SignalValueSlot[S]] = SP.SignalClockSlot[S];
  for (const VmInstr &In : SP.Code)
    EXPECT_NE(In.Op, VmOp::SkipIfAbsent);
  ASSERT_FALSE(SP.Groups.empty());
  EXPECT_EQ(SP.Groups.back().End, SP.Code.size());
  uint32_t Begin = 0;
  for (const StepGroup &G : SP.Groups) {
    ASSERT_GT(G.End, Begin) << "every action emits code";
    const VmInstr &Root = SP.Code[G.End - 1];
    VmOperands Ops = vmOperands(Root.Op);
    int Own = Ops.Target == OperandSpace::Value ? ClockOfValue[Root.Target]
              : Ops.A == OperandSpace::Value    ? ClockOfValue[Root.A]
                                                : -1;
    if (Own < 0)
      EXPECT_TRUE(G.Guards.empty()) << vmOpName(Root.Op);
    else
      EXPECT_TRUE(!G.Guards.empty() && G.Guards.back() == Own)
          << vmOpName(Root.Op) << " in the wrong block";
    Begin = G.End;
  }
}

TEST(StepProgram, DumpsAreNonEmpty) {
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A + 1"));
  // --dump-step prints the bytecode of the step; either lowering has one.
  EXPECT_NE(C->Compiled.dump().find("read-clock"), std::string::npos);
  EXPECT_NE(CompiledStep::build(C->Step, GuardLowering::Flat)
                .dump()
                .find("binary-sc"),
            std::string::npos);
}

TEST(CEmitter, SanitizeIdent) {
  EXPECT_EQ(sanitizeIdent("^C"), "ck_C");
  EXPECT_EQ(sanitizeIdent("[C]"), "on_C");
  EXPECT_EQ(sanitizeIdent("[~C]"), "on_not_C");
  EXPECT_EQ(sanitizeIdent("t$1"), "t_1");
  EXPECT_EQ(sanitizeIdent("123"), "x123");
}

TEST(StepProgram, ValueSlotTypesRecorded) {
  auto C = compileOk(proc("? integer A; boolean C1; ! real Y;",
                          "   Y := 0.5 when C1"));
  ASSERT_EQ(C->Step.SlotType.size(),
            static_cast<size_t>(C->Step.NumValueSlots + C->Step.NumTempSlots));
  bool SawInt = false, SawReal = false;
  for (TypeKind K : C->Step.SlotType) {
    SawInt |= K == TypeKind::Integer;
    SawReal |= K == TypeKind::Real;
  }
  EXPECT_TRUE(SawInt);
  EXPECT_TRUE(SawReal);
}

TEST(StepProgram, ScratchSlotsOnlyWhereNodesLand) {
  // The product lands at depth 1; depth 0 is the root, which writes X
  // itself, so one scratch slot serves.
  auto C = compileOk(proc("? integer A, B, C; ! integer X;",
                          "   X := A + (B * C)"));
  EXPECT_EQ(C->Step.NumTempSlots, 1u);
  EXPECT_NE(C->Compiled.dump().find("temp slots: 1,"), std::string::npos)
      << C->Compiled.dump();
}

namespace {

std::string emit(Compilation &C, bool Driver = false) {
  CEmitOptions O;
  O.WithDriver = Driver;
  return emitC(C.Compiled, "p", O);
}

} // namespace

TEST(CEmitter, GeneratesStepFunction) {
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A * 2"));
  std::string Code = emit(*C);
  EXPECT_NE(Code.find("int p_step(p_state_t *st, const p_in_t *in, "
                      "p_out_t *out)"),
            std::string::npos)
      << Code;
  EXPECT_NE(Code.find("void p_init(p_state_t *st)"), std::string::npos);
  EXPECT_NE(Code.find("out->Y_present = 1"), std::string::npos);
}

TEST(CEmitter, EmitsBatchEntryPoint) {
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A * 2"));
  std::string Code = emit(*C);
  EXPECT_NE(Code.find("unsigned p_step_batch(p_state_t *st, const p_in_t *in, "
                      "p_out_t *out, unsigned n)"),
            std::string::npos)
      << Code;
}

TEST(CEmitter, StructuredIfsMatchSkipInstructionCount) {
  // The emitter reconstructs exactly one `if` per SkipIfAbsent — the
  // bytecode's guard economics carry into the C text one for one.
  auto C = compileOk(proc("? integer A; boolean C1, C2; ! integer Y;",
                          "   T1 := A when C1\n"
                          "   | T2 := T1 when C2\n"
                          "   | Y := T2 + 1",
                          "integer T1, T2;"));
  std::string Code = emit(*C);
  size_t Skips = 0;
  for (const VmInstr &In : C->Compiled.Code)
    Skips += In.Op == VmOp::SkipIfAbsent;
  auto count = [](const std::string &S, const std::string &Needle) {
    size_t N = 0, Pos = 0;
    while ((Pos = S.find(Needle, Pos)) != std::string::npos) {
      ++N;
      Pos += Needle.size();
    }
    return N;
  };
  EXPECT_GT(Skips, 0u);
  // Each skip contributes one guard-counter bump and one if.
  EXPECT_EQ(count(Code, "st->guard_tests += 1ULL;"), Skips) << Code;
  EXPECT_EQ(count(Code, "if (c"), Skips) << Code;
}

TEST(CEmitter, CountersLiveInStateStruct) {
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A + 1"));
  std::string Code = emit(*C);
  EXPECT_NE(Code.find("unsigned long long guard_tests;"), std::string::npos);
  EXPECT_NE(Code.find("unsigned long long executed;"), std::string::npos);
  EXPECT_NE(Code.find("st->guard_tests = 0ULL;"), std::string::npos);
  EXPECT_NE(Code.find("st->executed += "), std::string::npos);
}

TEST(CEmitter, FoldedConstantsAreInlined) {
  // 2 * 3 + 4 folds at bytecode build time; the C must carry the folded
  // literal, not the expression.
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A + (2 * 3 + 4)"));
  std::string Code = emit(*C);
  EXPECT_NE(Code.find("10L"), std::string::npos) << Code;
  EXPECT_EQ(Code.find("2L * 3L"), std::string::npos) << Code;
}

TEST(CEmitter, ScratchSlotsBecomeLocals) {
  // A multi-operator tree needs scratch slots; they surface as locals
  // past the value-slot range.
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := (A * A + 1) * (A - 2)"));
  ASSERT_GT(C->Compiled.NumTempSlots, 0u);
  std::string Code = emit(*C);
  std::string TempVar = "v" + std::to_string(C->Compiled.NumValueSlots);
  EXPECT_NE(Code.find("long " + TempVar), std::string::npos) << Code;
}

TEST(CEmitter, DelayStateInStruct) {
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A $ 1 init 5"));
  std::string Code = emit(*C);
  // The VM's state block: the counters, then one 8-byte slot per delay,
  // an integer in the slot's `i` member.
  EXPECT_NE(Code.find("unsigned long long executed;\n  p_slot_t s[1];"),
            std::string::npos)
      << Code;
  EXPECT_NE(Code.find("st->s[0].i = 5L;"), std::string::npos) << Code;
}

TEST(CEmitter, DivisionGuardedAgainstZero) {
  auto C = compileOk(proc("? integer A, B; ! integer Y;", "   Y := A / B"));
  std::string Code = emit(*C);
  EXPECT_NE(Code.find("== 0 ? 0L :"), std::string::npos) << Code;
}

TEST(CEmitter, ConstantDivisorFoldsTheGuard) {
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A / 3"));
  std::string Code = emit(*C);
  EXPECT_NE(Code.find("/ 3L"), std::string::npos) << Code;
  EXPECT_EQ(Code.find("== 0 ? 0L :"), std::string::npos) << Code;
}

TEST(CEmitter, NonFiniteFoldedConstantsSpellValidC) {
  // Build-time folding evaluates real arithmetic, so a constant can
  // overflow to infinity; %.17g would print the identifier `inf`, which
  // is not C. The emitter must spell non-finite values as expressions.
  auto C = compileOk(proc("? boolean CC; ! real Y;",
                          "   Y := (1.0e308 + 1.0e308) when CC"));
  std::string Code = emit(*C);
  EXPECT_NE(Code.find("(1.0 / 0.0)"), std::string::npos) << Code;
  EXPECT_EQ(Code.find("= inf"), std::string::npos) << Code;

  std::string Path = ::testing::TempDir() + "signalc_inf_test.c";
  FILE *F = fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  fputs(Code.c_str(), F);
  fclose(F);
  EXPECT_EQ(system(("cc -std=c99 -Wall -Werror -o /dev/null -c " + Path +
                    " 2>&1")
                       .c_str()),
            0)
      << Code;
}

TEST(CEmitter, IntegerArithmeticWrapsLikeTheVm) {
  auto C = compileOk(proc("? integer A, B; ! integer Y;", "   Y := A + B"));
  std::string Code = emit(*C);
  EXPECT_NE(Code.find("(long)((unsigned long)"), std::string::npos) << Code;
}

TEST(CEmitter, DriverEmitsMain) {
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A + 1"));
  std::string Code = emit(*C, /*Driver=*/true);
  EXPECT_NE(Code.find("int main(void)"), std::string::npos);
  EXPECT_NE(Code.find("printf"), std::string::npos);
}

TEST(CEmitter, GeneratedCCompilesWithSystemCompiler) {
  auto C = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                          "   T := A when C1\n"
                          "   | Y := T + (T $ 1 init 0)",
                          "integer T;"));
  std::string Code = emit(*C, /*Driver=*/true);
  std::string Path = ::testing::TempDir() + "signalc_emit_test.c";
  FILE *F = fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  fputs(Code.c_str(), F);
  fclose(F);
  std::string Cmd = "cc -std=c99 -Wall -Werror -o /dev/null -c " + Path +
                    " 2>&1";
  int Rc = system(Cmd.c_str());
  EXPECT_EQ(Rc, 0) << "generated C does not compile\n" << Code;
}

TEST(CEmitter, BooleanOutputsUseIntType) {
  auto C = compileOk(proc("? boolean A; ! boolean Y;", "   Y := not A"));
  std::string Code = emit(*C);
  EXPECT_NE(Code.find("int Y;"), std::string::npos) << Code;
}

TEST(CEmitter, RealSignalsUseDouble) {
  auto C = compileOk(proc("? real A; ! real Y;", "   Y := A * 2.0"));
  std::string Code = emit(*C);
  EXPECT_NE(Code.find("double"), std::string::npos);
}
