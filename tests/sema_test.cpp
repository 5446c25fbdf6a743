//===--- sema_test.cpp - Type checking and kernel lowering ----------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace sigc;
using namespace sigc::test;

namespace {

/// Compiles and returns the kernel dump for structural checks.
std::string kernelOf(const std::string &Source) {
  auto C = compileOk(Source);
  if (!C->Ok)
    return "<failed>";
  return C->Kernel->dump(C->names());
}

} // namespace

TEST(Sema, SimpleFuncEquation) {
  std::string K = kernelOf(proc("? integer A, B; ! integer Y;",
                                "   Y := A + B"));
  EXPECT_NE(K.find("Y := (A + B)"), std::string::npos) << K;
}

TEST(Sema, NestedWhenIsFlattened) {
  auto C = compileOk(proc("? integer A, B; boolean C; ! integer Y;",
                          "   Y := (A + B) when C"));
  // One fresh signal for A+B, then a When equation.
  unsigned Fresh = 0;
  for (const KernelSignal &S : C->Kernel->Signals)
    Fresh += S.IsFresh;
  EXPECT_EQ(Fresh, 1u);
  bool FoundWhen = false;
  for (const KernelEq &Eq : C->Kernel->Equations)
    FoundWhen |= Eq.Kind == KernelEqKind::When;
  EXPECT_TRUE(FoundWhen);
}

TEST(Sema, MixedNumericDefaultRejected) {
  // Integer/real promotion across a default would make the merged
  // signal's runtime kind depend on which arm is present each instant —
  // unreproducible by any static lowering (the C emitter's typed
  // locals). SIGNAL requires like-typed operands; so do we.
  auto C = compileErr(proc("? integer A; real B; boolean CC; ! real Y;",
                           "   Y := (A when CC) default B"),
                      CompileStage::Sema);
  EXPECT_NE(C->Diags.render().find(
                "operands of 'default' must have the same numeric type"),
            std::string::npos)
      << C->Diags.render();
}

TEST(Sema, UndeclaredSignalRejected) {
  auto C = compileErr(proc("? integer A; ! integer Y;", "   Y := A + Z"),
                      CompileStage::Sema);
  EXPECT_NE(C->Diags.render().find("undeclared signal 'Z'"),
            std::string::npos);
}

TEST(Sema, DoubleDefinitionRejected) {
  auto C = compileErr(proc("? integer A; ! integer Y;",
                           "   Y := A\n   | Y := A + 1"),
                      CompileStage::Sema);
  EXPECT_NE(C->Diags.render().find("defined more than once"),
            std::string::npos);
}

TEST(Sema, InputCannotBeDefined) {
  auto C = compileErr(proc("? integer A; ! integer Y;",
                           "   A := 1 when (A > 0)\n   | Y := A"),
                      CompileStage::Sema);
  EXPECT_NE(C->Diags.render().find("cannot be defined"), std::string::npos);
}

TEST(Sema, OutputMustBeDefined) {
  auto C = compileErr(proc("? integer A; ! integer Y;",
                           "   synchro {A, A}"),
                      CompileStage::Sema);
  EXPECT_NE(C->Diags.render().find("never defined"), std::string::npos);
}

TEST(Sema, UndefinedLocalWarnsAndIsFree) {
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A + B", "integer B;"));
  EXPECT_GE(C->Diags.warningCount(), 1u);
}

TEST(Sema, TypeErrorArithOnBool) {
  auto C = compileErr(proc("? boolean A; ! integer Y;", "   Y := A + 1"),
                      CompileStage::Sema);
  EXPECT_NE(C->Diags.render().find("numeric"), std::string::npos);
}

TEST(Sema, TypeErrorNotOnInteger) {
  compileErr(proc("? integer A; ! boolean Y;", "   Y := not A"), CompileStage::Sema);
}

TEST(Sema, TypeErrorWhenConditionNotBool) {
  auto C = compileErr(proc("? integer A, B; ! integer Y;",
                           "   Y := A when B"),
                      CompileStage::Sema);
  EXPECT_NE(C->Diags.render().find("must be boolean"), std::string::npos);
}

TEST(Sema, TypeErrorDefaultMismatch) {
  compileErr(proc("? integer A; boolean B; ! integer Y;",
                  "   Y := A default B"),
             CompileStage::Sema);
}

TEST(Sema, IntegerWidensToReal) {
  compileOk(proc("? integer A; real B; ! real Y;", "   Y := A + B"));
  compileOk(proc("? integer A; ! real Y;", "   Y := A"));
}

TEST(Sema, KernelDumpPrintsRealsExactly) {
  // The dump prints the literal the emitted C keeps, not Value::str()'s
  // six decimals; a whole real keeps its `.0`.
  std::string K = kernelOf(proc("? real Y; ! real X, Z, W;",
                                "   X := Y * 0.1234567 | Z := Y + 2.0"
                                " | W := Y $ 1 init 1e-7"));
  EXPECT_NE(K.find("X := (Y * 0.1234567)"), std::string::npos) << K;
  EXPECT_NE(K.find("Z := (Y + 2.0)"), std::string::npos) << K;
  EXPECT_NE(K.find("W := Y $ 1 init 1e-07"), std::string::npos) << K;
}

TEST(Sema, SampledIntegerLiteralConvertsInPlace) {
  // A real signal sampling an integer literal holds the real literal: no
  // fresh integer signal, no per-instant ToReal.
  std::string K = kernelOf(proc("? boolean C; ! real X;", "   X := 3 when C"));
  EXPECT_NE(K.find("X := 3.0 when C"), std::string::npos) << K;
  EXPECT_EQ(K.find("real"), std::string::npos) << K;
}

TEST(Sema, RealDoesNotNarrowToInteger) {
  compileErr(proc("? real A; ! integer Y;", "   Y := A"), CompileStage::Sema);
}

TEST(Sema, ModRequiresIntegers) {
  compileErr(proc("? real A; ! real Y;", "   Y := A mod 2"), CompileStage::Sema);
}

TEST(Sema, OrderingComparisonNeedsNumbers) {
  compileErr(proc("? boolean A, B; ! boolean Y;", "   Y := A < B"), CompileStage::Sema);
}

TEST(Sema, EqualityOnBooleansAllowed) {
  compileOk(proc("? boolean A, B; ! boolean Y;", "   Y := A = B"));
}

TEST(Sema, DelayOfConstantRejected) {
  compileErr(proc("? integer A; ! integer Y;", "   Y := 3 $ 1 init 0"),
             CompileStage::Sema);
}

TEST(Sema, DelayInitTypeMismatch) {
  compileErr(proc("? integer A; ! integer Y;", "   Y := A $ 1 init true"),
             CompileStage::Sema);
  // As for 'cell': an integer may start a real signal's memory, a real
  // may not start an integer's.
  compileErr(proc("? integer A; ! integer Y;", "   Y := A $ 1 init 0.5"),
             CompileStage::Sema);
}

TEST(Sema, DeepDelayExpandsToChain) {
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A $ 3 init 0"));
  unsigned Delays = 0;
  for (const KernelEq &Eq : C->Kernel->Equations)
    Delays += Eq.Kind == KernelEqKind::Delay;
  EXPECT_EQ(Delays, 3u);
}

TEST(Sema, ConstantDefaultOperandRejected) {
  auto C = compileErr(proc("? integer A; ! integer Y;",
                           "   Y := A default 0"),
                      CompileStage::Sema);
  EXPECT_NE(C->Diags.render().find("sample it with 'when'"),
            std::string::npos);
}

TEST(Sema, ConstantWhenValueAllowed) {
  std::string K = kernelOf(proc("? boolean C; ! integer Y;",
                                "   Y := 1 when C"));
  EXPECT_NE(K.find("1 when C"), std::string::npos) << K;
}

TEST(Sema, WhenNotUsesNegativeLiteral) {
  std::string K = kernelOf(proc("? integer A; boolean C; ! integer Y;",
                                "   Y := A when (not C)"));
  EXPECT_NE(K.find("when not C"), std::string::npos) << K;
}

TEST(Sema, UnaryWhenLowersToConstTrueWhen) {
  auto C = compileOk(proc("? boolean C; ! event Y;", "   Y := when C"));
  bool Found = false;
  for (const KernelEq &Eq : C->Kernel->Equations) {
    if (Eq.Kind != KernelEqKind::When)
      continue;
    Found = true;
    EXPECT_TRUE(Eq.WhenValue.IsConst);
    EXPECT_TRUE(Eq.WhenPositive);
  }
  EXPECT_TRUE(Found);
}

TEST(Sema, EventLowersToSelfEquality) {
  std::string K = kernelOf(proc("? integer A; ! event Y;",
                                "   Y := event A"));
  EXPECT_NE(K.find("(A = A)"), std::string::npos) << K;
}

TEST(Sema, CellExpansion) {
  auto C = compileOk(proc("? integer X; boolean B; ! integer Y;",
                          "   Y := X cell B init 7"));
  // Expansion adds: one Delay, the Default defining Y, an event func, a
  // when, a clock-union default, plus one clock constraint.
  unsigned Delays = 0, Defaults = 0, Whens = 0;
  for (const KernelEq &Eq : C->Kernel->Equations) {
    Delays += Eq.Kind == KernelEqKind::Delay;
    Defaults += Eq.Kind == KernelEqKind::Default;
    Whens += Eq.Kind == KernelEqKind::When;
  }
  EXPECT_EQ(Delays, 1u);
  EXPECT_EQ(Defaults, 2u);
  EXPECT_EQ(Whens, 1u);
  EXPECT_EQ(C->Kernel->Constraints.size(), 1u);
}

TEST(Sema, SynchroLowersToConstraints) {
  auto C = compileOk(proc("? integer A, B; ! integer Y;",
                          "   Y := A + B\n   | synchro {A, B}"));
  EXPECT_EQ(C->Kernel->Constraints.size(), 1u);
}

TEST(Sema, ClockEqLowersToConstraint) {
  auto C = compileOk(proc("? integer A, B; ! integer Y;",
                          "   Y := A\n   | A ^= B"));
  EXPECT_EQ(C->Kernel->Constraints.size(), 1u);
}

TEST(Sema, FreshNamesUnspeakable) {
  auto C = compileOk(proc("? integer A; boolean C; ! integer Y;",
                          "   Y := (A + 1) when C"));
  for (const KernelSignal &S : C->Kernel->Signals)
    if (S.IsFresh) {
      std::string Name(C->names().spelling(S.Name));
      EXPECT_NE(Name.find('$'), std::string::npos);
    }
}

TEST(Sema, SingleAssignmentAcrossNestedComposition) {
  compileErr(proc("? integer A; ! integer Y;",
                  "   (| Y := A |)\n   | (| Y := A + 1 |)"),
             CompileStage::Sema);
}

TEST(Sema, FuncArgsDeduplicated) {
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A + A"));
  for (const KernelEq &Eq : C->Kernel->Equations) {
    if (Eq.Kind == KernelEqKind::Func &&
        C->names().spelling(C->Kernel->Signals[Eq.Target].Name) == "Y") {
      EXPECT_EQ(Eq.Args.size(), 1u);
    }
  }
}

TEST(Sema, CountClockVariables) {
  auto C = compileOk(proc("? boolean A; ! boolean Y;", "   Y := not A"));
  // Y, A boolean: 2 signals -> 2 clock vars + 2*2 literals = 6.
  EXPECT_EQ(C->Kernel->countClockVariables(), 6u);
}
