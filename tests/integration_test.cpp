//===--- integration_test.cpp - End-to-end pipeline behaviour -------------===//

#include "TestUtil.h"
#include "codegen/CEmitter.h"
#include "driver/Cli.h"
#include "interp/VmExecutor.h"

#include <gtest/gtest.h>

using namespace sigc;
using namespace sigc::test;

TEST(Integration, FailedStageIsReported) {
  EXPECT_EQ(compileSource("<t>", "process = (")->FailedStage,
            CompileStage::Parse);
  EXPECT_EQ(compileSource("<t>", proc("? integer A; ! integer Y;",
                                      "   Y := Q"))
                ->FailedStage,
            CompileStage::Sema);
  EXPECT_EQ(compileSource("<t>",
                          proc("? integer A; boolean CC, DD; ! integer Y;",
                               "   synchro {A, CC}\n   | synchro {A, DD}\n"
                               "   | T := A when CC\n"
                               "   | U := A when DD\n"
                               "   | synchro {T, U}\n   | Y := A",
                               "integer T, U;"))
                ->FailedStage,
            CompileStage::ClockCalculus);
  EXPECT_EQ(compileSource("<t>", proc("? integer A; ! integer Y;",
                                      "   Y := Z + A\n   | Z := Y + A",
                                      "integer Z;"))
                ->FailedStage,
            CompileStage::Graph);
}

TEST(Integration, CompileStageNamesAreCanonical) {
  EXPECT_STREQ(to_string(CompileStage::None), "none");
  EXPECT_STREQ(to_string(CompileStage::Parse), "parse");
  EXPECT_STREQ(to_string(CompileStage::Select), "select");
  EXPECT_STREQ(to_string(CompileStage::Sema), "sema");
  EXPECT_STREQ(to_string(CompileStage::ClockCalculus), "clock-calculus");
  EXPECT_STREQ(to_string(CompileStage::Graph), "graph");
}

TEST(Integration, UnknownEngineModeNamesValidModes) {
  // Same diagnostic shape as the --process typo fix: a typo'd --mode
  // must name every valid mode instead of sending the user to the
  // sources.
  EngineMode Mode = EngineMode::Vm;
  std::string Diag;
  EXPECT_TRUE(parseEngineMode("vm", Mode, Diag));
  EXPECT_EQ(Mode, EngineMode::Vm);
  EXPECT_TRUE(parseEngineMode("flat", Mode, Diag));
  EXPECT_EQ(Mode, EngineMode::Flat);

  EXPECT_FALSE(parseEngineMode("vmm", Mode, Diag));
  EXPECT_NE(Diag.find("unknown --mode 'vmm'"), std::string::npos) << Diag;
  EXPECT_NE(Diag.find("valid modes: vm, flat"), std::string::npos) << Diag;
}

TEST(Integration, ProcessSelectionByName) {
  std::string Two =
      "process A = ( ? integer X; ! integer Y; ) (| Y := X |);\n"
      "process B = ( ? integer U; ! integer V; ) (| V := U * 2 |);\n";
  CompileOptions O;
  O.ProcessName = "B";
  auto C = compileSource("<t>", Two, O);
  ASSERT_TRUE(C->Ok) << C->Diags.render();
  EXPECT_EQ(std::string(C->names().spelling(C->Decl->Name)), "B");

  O.ProcessName = "NOPE";
  auto C2 = compileSource("<t>", Two, O);
  EXPECT_FALSE(C2->Ok);
  EXPECT_EQ(C2->FailedStage, CompileStage::Select);
  // The diagnostic must name every declared process, so a typo'd
  // --process does not send the user source-diving.
  std::string Diags = C2->Diags.render();
  EXPECT_NE(Diags.find("no process named 'NOPE'"), std::string::npos)
      << Diags;
  EXPECT_NE(Diags.find("declared processes: A, B"), std::string::npos)
      << Diags;
}

TEST(Integration, CounterEndToEnd) {
  auto C = compileOk(proc("? integer STEP; ! integer TOTAL;",
                          "   TOTAL := STEP + (TOTAL $ 1 init 0)"));
  ScriptedEnvironment Env;
  Env.tickAlways();
  for (unsigned I = 0; I < 5; ++I)
    Env.set("STEP", I, Value::makeInt(static_cast<int>(I)));
  VmExecutor Exec(C->Compiled);
  Exec.run(Env, 5);
  EXPECT_EQ(formatEvents(Env.outputs()),
            "0 TOTAL=0\n1 TOTAL=1\n2 TOTAL=3\n3 TOTAL=6\n4 TOTAL=10\n");
}

TEST(Integration, WatchdogScenario) {
  // A watchdog: when DO_RELOAD is true the counter reloads, otherwise it
  // counts down each tick; EXPIRED fires at zero. The clock of CNT is the
  // master clock; the reload branch lives on [DO_RELOAD] — the same
  // inclusion-based cycle elimination as the paper's ALARM applies.
  auto C = compileOk(proc(
      "? integer RELOAD; boolean DO_RELOAD; ! boolean EXPIRED;",
      "   R := RELOAD when DO_RELOAD\n"
      "   | CNT := R default (PREV - 1)\n"
      "   | PREV := CNT $ 1 init 0\n"
      "   | synchro {CNT, DO_RELOAD}\n"
      "   | synchro {RELOAD, DO_RELOAD}\n"
      "   | EXPIRED := CNT <= 0",
      "integer R, CNT, PREV;"));
  ScriptedEnvironment Env;
  Env.tickAlways();
  bool Do[] = {true, false, false, false, true};
  for (unsigned I = 0; I < 5; ++I) {
    Env.set("DO_RELOAD", I, Value::makeBool(Do[I]));
    Env.set("RELOAD", I, Value::makeInt(3));
  }
  VmExecutor Exec(C->Compiled);
  Exec.run(Env, 5);
  EXPECT_EQ(formatEvents(Env.outputs()),
            "0 EXPIRED=false\n1 EXPIRED=false\n2 EXPIRED=false\n"
            "3 EXPIRED=true\n4 EXPIRED=false\n");
}

TEST(Integration, EmittedCMatchesInterpreterOnCounter) {
  // Compile the counter, emit C with the deterministic driver, build and
  // run it, and compare against the sums its LCG inputs imply.
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A + (Y $ 1 init 0)"));
  CEmitOptions O;
  O.WithDriver = true;
  O.DriverSteps = 8;
  std::string Code = emitC(C->Compiled, "p", O);

  std::string Dir = ::testing::TempDir();
  std::string CPath = Dir + "sig_int_test.c";
  std::string Bin = Dir + "sig_int_test";
  FILE *F = fopen(CPath.c_str(), "w");
  ASSERT_NE(F, nullptr);
  fputs(Code.c_str(), F);
  fclose(F);
  ASSERT_EQ(system(("cc -std=c99 -O1 -o " + Bin + " " + CPath).c_str()), 0);

  FILE *P = popen((Bin + " 2>/dev/null").c_str(), "r");
  ASSERT_NE(P, nullptr);
  std::string Got;
  char Buf[256];
  while (fgets(Buf, sizeof Buf, P))
    Got += Buf;
  pclose(P);

  // Recreate the driver's LCG to compute the expected outputs.
  unsigned long long State = 0x12345678ULL;
  auto Rng = [&]() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 33;
  };
  long long Total = 0;
  std::string Expect;
  for (unsigned I = 0; I < 8; ++I) {
    long long A = static_cast<long long>(Rng() % 100);
    Total += A;
    Expect += std::to_string(I) + " Y=" + std::to_string(Total) + "\n";
  }
  EXPECT_EQ(Got, Expect);
}

namespace {

/// Emits one program, appends a harness driving it once instant by
/// instant and once through the batched entry point, compiles and runs
/// both binaries, and returns their stdout — proving the emitted C's
/// step ≡ step_batch behaviourally (counters included).
std::pair<std::string, std::string> runStepAndBatchC(Compilation &C,
                                                     const std::string &Tag) {
  std::string Results[2];
  std::string Base = emitC(C.Compiled, "p", CEmitOptions());
  for (int BatchIdx = 0; BatchIdx < 2; ++BatchIdx) {
    std::string Code = Base;
    Code += "\n#include <stdio.h>\n";
    Code += "static unsigned long rng_state = 0x9876543UL;\n";
    Code += "static unsigned long rng(void) {\n";
    Code += "  rng_state = rng_state * 6364136223846793005UL + "
            "1442695040888963407UL;\n";
    Code += "  return rng_state >> 33;\n}\n";
    Code += "static p_in_t in_v[16]; static p_out_t out_v[16];\n";
    Code += "int main(void) {\n  p_state_t st;\n  unsigned i;\n";
    Code += "  p_init(&st);\n";
    Code += "  for (i = 0; i < 16u; ++i) {\n";
    for (const auto &CI : C.Compiled.ClockInputs)
      Code += "    in_v[i].tick_" + sanitizeIdent(CI.Name) + " = 1;\n";
    for (const auto &SI : C.Compiled.Inputs) {
      std::string Id = sanitizeIdent(SI.Name);
      if (SI.Type == TypeKind::Integer)
        Code += "    in_v[i]." + Id + " = (long)(rng() % 100);\n";
      else
        Code += "    in_v[i]." + Id + " = (int)(rng() & 1);\n";
    }
    Code += "  }\n";
    if (BatchIdx == 0)
      Code += "  for (i = 0; i < 16u; ++i) p_step(&st, &in_v[i], "
              "&out_v[i]);\n";
    else
      Code += "  p_step_batch(&st, in_v, out_v, 16u);\n";
    Code += "  for (i = 0; i < 16u; ++i) {\n";
    for (const auto &SO : C.Compiled.Outputs) {
      std::string Id = sanitizeIdent(SO.Name);
      Code += "    if (out_v[i]." + Id + "_present) printf(\"%u " + Id +
              "=%ld\\n\", i, (long)out_v[i]." + Id + ");\n";
    }
    Code += "  }\n";
    Code += "  printf(\"guards=%llu executed=%llu\\n\", st.guard_tests, "
            "st.executed);\n";
    Code += "  return 0;\n}\n";

    std::string BasePath = ::testing::TempDir() + "sig_batch_" + Tag + "_" +
                           std::to_string(BatchIdx);
    FILE *F = fopen((BasePath + ".c").c_str(), "w");
    EXPECT_NE(F, nullptr);
    fputs(Code.c_str(), F);
    fclose(F);
    EXPECT_EQ(system(("cc -std=c99 -Wall -Werror -O1 -o " + BasePath + " " +
                      BasePath + ".c")
                         .c_str()),
              0)
        << Code;
    FILE *P = popen((BasePath + " 2>/dev/null").c_str(), "r");
    EXPECT_NE(P, nullptr);
    char Buf[256];
    while (P && fgets(Buf, sizeof Buf, P))
      Results[BatchIdx] += Buf;
    if (P)
      pclose(P);
  }
  return {Results[0], Results[1]};
}

} // namespace

TEST(Integration, SteppedAndBatchedCBinariesAgree) {
  struct Case {
    const char *Tag;
    std::string Source;
  } Cases[] = {
      {"counter", proc("? integer A; ! integer Y;",
                       "   Y := A + (Y $ 1 init 0)")},
      {"sampler", proc("? integer A; boolean C1; ! integer Y;",
                       "   T := A when C1\n   | Y := T + (T $ 1 init 0)",
                       "integer T;")},
      {"merger", proc("? integer A; boolean C1; ! integer Y;",
                      "   U := A when C1\n   | V := A when (not C1)\n"
                      "   | Y := U default V",
                      "integer U, V;")},
  };
  for (const Case &K : Cases) {
    auto C = compileOk(K.Source);
    ASSERT_TRUE(C->Ok);
    auto [Stepped, Batched] = runStepAndBatchC(*C, K.Tag);
    EXPECT_FALSE(Stepped.empty()) << K.Tag;
    EXPECT_EQ(Stepped, Batched) << K.Tag;
  }
}

TEST(Integration, TemporallyIncorrectDiagnosisNamesEquation) {
  auto C = compileSource(
      "<t>", proc("? integer A; boolean CC, DD; ! integer Y;",
                  "   synchro {A, CC}\n   | synchro {A, DD}\n"
                  "   | T := A when CC\n   | U := A when DD\n"
                  "   | synchro {T, U}\n   | Y := A",
                  "integer T, U;"));
  EXPECT_FALSE(C->Ok);
  EXPECT_NE(C->Diags.render().find("temporally incorrect"),
            std::string::npos);
}

TEST(Integration, DiagnosticsCarryLocations) {
  auto C = compileSource("<t>", proc("? integer A; ! integer Y;",
                                     "   Y := A + Q"));
  ASSERT_TRUE(C->Diags.hasErrors());
  bool AnyLocated = false;
  for (const Diagnostic &D : C->Diags.diagnostics())
    AnyLocated |= D.Loc.isValid();
  EXPECT_TRUE(AnyLocated);
}

TEST(Integration, MultiOutputProcess) {
  auto C = compileOk(proc("? integer A; ! integer DBL, SQR;",
                          "   DBL := A * 2\n   | SQR := A * A"));
  ScriptedEnvironment Env;
  Env.tickAlways();
  Env.set("A", 0, Value::makeInt(5));
  VmExecutor Exec(C->Compiled);
  Exec.run(Env, 1);
  std::string Out = formatEvents(Env.outputs());
  EXPECT_NE(Out.find("DBL=10"), std::string::npos);
  EXPECT_NE(Out.find("SQR=25"), std::string::npos);
}

TEST(Integration, RealArithmetic) {
  auto C = compileOk(proc("? real A; ! real Y;", "   Y := A * 0.5"));
  ScriptedEnvironment Env;
  Env.tickAlways();
  Env.set("A", 0, Value::makeReal(3.0));
  VmExecutor Exec(C->Compiled);
  Exec.run(Env, 1);
  ASSERT_EQ(Env.outputs().size(), 1u);
  EXPECT_DOUBLE_EQ(Env.outputs()[0].Val.Real, 1.5);
}

TEST(Integration, EventOutput) {
  auto C = compileOk(proc("? boolean CC; ! event T;", "   T := when CC"));
  ScriptedEnvironment Env;
  Env.tickAlways();
  Env.set("CC", 0, Value::makeBool(true));
  Env.set("CC", 1, Value::makeBool(false));
  Env.set("CC", 2, Value::makeBool(true));
  VmExecutor Exec(C->Compiled);
  Exec.run(Env, 3);
  // T leaves by its declared type: an event, whatever kind `when CC`
  // computes in.
  EXPECT_EQ(formatEvents(Env.outputs()), "0 T=tick\n2 T=tick\n");
}
