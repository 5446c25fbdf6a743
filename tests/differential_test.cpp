//===--- differential_test.cpp - Simulation-oracle differential suite -----===//
///
/// Drives the src/testing/ oracle over
///   * the Figure-13 builtin program suite (plus the Figure-5 alarm),
///   * 100+ random well-clocked programs,
///   * the emitted-C round-trip, when a host C compiler is present,
/// asserting that the fixpoint interpreter, the VM on the flat and the
/// nested lowering of the step program and the compiled C all produce
/// identical traces —
/// the executable form of the paper's claim that the hierarchization
/// preserves the program's semantics (Section 3.4).
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "interp/KernelInterp.h"
#include "interp/VmExecutor.h"
#include "programs/Programs.h"
#include "testing/Oracle.h"
#include "testing/RandomProgram.h"
#include "testing/TraceCompare.h"

#include <gtest/gtest.h>

using namespace sigc;

//===----------------------------------------------------------------------===//
// The oracle itself must be able to see a divergence.
//===----------------------------------------------------------------------===//

TEST(TraceCompare, EqualTracesCompareEqual) {
  std::vector<OutputEvent> A = {{0, "X", Value::makeInt(1)},
                                {0, "Y", Value::makeInt(2)},
                                {1, "X", Value::makeInt(3)}};
  // Same events, different within-instant order: canonically equal.
  std::vector<OutputEvent> B = {{0, "Y", Value::makeInt(2)},
                                {0, "X", Value::makeInt(1)},
                                {1, "X", Value::makeInt(3)}};
  EXPECT_TRUE(compareTraces("a", A, "b", B).Equal);
}

TEST(TraceCompare, ValueDivergenceIsReported) {
  std::vector<OutputEvent> A = {{0, "X", Value::makeInt(1)},
                                {1, "X", Value::makeInt(2)}};
  std::vector<OutputEvent> B = {{0, "X", Value::makeInt(1)},
                                {1, "X", Value::makeInt(5)}};
  TraceDiff D = compareTraces("left", A, "right", B);
  EXPECT_FALSE(D.Equal);
  EXPECT_NE(D.Report.find("left: 1 X=2"), std::string::npos) << D.Report;
  EXPECT_NE(D.Report.find("right: 1 X=5"), std::string::npos) << D.Report;
}

TEST(TraceCompare, MissingEventIsReported) {
  std::vector<OutputEvent> A = {{0, "X", Value::makeInt(1)},
                                {2, "X", Value::makeInt(2)}};
  std::vector<OutputEvent> B = {{0, "X", Value::makeInt(1)}};
  TraceDiff D = compareTraces("full", A, "short", B);
  EXPECT_FALSE(D.Equal);
  EXPECT_NE(D.Report.find("<end of trace>"), std::string::npos) << D.Report;
}

TEST(Oracle, RejectsUncompilableSource) {
  OracleReport R = checkDifferential("broken", "process = (");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("compilation failed"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Random program generation.
//===----------------------------------------------------------------------===//

TEST(RandomProgram, DeterministicForFixedSeed) {
  RandomProgramOptions O;
  EXPECT_EQ(generateRandomProgram("P", 42, O),
            generateRandomProgram("P", 42, O));
}

TEST(RandomProgram, DifferentSeedsDiffer) {
  RandomProgramOptions O;
  EXPECT_NE(generateRandomProgram("P", 1, O),
            generateRandomProgram("P", 2, O));
}

TEST(RandomProgram, ClampsDegenerateOptions) {
  // Zero boolean inputs / zero outputs are clamped to the documented
  // minimums instead of corrupting the generator.
  RandomProgramOptions Gen;
  Gen.BoolInputs = 0;
  Gen.MaxOutputs = 0;
  std::string S = generateRandomProgram("P", 5, Gen);
  EXPECT_NE(S.find("boolean B1"), std::string::npos) << S;
  OracleOptions O;
  O.Instants = 16;
  OracleReport R = checkRandomDifferential(5, Gen, O);
  EXPECT_TRUE(R.Ok) << R.Error;
}

//===----------------------------------------------------------------------===//
// Figure-13 builtin suite.
//===----------------------------------------------------------------------===//

TEST(DifferentialBuiltins, Figure5Alarm) {
  OracleOptions O;
  O.Instants = 96;
  O.EnvSeed = 7;
  OracleReport R = checkDifferential("FIG5_ALARM", alarmFigure5Source(), O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_LT(R.GuardTestsNested, R.GuardTestsFlat);
}

namespace {

class Figure13Differential
    : public ::testing::TestWithParam<Figure13Program> {};

} // namespace

namespace sigc {
// Print the row by name: GoogleTest's default byte dump embeds heap
// addresses, so the listed test names would change from run to run.
void PrintTo(const Figure13Program &P, std::ostream *OS) {
  *OS << '"' << P.Name << '"';
}
} // namespace sigc

TEST_P(Figure13Differential, AllPathsAgree) {
  const Figure13Program &P = GetParam();
  OracleOptions O;
  O.Instants = 48;
  O.EnvSeed = 3;
  // The C leg runs on the whole builtin suite (skipped, not failed, on
  // compiler-less hosts); counters pin to the VM inside the oracle.
  O.EmitCRoundTrip = true;
  OracleReport R = checkDifferential(P.Name, P.Source, O);
  EXPECT_TRUE(R.Ok) << R.Error;
  // Figure 9's economy: with guard chains collapsed, the nested
  // structure tests fewer guards than flat on every builtin.
  EXPECT_LT(R.GuardTestsNested, R.GuardTestsFlat) << P.Name;
}

INSTANTIATE_TEST_SUITE_P(Suite, Figure13Differential,
                         ::testing::ValuesIn(figure13Suite()),
                         [](const auto &Info) { return Info.param.Name; });

//===----------------------------------------------------------------------===//
// Emitted-C round-trip (compiles the generated C with the host cc).
//===----------------------------------------------------------------------===//

TEST(DifferentialEmitC, Alarm) {
  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  OracleOptions O;
  O.Instants = 64;
  O.EnvSeed = 11;
  O.EmitCRoundTrip = true;
  // The native hot-swap leg rides along: swap at every batch boundary,
  // trace and counters pinned to the pure VM run.
  O.NativeSwap = true;
  OracleReport R = checkDifferential("FIG5_ALARM", alarmFigure5Source(), O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.CRoundTripRan);
  EXPECT_TRUE(R.NativeSwapRan);
  // The generated C maintains its own guard/executed counters and the
  // oracle pins them to the VM's; the parsed values surface here.
  EXPECT_EQ(R.GuardTestsC, R.GuardTestsNested);
  EXPECT_EQ(R.ExecutedC, R.ExecutedNested);
  EXPECT_GT(R.GuardTestsC, 0u);
  EXPECT_GT(R.ExecutedC, 0u);
}

TEST(DifferentialEmitC, AlarmLargeBatchWindow) {
  // The batched VM leg at a window larger than the instant count — one
  // stepN call covers the whole run.
  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  OracleOptions O;
  O.Instants = 64;
  O.EnvSeed = 11;
  O.BatchSize = 128;
  O.EmitCRoundTrip = true;
  OracleReport R = checkDifferential("FIG5_ALARM", alarmFigure5Source(), O);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(DifferentialEmitC, BooleanVsEventComparisonMatchesValueSemantics) {
  // Sema accepts `=` between any boolish pair, an event being an
  // always-true boolean, so B = E is B and B /= E is not B. Every engine
  // must answer that: the VM and the fixpoint interpreter (checked
  // directly below), and the flat lowering and the emitted C (checked
  // equal to them by the oracle). Value::operator== would call a boolean
  // and an event unequal whatever the payload.
  const char *Source =
      "process P =\n"
      "  ( ? boolean B; event E; ! boolean Y, N; )\n"
      "  (| Y := B = E\n"
      "   | N := B /= E\n"
      "   | synchro {B, E}\n"
      "  |);\n";
  const unsigned Instants = 24;
  auto C = compileSource("bool-vs-event", Source);
  ASSERT_TRUE(C->Ok);
  RandomEnvironment EnvVm(13), EnvRef(13);
  VmExecutor Vm(C->Compiled);
  Vm.run(EnvVm, Instants);
  KernelInterp Ref(*C->Kernel, C->Clocks, *C->Forest, C->names());
  ASSERT_TRUE(Ref.run(EnvRef, Instants));
  for (RandomEnvironment *Env : {&EnvVm, &EnvRef}) {
    VmSlot BCol[Instants];
    Env->inputValues(Env->resolveInput("B", TypeKind::Boolean), 0, Instants,
                     BCol);
    unsigned Trues = 0, Falses = 0;
    for (const OutputEvent &Ev : Env->outputs()) {
      bool B = BCol[Ev.Instant].I != 0;
      ASSERT_EQ(Ev.Val.Kind, TypeKind::Boolean) << Ev.Signal;
      EXPECT_EQ(Ev.Val.Bool, Ev.Signal == "Y" ? B : !B)
          << Ev.Signal << " at instant " << Ev.Instant;
      (B ? Trues : Falses) += Ev.Signal == "Y";
    }
    EXPECT_GT(Trues, 0u) << "the stimulus must exercise B = true";
    EXPECT_GT(Falses, 0u) << "the stimulus must exercise B = false";
  }

  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  OracleOptions O;
  O.Instants = Instants;
  O.EnvSeed = 13;
  O.EmitCRoundTrip = true;
  OracleReport R = checkDifferential("bool-vs-event", Source, O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.CRoundTripRan);
}

TEST(DifferentialEmitC, RealDelayWithIntegerInitStaysReal) {
  // `init 1` on a real signal: lowering makes the literal a real, so
  // every engine's memory holds a real throughout, and the emitted C
  // does not truncate the stored reals.
  const char *Source =
      "process P =\n"
      "  ( ? real X; ! real Y; )\n"
      "  (| Y := X $ 1 init 1 |);\n";
  auto C = compileSource("real-delay", Source);
  ASSERT_TRUE(C->Ok);
  ASSERT_EQ(C->Compiled.StateInit.size(), 1u);
  EXPECT_EQ(C->Compiled.StateInit[0].Kind, TypeKind::Real);
  VmExecutor Vm(C->Compiled);
  RandomEnvironment Env(3);
  Vm.run(Env, 16);
  VmSlot X[16];
  Env.inputValues(Env.resolveInput("X", TypeKind::Real), 0, 16, X);
  // Y ticks with X and carries X's value from X's previous tick.
  const std::vector<OutputEvent> &Out = Env.outputs();
  ASSERT_GE(Out.size(), 2u);
  EXPECT_EQ(Out[0].Val.Kind, TypeKind::Real);
  EXPECT_EQ(Out[0].Val.Real, 1.0);
  for (size_t K = 1; K < Out.size(); ++K) {
    EXPECT_EQ(Out[K].Val.Kind, TypeKind::Real);
    EXPECT_EQ(Out[K].Val.Real, X[Out[K - 1].Instant].R);
  }

  OracleOptions O;
  O.Instants = 32;
  O.EnvSeed = 3;
  O.EmitCRoundTrip = hostCCompilerAvailable();
  OracleReport R = checkDifferential("real-delay", Source, O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.CRoundTripRan, O.EmitCRoundTrip);
}

TEST(DifferentialEmitC, RealSignalDefinedByIntegersHoldsReals) {
  // X is declared real and computed by integer arithmetic: the definition
  // converts, so X, the delay memory Y and its `init 7` hold reals in
  // every engine. Y / 2 divides reals, and E, which would be false where
  // an integer division truncated, is true at every instant.
  const char *Source =
      "process P =\n"
      "  ( ? integer I; ! boolean E; )\n"
      "  (| X := I + 1 | Y := X $ 1 init 7 | E := (Y / 2) * 2 = Y |)\n"
      "  where real X, Y; end;\n";
  auto C = compileSource("real-defined-by-integers", Source);
  ASSERT_TRUE(C->Ok);
  ASSERT_EQ(C->Compiled.StateInit.size(), 1u);
  EXPECT_EQ(C->Compiled.StateInit[0].Kind, TypeKind::Real);
  RandomEnvironment Env(2);
  VmExecutor Vm(C->Compiled);
  Vm.run(Env, 16);
  ASSERT_FALSE(Env.outputs().empty());
  for (const OutputEvent &Ev : Env.outputs())
    EXPECT_EQ(Ev.Val.str(), Value::makeBool(true).str())
        << "instant " << Ev.Instant << ": 7.0 / 2 * 2 is 7.0 in reals";

  OracleOptions O;
  O.Instants = 32;
  O.EnvSeed = 2;
  O.EmitCRoundTrip = hostCCompilerAvailable();
  OracleReport R = checkDifferential("real-defined-by-integers", Source, O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.CRoundTripRan, O.EmitCRoundTrip);
}

TEST(DifferentialNativeSwap, RealOutputCarryingIntegersKeepsItsText) {
  // X is declared real and defined by the integers of I + 1. Outputs
  // leave every engine by their declared type, so the VM prints
  // X=97.000000 as the native step does, and the swap leg's formatEvents
  // text agrees at every boundary.
  const char *Source = "process K = ( ? integer I; ! real X; ) "
                       "(| X := I + 1 |);";
  auto C = compileSource("real-output-integers", Source);
  ASSERT_TRUE(C->Ok);
  RandomEnvironment Env(1);
  VmExecutor Vm(C->Compiled);
  Vm.run(Env, 4);
  ASSERT_FALSE(Env.outputs().empty());
  for (const OutputEvent &E : Env.outputs())
    EXPECT_EQ(E.Val.Kind, TypeKind::Real) << formatEvents(Env.outputs());

  OracleOptions O;
  O.Instants = 24;
  O.BatchSize = 4;
  O.EmitCRoundTrip = hostCCompilerAvailable();
  O.NativeSwap = hostCCompilerAvailable();
  OracleReport R = checkDifferential("real-output-integers", Source, O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.NativeSwapRan, O.NativeSwap);
}

TEST(DifferentialNativeSwap, EventOutputOfABooleanReadsAsTick) {
  // T is declared event but defined by `when CC`, whose static kind is
  // boolean: by its declared type, every engine reports it as an event.
  const char *Source = "process P = ( ? boolean CC; ! event T; ) "
                       "(| T := when CC |);";
  OracleOptions O;
  O.Instants = 24;
  O.BatchSize = 4;
  O.EmitCRoundTrip = hostCCompilerAvailable();
  O.NativeSwap = hostCCompilerAvailable();
  OracleReport R = checkDifferential("event-output-of-boolean", Source, O);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(DifferentialEmitC, RandomPrograms) {
  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  RandomProgramOptions Gen;
  OracleOptions O;
  O.Instants = 32;
  O.EmitCRoundTrip = true;
  for (uint64_t Seed = 9000; Seed < 9008; ++Seed) {
    O.EnvSeed = Seed;
    OracleReport R = checkRandomDifferential(Seed, Gen, O);
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.CRoundTripRan);
    EXPECT_EQ(R.GuardTestsC, R.GuardTestsNested);
    EXPECT_EQ(R.ExecutedC, R.ExecutedNested);
  }
}

TEST(DifferentialNativeSwap, RandomPrograms) {
  // The oracle's hot-swap leg over generated programs: one native
  // artifact per program through the production cache path, swapped in
  // at every batch boundary (batch size varied per seed so the swap
  // points cover different instant phases). Delay-heavy generation
  // makes the state handoff carry real accumulator values.
  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  RandomProgramOptions Gen;
  Gen.AccumulatorPercent = 60;
  OracleOptions O;
  O.Instants = 40;
  O.NativeSwap = true;
  for (uint64_t Seed = 4200; Seed < 4204; ++Seed) {
    O.EnvSeed = Seed + 5;
    O.BatchSize = 1 + static_cast<unsigned>(Seed % 9);
    OracleReport R = checkRandomDifferential(Seed, Gen, O);
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.NativeSwapRan);
  }
}

//===----------------------------------------------------------------------===//
// Random-program sweep: 100+ seeds through all in-process paths.
//===----------------------------------------------------------------------===//

namespace {

class RandomDifferential : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(RandomDifferential, AllPathsAgree) {
  unsigned Block = GetParam();
  RandomProgramOptions Gen;
  OracleOptions O;
  O.Instants = 48;
  // Every random program round-trips through the host C compiler too
  // (8 blocks x 16 seeds = 128 programs through the emitted-C leg).
  O.EmitCRoundTrip = true;
  for (uint64_t Seed = Block * 16; Seed < (Block + 1) * 16ull; ++Seed) {
    O.EnvSeed = Seed * 31 + 1;
    // Vary the batched leg's window so the sweep covers every
    // batch/instant-count phase, not just one.
    O.BatchSize = 1 + static_cast<unsigned>(Seed % 9);
    OracleReport R = checkRandomDifferential(Seed, Gen, O);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}

// 8 blocks x 16 seeds = 128 random programs.
INSTANTIATE_TEST_SUITE_P(Sweep, RandomDifferential,
                         ::testing::Range(0u, 8u));

//===----------------------------------------------------------------------===//
// Real-typed sweep: conversions, mixed operators and real code on every
// leg.
//===----------------------------------------------------------------------===//

TEST(RealProgram, DeterministicForFixedSeed) {
  EXPECT_EQ(generateRealProgram("P", 42), generateRealProgram("P", 42));
  EXPECT_NE(generateRealProgram("P", 1), generateRealProgram("P", 2));
}

namespace {

class RealDifferential : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(RealDifferential, AllPathsAgree) {
  // Each program lowers at least one integer-to-real conversion, and the
  // interpreter, the VM on both lowerings, batched windows, the emitted C
  // and the native swap all agree on it.
  const bool HaveCc = hostCCompilerAvailable();
  OracleOptions O;
  O.Instants = 40;
  O.EmitCRoundTrip = HaveCc;
  O.NativeSwap = HaveCc;
  unsigned Shard = GetParam();
  for (uint64_t Seed = Shard * 8; Seed < (Shard + 1) * 8ull; ++Seed) {
    std::string Source = generateRealProgram("MIXED", Seed);
    auto C = compileSource("real-" + std::to_string(Seed), Source);
    ASSERT_TRUE(C->Ok) << Source << C->Diags.render();
    unsigned Conversions = 0;
    for (const KernelEq &Eq : C->Kernel->Equations)
      for (const FuncNode &N : Eq.Nodes)
        Conversions += N.Kind == FuncNode::Kind::Unary &&
                       N.UOp == UnaryOp::ToReal;
    EXPECT_GT(Conversions, 0u) << Source;
    O.EnvSeed = Seed * 17 + 3;
    O.BatchSize = 1 + static_cast<unsigned>(Seed % 7);
    OracleReport R =
        checkDifferential("real-" + std::to_string(Seed), Source, O);
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.CRoundTripRan, HaveCc);
    EXPECT_EQ(R.NativeSwapRan, HaveCc);
  }
}

// 4 shards x 8 seeds = 32 real-typed programs.
INSTANTIATE_TEST_SUITE_P(Sweep, RealDifferential, ::testing::Range(0u, 4u));

//===----------------------------------------------------------------------===//
// Sparse clocks and bigger programs: variations of the generator knobs.
//===----------------------------------------------------------------------===//

TEST(RandomDifferential, SparseTicks) {
  RandomProgramOptions Gen;
  OracleOptions O;
  O.Instants = 64;
  O.TickPermille = 300; // mostly-absent free clocks
  O.EmitCRoundTrip = true;
  for (uint64_t Seed = 500; Seed < 516; ++Seed) {
    O.EnvSeed = Seed + 99;
    OracleReport R = checkRandomDifferential(Seed, Gen, O);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}

TEST(RandomDifferential, LargerPrograms) {
  RandomProgramOptions Gen;
  Gen.Equations = 32;
  Gen.IntInputs = 4;
  Gen.BoolInputs = 4;
  Gen.MaxOutputs = 6;
  OracleOptions O;
  O.Instants = 32;
  O.EmitCRoundTrip = true;
  for (uint64_t Seed = 700; Seed < 712; ++Seed) {
    O.EnvSeed = Seed;
    OracleReport R = checkRandomDifferential(Seed, Gen, O);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}
