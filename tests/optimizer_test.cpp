//===--- optimizer_test.cpp - The optimizer pass over CompiledStep --------===//
///
/// optimize (interp/CompiledStep.h) must leave every run as it found it:
/// the same trace and the same executed and guard-test counters, on the
/// VM and on the emitted C, as the unoptimized layout (CompiledStep::
/// layOut). Structurally it never grows a step, keeps every skip, keeps
/// each weight within int8_t and the total weight, reads a delay memory
/// only ahead of the memory's store, and is idempotent. Checked on the
/// builtins, the random, real, pair and chain sweep programs and the
/// fused steps of the pair and chain systems.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/VmExecutor.h"
#include "link/Linker.h"
#include "programs/Programs.h"
#include "testing/Oracle.h"
#include "testing/RandomProgram.h"

#include <gtest/gtest.h>

using namespace sigc;
using namespace sigc::test;

namespace {

bool sameInstr(const VmInstr &A, const VmInstr &B) {
  return A.Op == B.Op && A.Weight == B.Weight && A.Target == B.Target &&
         A.A == B.A && A.B == B.B && A.Aux == B.Aux;
}

/// Structural checks of an optimized step \p Opt; \p Ref is its
/// unoptimized layout when there is one.
void expectOptimizedShape(const CompiledStep &Opt, const CompiledStep *Ref,
                          const std::string &What) {
  unsigned Skips = 0;
  int64_t Weight = 0;
  std::vector<int32_t> FirstStore(Opt.StateInit.size(), INT32_MAX);
  for (int32_t PC = 0; PC < static_cast<int32_t>(Opt.Code.size()); ++PC) {
    const VmInstr &In = Opt.Code[PC];
    EXPECT_GE(In.Weight, 0) << What << " pc " << PC;
    Weight += In.Weight;
    if (In.Op == VmOp::SkipIfAbsent) {
      ++Skips;
      EXPECT_EQ(In.Weight, 0) << What << " pc " << PC;
    }
    if (In.Op == VmOp::CopyValue && In.Target >= Opt.valueEnd()) {
      int32_t &First = FirstStore[In.Target - Opt.valueEnd()];
      First = std::min(First, PC);
    }
  }
  // A value operand naming delay memory k reads it before this
  // instant's store of it, as the delay load it replaces did.
  for (int32_t PC = 0; PC < static_cast<int32_t>(Opt.Code.size()); ++PC) {
    const VmInstr &In = Opt.Code[PC];
    VmOperands Ops = vmOperands(In.Op);
    for (auto [S, F] : {std::pair{Ops.A, In.A}, {Ops.B, In.B}}) {
      if (S == OperandSpace::Value && F >= Opt.valueEnd()) {
        EXPECT_LE(PC, FirstStore[F - Opt.valueEnd()]) << What << " pc " << PC;
      }
    }
  }

  CompiledStep Again = Opt;
  optimize(Again);
  ASSERT_EQ(Again.Code.size(), Opt.Code.size()) << What;
  for (size_t PC = 0; PC < Opt.Code.size(); ++PC)
    EXPECT_TRUE(sameInstr(Again.Code[PC], Opt.Code[PC])) << What << " pc "
                                                          << PC;
  EXPECT_EQ(Again.Dropped, Opt.Dropped) << What;

  if (!Ref)
    return;
  unsigned RefSkips = 0;
  int64_t RefWeight = 0;
  for (const VmInstr &In : Ref->Code) {
    RefSkips += In.Op == VmOp::SkipIfAbsent;
    RefWeight += In.Weight;
  }
  EXPECT_LE(Opt.Code.size(), Ref->Code.size()) << What;
  EXPECT_EQ(Opt.Code.size() + Opt.Dropped, Ref->Code.size()) << What;
  EXPECT_EQ(Skips, RefSkips) << What;
  EXPECT_EQ(Weight, RefWeight) << What;
}

/// Both lowerings of the program \p Source, against their layouts.
void expectOptimizedProgram(const std::string &Source,
                            const std::string &What) {
  auto C = compileSource("<optimizer>", Source);
  ASSERT_TRUE(C->Ok) << What << "\n" << C->Diags.render();
  for (GuardLowering L : {GuardLowering::Nested, GuardLowering::Flat}) {
    CompiledStep Ref = CompiledStep::layOut(C->Step, L);
    CompiledStep Opt = CompiledStep::build(C->Step, L);
    expectOptimizedShape(Opt, &Ref,
                         What + (L == GuardLowering::Flat ? " flat" : ""));
  }
}

/// The fused step of the linked system of \p Units.
void expectOptimizedSystem(const std::vector<LinkInput> &Units,
                           const std::string &What) {
  LinkResult R = compileAndLinkSources(Units);
  ASSERT_TRUE(R.Sys) << What << ": " << R.Error;
  expectOptimizedShape(R.Sys->Fused, nullptr, What);
}

class OptimizedBuiltin : public ::testing::TestWithParam<const char *> {};

std::string builtinSource(const std::string &Name) {
  if (Name == "FIG5_ALARM")
    return alarmFigure5Source();
  for (const Figure13Program &P : figure13Suite())
    if (P.Name == Name)
      return P.Source;
  ADD_FAILURE() << "unknown builtin " << Name;
  return "";
}

} // namespace

TEST_P(OptimizedBuiltin, RunsAsItsLayoutOnTheVmAndInC) {
  const std::string Name = GetParam();
  const std::string Source = builtinSource(Name);
  auto C = compileOk(Source);
  ASSERT_TRUE(C->Ok) << Name;
  expectOptimizedProgram(Source, Name);
  CompiledStep Ref = CompiledStep::layOut(C->Step);
  const CompiledStep &Opt = C->Compiled;
  EXPECT_GT(Opt.Dropped, 0u) << Name;

  OracleOptions O;
  O.Instants = 200;
  O.EnvSeed = 11;
  RandomEnvironment EnvRef(O.EnvSeed, O.TickPermille);
  RandomEnvironment EnvOpt(O.EnvSeed, O.TickPermille);
  VmExecutor VmRef(Ref), VmOpt(Opt);
  VmRef.run(EnvRef, O.Instants);
  VmOpt.run(EnvOpt, O.Instants);
  EXPECT_EQ(formatEvents(EnvOpt.outputs()), formatEvents(EnvRef.outputs()));
  EXPECT_EQ(VmOpt.executed(), VmRef.executed());
  EXPECT_EQ(VmOpt.guardTests(), VmRef.guardTests());

  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  std::vector<OutputEvent> CRef, COpt;
  uint64_t GuardsRef = 0, ExecRef = 0, GuardsOpt = 0, ExecOpt = 0;
  std::string Error;
  ASSERT_TRUE(runCRoundTrip(Ref, Name, O, CRef, GuardsRef, ExecRef, Error))
      << Error;
  ASSERT_TRUE(runCRoundTrip(Opt, Name, O, COpt, GuardsOpt, ExecOpt, Error))
      << Error;
  EXPECT_EQ(formatEvents(COpt), formatEvents(CRef));
  EXPECT_EQ(formatEvents(COpt), formatEvents(EnvOpt.outputs()));
  EXPECT_EQ(ExecOpt, ExecRef);
  EXPECT_EQ(GuardsOpt, GuardsRef);
  EXPECT_EQ(ExecOpt, VmOpt.executed());
  EXPECT_EQ(GuardsOpt, VmOpt.guardTests());
}

INSTANTIATE_TEST_SUITE_P(Builtins, OptimizedBuiltin,
                         ::testing::Values("FIG5_ALARM", "STOPWATCH", "WATCH",
                                           "ALARM", "CHRONO", "SUPERVISOR",
                                           "PACE_MAKER", "ROBOT"));

TEST(Optimizer, RandomAndRealSweepPrograms) {
  for (uint64_t Seed = 0; Seed < 128; ++Seed)
    expectOptimizedProgram(generateRandomProgram("P", Seed),
                           "random " + std::to_string(Seed));
  for (uint64_t Seed = 0; Seed < 32; ++Seed)
    expectOptimizedProgram(generateRealProgram("MIXED", Seed),
                           "real " + std::to_string(Seed));
}

TEST(Optimizer, PairAndChainSweepSystems) {
  for (uint64_t Seed = 0; Seed < 104; ++Seed) {
    GeneratedPair P = generateProcessPair(Seed);
    std::string What = "pair " + std::to_string(Seed);
    expectOptimizedProgram(P.ComposedSource, What + " composed");
    expectOptimizedSystem({{P.ProducerName, P.ProducerSource},
                           {P.ConsumerName, P.ConsumerSource}},
                          What);
  }
  for (unsigned Stages : {3u, 4u})
    for (uint64_t Seed = 0; Seed < 6; ++Seed) {
      GeneratedChain Chain = generateProcessChain(Seed, Stages);
      std::string What = "chain " + std::to_string(Stages) + "-" +
                         std::to_string(Seed);
      expectOptimizedProgram(Chain.ComposedSource, What + " composed");
      std::vector<LinkInput> Units;
      for (size_t K = 0; K < Chain.Sources.size(); ++K)
        Units.push_back({Chain.Names[K], Chain.Sources[K]});
      expectOptimizedSystem(Units, What);
    }
}
