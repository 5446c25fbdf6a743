//===--- optimizer_test.cpp - The optimizer pass over a step's groups -----===//
///
/// optimize (interp/CompiledStep.h) must leave every trace as the
/// unoptimized layout (CompiledStep::layOut) has it, and never raise the
/// executed or guard-test count of a run, on the VM and on the emitted C.
/// Structurally it never grows a step or adds a skip, deletes only what
/// it reports as dropped, reads a delay memory only ahead of the memory's
/// store, and is idempotent. Checked on the builtins, the random, real,
/// pair and chain sweep programs and the fused steps of the pair and
/// chain systems.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/VmExecutor.h"
#include "link/Linker.h"
#include "link/StepFusion.h"
#include "programs/Programs.h"
#include "testing/Oracle.h"
#include "testing/RandomProgram.h"

#include <gtest/gtest.h>

using namespace sigc;
using namespace sigc::test;

namespace {

bool sameInstr(const VmInstr &A, const VmInstr &B) {
  return A.Op == B.Op && A.Target == B.Target && A.A == B.A && A.B == B.B &&
         A.Aux == B.Aux;
}

unsigned countSkips(const CompiledStep &CS) {
  unsigned Skips = 0;
  for (const VmInstr &In : CS.Code)
    Skips += In.Op == VmOp::SkipIfAbsent;
  return Skips;
}

/// Structural checks of an optimized step \p Opt; \p Ref is its
/// unoptimized layout when there is one.
void expectOptimizedShape(const CompiledStep &Opt, const CompiledStep *Ref,
                          const std::string &What) {
  std::vector<int32_t> FirstStore(Opt.StateInit.size(), INT32_MAX);
  for (int32_t PC = 0; PC < static_cast<int32_t>(Opt.Code.size()); ++PC) {
    const VmInstr &In = Opt.Code[PC];
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
  if (!Ref)
    return;
  const unsigned Skips = countSkips(Opt), RefSkips = countSkips(*Ref);
  EXPECT_LE(Opt.Code.size(), Ref->Code.size()) << What;
  EXPECT_LE(Skips, RefSkips) << What;
  EXPECT_EQ(Opt.Code.size() - Skips + Opt.Dropped,
            Ref->Code.size() - RefSkips)
      << What;
}

/// A second optimize of the skip-free \p Code and \p Groups an optimize
/// left deletes nothing and changes no instruction or group end.
void expectOptimizeIdempotent(const CompiledStep &Slots,
                              const std::vector<VmInstr> &Code,
                              const std::vector<StepGroup> &Groups,
                              const std::string &What) {
  std::vector<VmInstr> Again = Code;
  std::vector<StepGroup> AgainGroups = Groups;
  EXPECT_EQ(optimize(Slots, Again, AgainGroups), 0u) << What;
  ASSERT_EQ(Again.size(), Code.size()) << What;
  for (size_t PC = 0; PC < Code.size(); ++PC)
    EXPECT_TRUE(sameInstr(Again[PC], Code[PC])) << What << " pc " << PC;
  ASSERT_EQ(AgainGroups.size(), Groups.size()) << What;
  for (size_t G = 0; G < Groups.size(); ++G)
    EXPECT_EQ(AgainGroups[G].End, Groups[G].End) << What << " group " << G;
}

/// Runs \p Opt and its layout \p Ref on one random trace: the same
/// outputs, and no counter higher.
void expectRunsNoHigher(const CompiledStep &Opt, const CompiledStep &Ref,
                        unsigned Instants, const std::string &What) {
  RandomEnvironment EnvRef(11), EnvOpt(11);
  VmExecutor VmRef(Ref), VmOpt(Opt);
  VmRef.run(EnvRef, Instants);
  VmOpt.run(EnvOpt, Instants);
  EXPECT_EQ(formatEvents(EnvOpt.outputs()), formatEvents(EnvRef.outputs()))
      << What;
  EXPECT_LE(VmOpt.executed(), VmRef.executed()) << What;
  EXPECT_LE(VmOpt.guardTests(), VmRef.guardTests()) << What;
}

/// Both lowerings of the program \p Source against their layouts, and
/// optimize is idempotent on its groups.
void expectOptimizedProgram(const std::string &Source,
                            const std::string &What) {
  auto C = compileSource("<optimizer>", Source);
  ASSERT_TRUE(C->Ok) << What << "\n" << C->Diags.render();
  for (GuardLowering L : {GuardLowering::Nested, GuardLowering::Flat}) {
    const std::string Name = What + (L == GuardLowering::Flat ? " flat" : "");
    CompiledStep Ref = CompiledStep::layOut(C->Step, L);
    CompiledStep Opt = CompiledStep::build(C->Step, L);
    expectOptimizedShape(Opt, &Ref, Name);
    expectRunsNoHigher(Opt, Ref, 64, Name);
  }

  std::vector<VmInstr> Code = C->Step.Code;
  std::vector<StepGroup> Groups = C->Step.Groups;
  EXPECT_EQ(optimize(C->Compiled, Code, Groups), C->Compiled.Dropped) << What;
  expectOptimizeIdempotent(C->Compiled, Code, Groups, What);
}

/// The fused step of the linked system of \p Units, and optimize is
/// idempotent on the groups fusion optimized.
void expectOptimizedSystem(const std::vector<LinkInput> &Units,
                           const std::string &What) {
  LinkResult R = compileAndLinkSources(Units);
  ASSERT_TRUE(R.Sys) << What << ": " << R.Error;
  expectOptimizedShape(R.Sys->Fused, nullptr, What);

  FusionResult F = fuseLinkedSteps(*R.Sys);
  ASSERT_TRUE(F.Ok) << What << ": " << F.Error;
  ASSERT_EQ(F.Fused.Code.size(), R.Sys->Fused.Code.size()) << What;
  for (size_t PC = 0; PC < F.Fused.Code.size(); ++PC)
    EXPECT_TRUE(sameInstr(F.Fused.Code[PC], R.Sys->Fused.Code[PC]))
        << What << " pc " << PC;
  std::vector<VmInstr> Laid =
      layOutGuards(F.Code, F.Groups, GuardLowering::Nested);
  ASSERT_EQ(Laid.size(), F.Fused.Code.size()) << What;
  for (size_t PC = 0; PC < Laid.size(); ++PC)
    EXPECT_TRUE(sameInstr(Laid[PC], F.Fused.Code[PC])) << What << " pc "
                                                        << PC;
  expectOptimizeIdempotent(F.Fused, F.Code, F.Groups, What);
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
  EXPECT_LT(VmOpt.executed(), VmRef.executed());
  EXPECT_LE(VmOpt.guardTests(), VmRef.guardTests());

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
  EXPECT_LE(ExecOpt, ExecRef);
  EXPECT_LE(GuardsOpt, GuardsRef);
  EXPECT_EQ(ExecRef, VmRef.executed());
  EXPECT_EQ(GuardsRef, VmRef.guardTests());
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
