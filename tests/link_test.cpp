//===--- link_test.cpp - Separate compilation + linker unit tests ---------===//
///
/// Covers the src/link/ subsystem: ProcessInterface extraction (restricted
/// forest shape, endochrony verdicts), channel matching and its error
/// cases, the BDD-implication compatibility check, the cross-process
/// schedule, the no-re-resolution guarantee, parallel vs serial
/// compilation, linked execution (the fused step on the VM, including the
/// dynamic clock check) and the fused step's C emission, which must
/// honour the dynamic check too.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "codegen/CEmitter.h"
#include "interp/VmExecutor.h"
#include "link/Linker.h"
#include "testing/Oracle.h"
#include "testing/RandomProgram.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

using namespace sigc;
using namespace sigc::test;

namespace {

const char *SensorSource = R"(
process SENSOR =
  ( ? integer RAW;
    ! integer KEPT, SUM; )
  (| EVENFLAG := (RAW mod 2) = 0
   | KEPT := RAW when EVENFLAG
   | SUM := KEPT + (SUM $ 1 init 0)
  |)
  where
    boolean EVENFLAG;
  end;
)";

const char *MonitorSource = R"(
process MONITOR =
  ( ? integer KEPT, SUM;
    ! integer TOTAL; boolean ALERT; )
  (| synchro {KEPT, SUM}
   | TOTAL := KEPT + (TOTAL $ 1 init 0)
   | ALERT := SUM > 20
  |);
)";

LinkResult linkSensorMonitor() {
  return compileAndLinkSources(
      {{"SENSOR", SensorSource}, {"MONITOR", MonitorSource}});
}

LinkResult linkProdCons() {
  return compileAndLinkSources(linkedDynamicCheckInputs());
}

/// Always ticking; A = 10 * I, and B false at instant 3 only.
void scriptMismatchAtThree(ScriptedEnvironment &Env) {
  Env.tickAlways();
  for (unsigned I = 0; I < 8; ++I) {
    Env.set("A", I, Value::makeInt(10 * I));
    Env.set("B", I, Value::makeBool(I != 3));
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// ProcessInterface extraction
//===----------------------------------------------------------------------===//

TEST(ProcessInterface, SingleRootIsEndochronous) {
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := A + (Y $ 1 init 0)"));
  ProcessInterface I = extractInterface(*C);
  EXPECT_EQ(I.ProcessName, "P");
  EXPECT_EQ(I.RootCount, 1u);
  EXPECT_TRUE(I.Endochronous);
  EXPECT_TRUE(I.ExochronyReason.empty());
  ASSERT_EQ(I.Imports.size(), 1u);
  ASSERT_EQ(I.Exports.size(), 1u);
  // One shared clock class: A and Y are synchronous.
  EXPECT_EQ(I.Imports[0].Clock, I.Exports[0].Clock);
}

TEST(ProcessInterface, IndependentInputsAreExochronous) {
  auto C = compileOk(proc("? integer A, B; ! integer Y, Z;",
                          "   Y := A * 2\n   | Z := B * 3"));
  ProcessInterface I = extractInterface(*C);
  EXPECT_EQ(I.RootCount, 2u);
  EXPECT_EQ(I.FreeRootCount, 2u);
  EXPECT_FALSE(I.Endochronous);
  // The diagnostic names both unresolved roots and says whose problem
  // their relative rates are.
  EXPECT_NE(I.ExochronyReason.find("2 independent clock roots"),
            std::string::npos)
      << I.ExochronyReason;
  EXPECT_NE(I.ExochronyReason.find("environment"), std::string::npos);
}

TEST(ProcessInterface, RestrictedShapeKeepsAncestry) {
  // Y lives on a subclock of A: the restricted forest must place Y's
  // class under A's, even though intermediate classes are not part of
  // the interface.
  auto C = compileOk(proc("? integer A; boolean CC; ! integer Y;",
                          "   synchro {A, CC}\n   | Y := A when CC"));
  ProcessInterface I = extractInterface(*C);
  ASSERT_EQ(I.Imports.size(), 2u);
  ASSERT_EQ(I.Exports.size(), 1u);
  int AClock = I.Imports[0].Clock;
  int YClock = I.Exports[0].Clock;
  ASSERT_GE(AClock, 0);
  ASSERT_GE(YClock, 0);
  EXPECT_NE(AClock, YClock);
  EXPECT_EQ(I.Clocks[YClock].Parent, AClock);
  EXPECT_TRUE(I.Clocks[AClock].FreeRoot);
  EXPECT_FALSE(I.Clocks[YClock].TreeRoot);
}

TEST(ProcessInterface, DumpCarriesAllSections) {
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A * 2"));
  std::string Dump = extractInterface(*C).dump();
  EXPECT_NE(Dump.find("interface of process P"), std::string::npos);
  EXPECT_NE(Dump.find("endochronous: yes"), std::string::npos);
  EXPECT_NE(Dump.find("imports:"), std::string::npos);
  EXPECT_NE(Dump.find("exports:"), std::string::npos);
  EXPECT_NE(Dump.find("A : integer"), std::string::npos);
  EXPECT_NE(Dump.find("Y : integer"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Linking
//===----------------------------------------------------------------------===//

TEST(Linker, PipelineLinksByName) {
  LinkResult R = linkSensorMonitor();
  ASSERT_TRUE(R.Sys) << R.Error;
  LinkedSystem &Sys = *R.Sys;
  ASSERT_EQ(Sys.Units.size(), 2u);
  EXPECT_EQ(Sys.Units[0].Name, "SENSOR");
  EXPECT_EQ(Sys.Units[1].Name, "MONITOR");
  ASSERT_EQ(Sys.Channels.size(), 2u);
  EXPECT_EQ(Sys.Channels[0].Name, "KEPT");
  EXPECT_EQ(Sys.Channels[1].Name, "SUM");
  // Producer before consumer.
  ASSERT_EQ(Sys.Order.size(), 2u);
  EXPECT_EQ(Sys.Order[0], 0u);
  EXPECT_EQ(Sys.Order[1], 1u);
  // RAW stays external; TOTAL/ALERT are the system outputs.
  ASSERT_EQ(Sys.ExternalInputs.size(), 1u);
  EXPECT_EQ(Sys.ExternalInputs[0].Name, "RAW");
  ASSERT_EQ(Sys.ExternalOutputs.size(), 2u);
  // A single unbound root paces the linked system.
  EXPECT_TRUE(Sys.endochronous());
}

TEST(Linker, NoReResolutionAtLink) {
  LinkResult R = linkSensorMonitor();
  ASSERT_TRUE(R.Sys) << R.Error;
  ASSERT_EQ(R.Sys->ForestNodesAtLink.size(), 2u);
  for (size_t U = 0; U < 2; ++U)
    EXPECT_EQ(R.Sys->ForestNodesAtLink[U],
              R.Sys->Units[U].Iface.ForestNodes);
}

TEST(Linker, SynchroObligationDischargedByImplies) {
  // MONITOR demands KEPT and SUM synchronous; SENSOR proves it (their
  // relative BDDs are equal). The channels bind the consumer clock.
  LinkResult R = linkSensorMonitor();
  ASSERT_TRUE(R.Sys) << R.Error;
  for (const LinkChannel &Ch : R.Sys->Channels)
    EXPECT_GE(Ch.ConsumerClockInput, 0) << Ch.Name;
}

TEST(Linker, UnprovableSynchroIsRejected) {
  // K1 and K2 are *not* synchronous in the producer (disjoint samplings),
  // so the consumer's synchro cannot be discharged.
  const char *Prod = R"(
process PROD =
  ( ? integer A; boolean CC; ! integer K1, K2; )
  (| synchro {A, CC}
   | K1 := A when CC
   | K2 := A when (not CC)
  |);
)";
  const char *Cons = R"(
process CONS =
  ( ? integer K1, K2; ! integer Y; )
  (| synchro {K1, K2}
   | Y := K1 + K2
  |);
)";
  LinkResult R = compileAndLinkSources({{"PROD", Prod}, {"CONS", Cons}});
  ASSERT_FALSE(R.Sys);
  EXPECT_NE(R.Error.find("must be synchronous"), std::string::npos)
      << R.Error;
  EXPECT_NE(R.Error.find("cannot prove"), std::string::npos) << R.Error;
}

TEST(Linker, TypeMismatchIsRejected) {
  const char *Prod =
      "process PROD = ( ? integer A; ! integer X; ) (| X := A |);";
  const char *Cons =
      "process CONS = ( ? boolean X; ! boolean Y; ) (| Y := not X |);";
  LinkResult R = compileAndLinkSources({{"PROD", Prod}, {"CONS", Cons}});
  ASSERT_FALSE(R.Sys);
  EXPECT_NE(R.Error.find("channel 'X'"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("integer"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("boolean"), std::string::npos) << R.Error;
}

TEST(Linker, DuplicateExportIsRejected) {
  const char *P1 = "process P1 = ( ? integer A; ! integer X; ) (| X := A |);";
  const char *P2 =
      "process P2 = ( ? integer B; ! integer X; ) (| X := B * 2 |);";
  LinkResult R = compileAndLinkSources({{"P1", P1}, {"P2", P2}});
  ASSERT_FALSE(R.Sys);
  EXPECT_NE(R.Error.find("exported by both"), std::string::npos) << R.Error;
}

TEST(Linker, CrossProcessCycleIsRejected) {
  const char *P1 =
      "process P1 = ( ? integer B; ! integer A; ) (| A := B + 1 |);";
  const char *P2 =
      "process P2 = ( ? integer A; ! integer B; ) (| B := A * 2 |);";
  LinkResult R = compileAndLinkSources({{"P1", P1}, {"P2", P2}});
  ASSERT_FALSE(R.Sys);
  EXPECT_NE(R.Error.find("cyclic"), std::string::npos) << R.Error;
  // The diagnostic walks the wait edges and names the channel path in
  // dataflow direction, plus the repair.
  bool PathP1First =
      R.Error.find("P1 -[A]-> P2 -[B]-> P1") != std::string::npos;
  bool PathP2First =
      R.Error.find("P2 -[B]-> P1 -[A]-> P2") != std::string::npos;
  EXPECT_TRUE(PathP1First || PathP2First) << R.Error;
  EXPECT_NE(R.Error.find("break the cycle with a delay ($)"),
            std::string::npos)
      << R.Error;
}

TEST(Linker, FeedbackCompositionLinksWhenInstructionGraphIsAcyclic) {
  // A unit-level cycle (LOOPA -> LOOPB -> LOOPA) whose instruction-level
  // dependence graph is acyclic: LOOPB needs only LOOPA's FA half, and
  // LOOPA's FB half runs after LOOPB. Whole-unit scheduling had to
  // reject this; fusion interleaves the halves.
  const char *A = "process LOOPA = ( ? integer FX, FB; ! integer FA, FC; )"
                  " (| FA := (FX + 1) mod 97 | FC := (FB * 2 + 3) mod 97 |);";
  const char *B = "process LOOPB = ( ? integer FA; ! integer FB; )"
                  " (| FB := (FA * 4 + 5) mod 97 |);";
  LinkResult R = compileAndLinkSources({{"LOOPA", A}, {"LOOPB", B}});
  ASSERT_TRUE(R.Sys) << R.Error;
  EXPECT_EQ(R.Sys->Channels.size(), 2u);
  ASSERT_EQ(R.Sys->ExternalInputs.size(), 1u);
  EXPECT_EQ(R.Sys->ExternalInputs[0].Name, "FX");
  ASSERT_EQ(R.Sys->ExternalOutputs.size(), 1u);
  EXPECT_EQ(R.Sys->ExternalOutputs[0].Name, "FC");
  // The fused schedule starts in LOOPA (its root paces the system) and
  // interleaves LOOPB before LOOPA's consumer half finishes.
  ASSERT_EQ(R.Sys->Order.size(), 2u);
  EXPECT_EQ(R.Sys->Order[0], 0u);
  EXPECT_FALSE(R.Sys->Fused.Code.empty());
}

TEST(Linker, TwoProducerObligationLinksThroughTheJointSpace) {
  // DIAK's synchro spans DIAA's and DIAB's exports; neither producer's
  // forest alone can discharge it — only the joint space, which resolves
  // both roots to DIAS's presence of DX.
  const char *S = "process DIAS = ( ? integer SRC; ! integer DX; )"
                  " (| DX := (SRC + 1) mod 97 |);";
  const char *A = "process DIAA = ( ? integer DX; ! integer DA; )"
                  " (| DA := (DX * 2 + 1) mod 97 |);";
  const char *B = "process DIAB = ( ? integer DX; ! integer DB; )"
                  " (| DB := (DX + 5) mod 97 |);";
  const char *K = "process DIAK = ( ? integer DA, DB; ! integer DY; )"
                  " (| synchro {DA, DB} | DY := (DA + DB * 3) mod 97 |);";
  LinkResult R = compileAndLinkSources(
      {{"DIAS", S}, {"DIAA", A}, {"DIAB", B}, {"DIAK", K}});
  ASSERT_TRUE(R.Sys) << R.Error;
  EXPECT_EQ(R.Sys->Channels.size(), 4u);
  ASSERT_EQ(R.Sys->Roots.size(), 1u);
  EXPECT_FALSE(R.Sys->Fused.Code.empty());
}

namespace {

/// Links \p Inputs with the joint space limited to \p Nodes BDD nodes
/// (the units compile unbounded).
LinkResult linkUnderNodeLimit(const std::vector<LinkInput> &Inputs,
                              unsigned Nodes) {
  std::vector<LinkUnit> Units(Inputs.size());
  for (size_t K = 0; K < Inputs.size(); ++K) {
    Units[K].Name = Inputs[K].Name;
    Units[K].Comp = compileSource(Inputs[K].Name, Inputs[K].Source);
    if (!Units[K].Comp) {
      ADD_FAILURE() << Inputs[K].Name << " did not compile";
      return {};
    }
  }
  LinkOptions Tight;
  Tight.Limits = Budget(0, Nodes);
  return linkCompiled(std::move(Units), Tight);
}

} // namespace

TEST(Linker, JointSpaceOverItsNodeBudgetRejectsTheLink) {
  // A diamond whose shared export is sampled: both middle producers'
  // roots resolve to DIAS's presence of DX, root ∧ [DX's condition], so
  // discharging DIAK's synchro builds that conjunction in the joint
  // space. (Were DX to tick with its root, the joint space would
  // allocate a single variable node, which every node limit admits.)
  // The joint space frees nothing: a node limit it cannot meet trips its
  // budget, and the link is rejected, never accepted on a partial proof.
  const std::vector<LinkInput> Diamond = {
      {"DIAS", "process DIAS = ( ? integer SRC; ! integer DX; )"
               " (| DX := SRC when ((SRC mod 3) = 0) |);"},
      {"DIAA", "process DIAA = ( ? integer DX; ! integer DA; )"
               " (| DA := (DX * 2 + 1) mod 97 |);"},
      {"DIAB", "process DIAB = ( ? integer DX; ! integer DB; )"
               " (| DB := (DX + 5) mod 97 |);"},
      {"DIAK", "process DIAK = ( ? integer DA, DB; ! integer DY; )"
               " (| synchro {DA, DB} | DY := (DA + DB * 3) mod 97 |);"}};
  LinkResult Good = compileAndLinkSources(Diamond);
  ASSERT_TRUE(Good.Sys) << Good.Error;
  EXPECT_EQ(Good.Sys->Channels.size(), 4u);

  LinkResult Bad = linkUnderNodeLimit(Diamond, 1);
  ASSERT_FALSE(Bad.Sys);
  EXPECT_NE(Bad.Error.find("unable-mem: the joint-space budget tripped"),
            std::string::npos)
      << Bad.Error;
}

TEST(Linker, GeneratedDiamondsOnOddSeedsBuildANonTerminalJointBdd) {
  // generateDiamondSystem samples DIAS's export on odd seeds, so the
  // diamond sweeps translate a non-terminal BDD into the joint space: a
  // one-node limit trips there, and admits the even seeds' single
  // variable node.
  for (uint64_t Seed = 0; Seed < 4; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    GeneratedChain D = generateDiamondSystem(Seed);
    std::vector<LinkInput> Inputs;
    for (size_t K = 0; K < D.Sources.size(); ++K)
      Inputs.push_back({D.Names[K], D.Sources[K]});
    LinkResult R = linkUnderNodeLimit(Inputs, 1);
    EXPECT_EQ(R.Sys == nullptr, Seed % 2 == 1) << R.Error;
  }
}

TEST(Linker, UncompilableUnitReportsItsDiagnostics) {
  const char *Bad = "process BAD = ( ? integer A; ! integer Y; ) (| Y := Q |);";
  const char *Good =
      "process GOOD = ( ? integer B; ! integer Z; ) (| Z := B |);";
  LinkResult R = compileAndLinkSources({{"BAD", Bad}, {"GOOD", Good}});
  ASSERT_FALSE(R.Sys);
  EXPECT_NE(R.Error.find("did not compile"), std::string::npos) << R.Error;
}

TEST(Linker, DefaultCompiledUnitsLinkToTheSameFusedStep) {
  // Fusion reads each unit's guard-tagged StepProgram, not its optimized
  // step, so units compiled with the default options link to exactly the
  // fused step compileAndLinkSources builds: the optimizer never sees a
  // unit's exports alone.
  LinkResult Ref = linkSensorMonitor();
  ASSERT_TRUE(Ref.Sys) << Ref.Error;

  std::vector<LinkUnit> Units(2);
  Units[0].Comp = compileOk(SensorSource);
  Units[1].Comp = compileOk(MonitorSource);
  LinkResult R = linkCompiled(std::move(Units));
  ASSERT_TRUE(R.Sys) << R.Error;
  EXPECT_EQ(R.Sys->Fused.dump(), Ref.Sys->Fused.dump());
  EXPECT_EQ(R.Sys->Fused.Dropped, Ref.Sys->Fused.Dropped);
}

TEST(Linker, SingleFileLinkByProcessNames) {
  std::string Two = std::string(SensorSource) + MonitorSource;
  LinkResult R = compileAndLink("<two>", Two, {"SENSOR", "MONITOR"});
  ASSERT_TRUE(R.Sys) << R.Error;
  EXPECT_EQ(R.Sys->Channels.size(), 2u);

  LinkResult Bad = compileAndLink("<two>", Two, {"SENSOR", "NOPE"});
  ASSERT_FALSE(Bad.Sys);
  EXPECT_NE(Bad.Error.find("no process named 'NOPE'"), std::string::npos)
      << Bad.Error;
  EXPECT_NE(Bad.Error.find("SENSOR, MONITOR"), std::string::npos)
      << Bad.Error;
}

TEST(Linker, ParallelAndSerialCompilationAgree) {
  LinkOptions Serial;
  Serial.ParallelCompile = false;
  LinkResult A = compileAndLinkSources(
      {{"SENSOR", SensorSource}, {"MONITOR", MonitorSource}}, Serial);
  LinkResult B = linkSensorMonitor();
  ASSERT_TRUE(A.Sys) << A.Error;
  ASSERT_TRUE(B.Sys) << B.Error;
  ASSERT_EQ(A.Sys->Units.size(), B.Sys->Units.size());
  for (size_t U = 0; U < A.Sys->Units.size(); ++U)
    EXPECT_EQ(A.Sys->Units[U].Iface.dump(), B.Sys->Units[U].Iface.dump());
  EXPECT_EQ(A.Sys->dump(), B.Sys->dump());
}

//===----------------------------------------------------------------------===//
// Linked execution: the fused step on the ordinary VM
//===----------------------------------------------------------------------===//

TEST(LinkedExecutor, PipelineProducesTheExpectedTrace) {
  LinkResult R = linkSensorMonitor();
  ASSERT_TRUE(R.Sys) << R.Error;
  ScriptedEnvironment Env;
  Env.tickAlways();
  for (unsigned I = 0; I < 10; ++I)
    Env.set("RAW", I, Value::makeInt(static_cast<int>(I) + 1));
  VmExecutor Exec(R.Sys->Fused);
  ASSERT_EQ(Exec.run(Env, 10), 10u)
      << R.Sys->mismatchMessage(Exec.checkFailure());
  // KEPT = 2,4,6,8,10 at instants 1,3,5,7,9; TOTAL accumulates; ALERT
  // fires when SUM (= TOTAL here) exceeds 20.
  EXPECT_EQ(formatEvents(Env.outputs()),
            "1 TOTAL=2\n1 ALERT=false\n"
            "3 TOTAL=6\n3 ALERT=false\n"
            "5 TOTAL=12\n5 ALERT=false\n"
            "7 TOTAL=20\n7 ALERT=false\n"
            "9 TOTAL=30\n9 ALERT=true\n");
}

TEST(LinkedExecutor, DynamicClockMismatchIsDetected) {
  // The consumer *derives* X's clock from its own condition B, so the
  // linker cannot bind it; the fused step must catch the first instant
  // the producer and the consumer disagree about X's presence.
  LinkResult R = linkProdCons();
  ASSERT_TRUE(R.Sys) << R.Error;
  ASSERT_EQ(R.Sys->Channels.size(), 1u);
  EXPECT_EQ(R.Sys->Channels[0].ConsumerClockInput, -1)
      << "X's clock is consumer-derived, not a free root";
  ASSERT_EQ(R.Sys->Fused.Code.back().Op, VmOp::CheckClockEq)
      << "the check ends the fused step";

  // A always ticks (so X is always produced), but B is false at instant
  // 0: the consumer expects silence while the producer emitted.
  ScriptedEnvironment Env;
  Env.tickAlways();
  Env.set("A", 0, Value::makeInt(7));
  Env.set("B", 0, Value::makeBool(false));
  VmExecutor Exec(R.Sys->Fused);
  EXPECT_FALSE(Exec.step(Env, 0));
  ASSERT_TRUE(Exec.checkFailure());
  EXPECT_EQ(R.Sys->mismatchMessage(Exec.checkFailure()),
            "instant 0: channel 'X' clock mismatch — producer 'PROD' "
            "emitted while consumer 'CONS' expected silence");
}

TEST(LinkedExecutor, BatchedMismatchCutsTheTraceWhereUnbatchedStops) {
  // The batched window stops after the violation at instant 3 (B is true
  // again from 4 on) and flushes exactly the unbatched trace: the outputs
  // through the erroring instant.
  LinkResult R = linkProdCons();
  ASSERT_TRUE(R.Sys) << R.Error;
  ScriptedEnvironment One, Batch;
  scriptMismatchAtThree(One);
  scriptMismatchAtThree(Batch);
  VmExecutor ExecOne(R.Sys->Fused), ExecBatch(R.Sys->Fused);
  EXPECT_EQ(ExecOne.run(One, 8), 4u);
  EXPECT_EQ(ExecBatch.runBatched(Batch, 8, 8), 4u);
  EXPECT_EQ(formatEvents(One.outputs()), "0 Y=1\n1 Y=11\n2 Y=21\n");
  EXPECT_EQ(formatEvents(Batch.outputs()), formatEvents(One.outputs()));
  ASSERT_TRUE(ExecOne.checkFailure());
  ASSERT_TRUE(ExecBatch.checkFailure());
  std::string ErrOne = R.Sys->mismatchMessage(ExecOne.checkFailure());
  EXPECT_EQ(R.Sys->mismatchMessage(ExecBatch.checkFailure()), ErrOne);
  EXPECT_NE(ErrOne.find("instant 3"), std::string::npos) << ErrOne;
  EXPECT_EQ(ExecBatch.guardTests(), ExecOne.guardTests());
  EXPECT_EQ(ExecBatch.executed(), ExecOne.executed());
}

//===----------------------------------------------------------------------===//
// Linked C emission: the fused step through the ordinary C emitter
//===----------------------------------------------------------------------===//

TEST(LinkEmitter, EmitsTheFusedStepWithAllEntryPoints) {
  LinkResult R = linkSensorMonitor();
  ASSERT_TRUE(R.Sys) << R.Error;
  CEmitOptions EO;
  std::string C = emitC(R.Sys->Fused, "sys", EO);
  // One fused translation unit: system-level entry points only, no
  // per-unit step functions survive the fusion.
  EXPECT_NE(C.find("int sys_step("), std::string::npos);
  EXPECT_NE(C.find("void sys_init("), std::string::npos);
  EXPECT_NE(C.find("unsigned sys_step_batch("), std::string::npos);
  EXPECT_EQ(C.find("SENSOR_step("), std::string::npos);
  EXPECT_EQ(C.find("MONITOR_step("), std::string::npos);
  // Channels were resolved into slot copies at link time: no channel
  // fields cross the C interface, only the true externals do.
  EXPECT_NE(C.find("in->RAW"), std::string::npos);
  EXPECT_NE(C.find("out->TOTAL"), std::string::npos);
  EXPECT_NE(C.find("out->ALERT"), std::string::npos);
  EXPECT_EQ(C.find("in->KEPT"), std::string::npos);
  EXPECT_EQ(C.find("in->SUM"), std::string::npos);
}

TEST(LinkEmitter, InterfaceFieldsAreDeduplicatedAndNamed) {
  // The fused step's descriptor tables are the system's C interface.
  LinkResult R = linkSensorMonitor();
  ASSERT_TRUE(R.Sys) << R.Error;
  const CompiledStep &F = R.Sys->Fused;
  ASSERT_EQ(F.ClockInputs.size(), 1u); // One unbound root.
  ASSERT_EQ(F.Inputs.size(), 1u);
  EXPECT_EQ(F.Inputs[0].Name, "RAW");
  ASSERT_EQ(F.Outputs.size(), 2u);
  EXPECT_EQ(F.Outputs[0].Name, "TOTAL");
  EXPECT_EQ(F.Outputs[1].Name, "ALERT");
}

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Compiles \p CSource with the host cc and runs it. \returns the exit
/// status (-1 when it did not compile or run), filling \p Out and \p Err
/// with its stdout and stderr.
int compileAndRunC(const std::string &CSource, std::string &Out,
                   std::string &Err) {
  std::string Base = ::testing::TempDir() + "sigc_link_c_" +
                     std::to_string(::getpid());
  std::string CPath = Base + ".c", Bin = Base + ".bin";
  std::string OutPath = Base + ".out", ErrPath = Base + ".err";
  if (FILE *F = std::fopen(CPath.c_str(), "w")) {
    std::fputs(CSource.c_str(), F);
    std::fclose(F);
  }
  int Status = -1;
  std::string Cc = hostCCompilerCommand() +
                   " -std=c99 -Wall -Werror -O1 -o " + Bin + " " + CPath;
  if (std::system(Cc.c_str()) == 0) {
    int St = std::system((Bin + " > " + OutPath + " 2> " + ErrPath).c_str());
    if (WIFEXITED(St))
      Status = WEXITSTATUS(St);
    Out = slurp(OutPath);
    Err = slurp(ErrPath);
  }
  for (const std::string &P : {CPath, Bin, OutPath, ErrPath})
    std::remove(P.c_str());
  return Status;
}

} // namespace

TEST(LinkEmitter, EmittedCHonoursTheDynamicCheck) {
  // The fused step's C must stop where the VM stops: after the instant
  // of the first channel mismatch, in _step_batch and in the
  // --with-driver program alike.
  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  LinkResult R = linkProdCons();
  ASSERT_TRUE(R.Sys) << R.Error;
  const CompiledStep &F = R.Sys->Fused;

  // The mismatch script through _step_batch: 4 instants run, rows 0-2
  // are the VM's.
  ScriptedEnvironment Env;
  scriptMismatchAtThree(Env);
  VmExecutor Vm(F);
  ASSERT_EQ(Vm.runBatched(Env, 8, 8), 4u);
  std::string C = emitC(F, "sys", CEmitOptions());
  C += "\n#include <stdio.h>\nint main(void) {\n"
       "  sys_state_t st;\n  sys_in_t in[8];\n  sys_out_t out[8];\n"
       "  unsigned i, n;\n  sys_init(&st);\n"
       "  for (i = 0; i < 8; ++i) {\n";
  for (const auto &CI : F.ClockInputs)
    C += "    in[i].tick_" + sanitizeIdent(CI.Name) + " = 1;\n";
  C += "    in[i].A = 10L * (long)i;\n    in[i].B = i != 3;\n  }\n"
       "  n = sys_step_batch(&st, in, out, 8);\n"
       "  printf(\"ran=%u\\n\", n);\n"
       "  for (i = 0; i < n; ++i)\n"
       "    if (out[i].Y_present) printf(\"%u Y=%ld\\n\", i, out[i].Y);\n"
       "  return 0;\n}\n";
  std::string Out, Err;
  ASSERT_EQ(compileAndRunC(C, Out, Err), 0) << Err << C;
  EXPECT_EQ(Out, "ran=4\n" + formatEvents(Env.outputs()));

  // The --with-driver program stops, exit nonzero, at the instant the VM
  // stops at for the driver's own inputs (its LCG, inputs in descriptor
  // order, every clock ticking).
  CEmitOptions Driver;
  Driver.WithDriver = true;
  ASSERT_NE(compileAndRunC(emitC(F, "linked_sys", Driver), Out, Err), 0);
  unsigned CInstant = 0;
  ASSERT_EQ(std::sscanf(Err.c_str(), "instant %u: clock check", &CInstant), 1)
      << Err;

  ScriptedEnvironment DriverEnv;
  DriverEnv.tickAlways();
  uint64_t Rng = 0x12345678u;
  auto rng = [&Rng] {
    Rng = Rng * 6364136223846793005ull + 1442695040888963407ull;
    return Rng >> 33;
  };
  for (unsigned I = 0; I < Driver.DriverSteps; ++I)
    for (const auto &SI : F.Inputs)
      DriverEnv.set(SI.Name, I,
                    SI.Type == TypeKind::Integer
                        ? Value::makeInt(static_cast<int64_t>(rng() % 100))
                        : Value::makeBool((rng() & 1) != 0));
  VmExecutor DriverVm(F);
  DriverVm.run(DriverEnv, Driver.DriverSteps);
  ASSERT_TRUE(DriverVm.checkFailure()) << "the driver's inputs must mismatch";
  EXPECT_EQ(CInstant, DriverVm.checkFailure().Instant) << Err;
  EXPECT_EQ(Out, formatEvents(DriverEnv.outputs()));
}
