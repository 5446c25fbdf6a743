//===--- vm_test.cpp - Slot-resolved VM: structure, semantics, counters ---===//
///
/// Tests of the CompiledStep/VmExecutor execution engine:
///   * structural invariants of the lowered bytecode (resolved descriptor
///     indices, well-formed skip offsets, folded constants),
///   * trace equivalence of the nested and the flat lowering on scripted
///     and builtin programs (the differential oracle checks this at
///     scale),
///   * the guard-economics regression pins: the nested lowering must
///     never regress to flat-level guard work, and the Executed counter
///     counts each instruction of a multi-instruction expression once,
///   * Figure-9 nesting: no guard block is empty or holds nothing but
///     another guard block (a same-target chain), in compiled and in
///     fused steps,
///   * the layout of every lowering: skips properly nested, the flat one
///     at most one deep with one skip per guarded group that keeps code,
///   * quickening: every typed handler agrees with evalUnaryValue/
///     evalBinaryValue on edge values, the generic handler still agrees
///     with the other engines, and the fused clock-literal/skip keeps the
///     counters exact under batch windows.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/VmExecutor.h"
#include "programs/Programs.h"
#include "testing/Oracle.h"
#include "testing/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

using namespace sigc;
using namespace sigc::test;

namespace {

CompiledStep buildVm(Compilation &C) {
  return CompiledStep::build(C.Step);
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
  }
  EXPECT_GT(Skips, 0u) << "a sampled program must have guarded blocks";
}

TEST(CompiledStep, ExpressionLoweringCountsEachInstructionOnce) {
  // (A * A + 1) * (A - 2) lowers to four three-address instructions over
  // scratch slots; each of them counts once in Executed, skips none.
  auto C = compileOk(proc("? integer A; ! integer Y;",
                          "   Y := (A * A + 1) * (A - 2)"));
  CompiledStep CS = buildVm(*C);
  EXPECT_GT(CS.NumTempSlots, 0u) << "interior results need scratch slots";
  uint64_t Binary = 0, Counted = 0;
  for (const VmInstr &In : CS.Code) {
    Binary += In.Op == VmOp::BinarySS || In.Op == VmOp::BinarySC;
    Counted += In.Op != VmOp::SkipIfAbsent;
  }
  EXPECT_EQ(Binary, 4u);
  ScriptedEnvironment Env;
  Env.tickAlways();
  for (unsigned I = 0; I < 5; ++I)
    Env.set("A", I, Value::makeInt(static_cast<int>(I)));
  VmExecutor Vm(CS);
  Vm.run(Env, 5);
  EXPECT_EQ(formatEvents(Env.outputs()),
            "0 Y=-2\n1 Y=-2\n2 Y=0\n3 Y=10\n4 Y=34\n");
  EXPECT_EQ(Vm.executed(), 5 * Counted)
      << "every instruction but a skip counts once per instant it runs";
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
// Trace equivalence of the two lowerings.
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
  VmExecutor Nested(C->Compiled);
  Nested.run(EnvA, 4);
  CompiledStep Flat = CompiledStep::build(C->Step, GuardLowering::Flat);
  VmExecutor Vm(Flat);
  Vm.run(EnvB, 4);
  EXPECT_EQ(formatEvents(EnvA.outputs()), "0 X=11\n1 X=11\n2 X=11\n3 X=11\n");
  EXPECT_EQ(formatEvents(EnvB.outputs()), formatEvents(EnvA.outputs()));
}

TEST(VmExecutor, MatchesNestedOnBuiltinSuite) {
  // The oracle runs both lowerings against the reference interpreter and
  // checks their counters against the step program.
  OracleOptions O;
  O.Instants = 48;
  O.EnvSeed = 17;
  for (const Figure13Program &P : figure13Suite()) {
    OracleReport R = checkDifferential(P.Name, P.Source, O);
    EXPECT_TRUE(R.Ok) << R.Error;
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
  CompiledStep CS = CompiledStep::build(C->Step);
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
  // clock hierarchy is that the nested lowering skips absent subtrees
  // wholesale.
  ProgramShape Shape;
  Shape.DividerStages = 24;
  OracleOptions O;
  O.Instants = 256;
  O.EnvSeed = 5;
  O.TickPermille = 200;
  // Identical traces and consistent counters first (the oracle checks
  // them) — the economics are meaningless otherwise.
  OracleReport R =
      checkDifferential("CHAIN", generateProgram("CHAIN", Shape), O);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_LT(R.GuardTestsNested, R.GuardTestsFlat / 2)
      << "nested guard work regressed toward flat-level scanning";
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

/// Fails when a guard's block is empty or holds nothing but the next
/// guard's block: a SkipIfAbsent to the next pc, or one immediately
/// followed by another with the same target.
void expectNoGuardChains(const CompiledStep &CS, const std::string &What) {
  for (size_t PC = 0; PC < CS.Code.size(); ++PC) {
    const VmInstr &A = CS.Code[PC];
    if (A.Op != VmOp::SkipIfAbsent)
      continue;
    EXPECT_GT(A.Aux, static_cast<int32_t>(PC + 1))
        << What << ": empty guard block at pc " << PC;
    if (PC + 1 < CS.Code.size() && CS.Code[PC + 1].Op == VmOp::SkipIfAbsent) {
      EXPECT_NE(A.Aux, CS.Code[PC + 1].Aux)
          << What << ": guard chain at pc " << PC;
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
// Layout invariants: layOutGuards places every skip of every lowering.
//===----------------------------------------------------------------------===//

namespace {

/// Fails unless the skips of \p CS are properly nested: each skip jumps
/// forward, and its target lies inside the range of its enclosing skip.
/// \returns the deepest nesting.
unsigned expectProperlyNested(const CompiledStep &CS, const std::string &What) {
  std::vector<int32_t> Ends = {static_cast<int32_t>(CS.Code.size())};
  unsigned Depth = 0;
  for (int32_t PC = 0; PC < static_cast<int32_t>(CS.Code.size()); ++PC) {
    while (Ends.size() > 1 && Ends.back() <= PC)
      Ends.pop_back();
    const VmInstr &In = CS.Code[PC];
    if (In.Op != VmOp::SkipIfAbsent)
      continue;
    EXPECT_GT(In.Aux, PC) << What << ": skip at pc " << PC;
    EXPECT_LE(In.Aux, Ends.back())
        << What << ": skip at pc " << PC << " leaves its parent's range";
    Ends.push_back(In.Aux);
    Depth = std::max(Depth, static_cast<unsigned>(Ends.size() - 1));
  }
  return Depth;
}

/// Checks both unit lowerings of \p C: the nested one is properly nested
/// without guard chains, the flat one has depth 1 at most and one skip
/// per guarded group that keeps code after optimize.
void expectUnitLayouts(const Compilation &C, const std::string &What) {
  expectProperlyNested(C.Compiled, What + " nested");
  expectNoGuardChains(C.Compiled, What + " nested");
  CompiledStep Flat = CompiledStep::build(C.Step, GuardLowering::Flat);
  EXPECT_LE(expectProperlyNested(Flat, What + " flat"), 1u) << What;
  expectNoGuardChains(Flat, What + " flat");
  std::vector<VmInstr> Code = C.Step.Code;
  std::vector<StepGroup> Groups = C.Step.Groups;
  optimize(Flat, Code, Groups);
  size_t Guarded = 0;
  uint32_t Begin = 0;
  for (const StepGroup &G : Groups) {
    Guarded += !G.Guards.empty() && G.End > Begin;
    Begin = G.End;
  }
  EXPECT_EQ(Flat.guardShape().Guards, Guarded) << What;
}

/// Checks a fused step: properly nested, without guard chains.
void expectFusedLayout(const std::vector<LinkInput> &Inputs,
                       const std::string &What) {
  LinkResult R = compileAndLinkSources(Inputs);
  ASSERT_TRUE(R.Sys) << What << ": " << R.Error;
  expectProperlyNested(R.Sys->Fused, What);
  expectNoGuardChains(R.Sys->Fused, What);
}

} // namespace

TEST(GuardLayout, UnitsOnBuiltinsAndRandomSweep) {
  expectUnitLayouts(*compileOk(alarmFigure5Source()), "FIG5_ALARM");
  for (const Figure13Program &P : figure13Suite()) {
    auto C = compileSource("<layout:" + P.Name + ">", P.Source);
    ASSERT_TRUE(C->Ok) << P.Name;
    expectUnitLayouts(*C, P.Name);
  }
  // The differential sweep's programs (8 blocks x 16 seeds).
  for (uint64_t Seed = 0; Seed < 128; ++Seed) {
    auto C = compileSource("<layout>", generateRandomProgram("R", Seed));
    ASSERT_TRUE(C->Ok) << "seed " << Seed << "\n" << C->Diags.render();
    expectUnitLayouts(*C, "seed " + std::to_string(Seed));
  }
}

TEST(GuardLayout, FusedOnRandomPairsAndChains) {
  for (uint64_t Seed = 0; Seed < 104; ++Seed) {
    GeneratedPair P = generateProcessPair(Seed);
    expectFusedLayout({{P.ProducerName, P.ProducerSource},
                       {P.ConsumerName, P.ConsumerSource}},
                      "pair " + std::to_string(Seed));
  }
  for (unsigned Stages : {3u, 4u})
    for (uint64_t Seed = 0; Seed < 6; ++Seed) {
      GeneratedChain Chain = generateProcessChain(Seed, Stages);
      std::vector<LinkInput> Inputs;
      for (size_t K = 0; K < Chain.Sources.size(); ++K)
        Inputs.push_back({Chain.Names[K], Chain.Sources[K]});
      expectFusedLayout(Inputs, "chain " + std::to_string(Stages) + "-" +
                                    std::to_string(Seed));
    }
}

//===----------------------------------------------------------------------===//
// Quickening: typed handlers, the generic handler, the fused superinstruction.
//===----------------------------------------------------------------------===//

namespace {

/// A hand-built step probing one operator: value slots 0 and 1 read
/// inputs A and B of kinds \p L and \p R, slot 2 receives the result
/// (BinarySS, or UnarySlot over slot 0) and is written to output Y.
CompiledStep probeStep(const VmTypedHandler &H, TypeKind L, TypeKind R) {
  TypeKind Res = H.Unary ? unaryResultKind(static_cast<UnaryOp>(H.Op), L)
                         : binaryResultKind(static_cast<BinaryOp>(H.Op), L, R);
  CompiledStep CS;
  CS.NumValueSlots = 3;
  CS.SlotType = {L, R, Res};
  for (int I = 0; I < 2; ++I) {
    StepProgram::SignalIODesc In;
    In.ValueSlot = I;
    In.Type = I == 0 ? L : R;
    In.Name = I == 0 ? "A" : "B";
    CS.Inputs.push_back(In);
  }
  StepProgram::SignalIODesc Out;
  Out.ValueSlot = 2;
  Out.Type = Res;
  Out.Name = "Y";
  CS.Outputs.push_back(Out);
  CS.OutputFlushOrder = {0};

  VmInstr Read;
  Read.Op = VmOp::ReadSignal;
  for (int I = 0; I < 2; ++I) {
    Read.Target = I;
    Read.Aux = I;
    CS.Code.push_back(Read);
  }
  VmInstr Op;
  Op.Op = H.Unary ? VmOp::UnarySlot : VmOp::BinarySS;
  Op.Target = 2;
  Op.A = 0;
  Op.B = H.Unary ? -1 : 1;
  Op.Aux = H.Op;
  CS.Code.push_back(Op);
  VmInstr Write;
  Write.Op = VmOp::WriteOutput;
  Write.A = 2;
  Write.Aux = 0;
  CS.Code.push_back(Write);
  return CS;
}

/// The edge values of one operand class.
std::vector<Value> edgeValues(VmKind K) {
  const double Inf = std::numeric_limits<double>::infinity();
  switch (K) {
  case VmKind::Int:
    // 2^53 and 2^53 + 1 are one double apart as integers and equal as
    // doubles: orderings must compare them through double.
    return {Value::makeInt(std::numeric_limits<int64_t>::min()),
            Value::makeInt(-1), Value::makeInt(0),
            Value::makeInt(int64_t(1) << 53),
            Value::makeInt((int64_t(1) << 53) + 1)};
  case VmKind::Real:
    return {Value::makeReal(0.0), Value::makeReal(-0.0), Value::makeReal(Inf),
            Value::makeReal(-Inf),
            Value::makeReal(std::numeric_limits<double>::quiet_NaN())};
  case VmKind::Bool:
    return {Value::makeEvent(), Value::makeBool(true), Value::makeBool(false)};
  }
  return {};
}

/// Same kind and same payload; reals bit for bit, any NaN matching any.
bool sameValue(const Value &A, const Value &B) {
  if (A.Kind != B.Kind)
    return false;
  switch (A.Kind) {
  case TypeKind::Real:
    if (std::isnan(A.Real) || std::isnan(B.Real))
      return std::isnan(A.Real) && std::isnan(B.Real);
    return std::memcmp(&A.Real, &B.Real, sizeof(double)) == 0;
  case TypeKind::Integer:
    return A.Int == B.Int;
  case TypeKind::Boolean:
  case TypeKind::Event:
    return A.Bool == B.Bool;
  case TypeKind::Unknown:
    return true;
  }
  return false;
}

} // namespace

TEST(VmQuickening, TypedHandlersMatchValueSemanticsOnEdgeValues) {
  const auto &Table = VmExecutor::typedHandlers();
  ASSERT_FALSE(Table.empty());
  unsigned Checked = 0;
  for (const VmTypedHandler &H : Table) {
    std::vector<Value> Ls = edgeValues(H.Kind);
    std::vector<Value> Rs = H.Unary ? std::vector<Value>{Value::makeInt(0)}
                                    : edgeValues(H.Kind);
    for (const Value &L : Ls)
      for (const Value &R : Rs) {
        // (L mod R) + R overflows for R = INT64_MIN and a negative L: the
        // operator's definition itself is undefined there.
        if (!H.Unary && static_cast<BinaryOp>(H.Op) == BinaryOp::Mod &&
            R.Int == std::numeric_limits<int64_t>::min())
          continue;
        CompiledStep CS = probeStep(H, L.Kind, R.Kind);
        VmExecutor Vm(CS);
        ASSERT_STREQ(Vm.decodedOpName(2), H.Name)
            << "kinds " << typeName(L.Kind) << ", " << typeName(R.Kind);
        ScriptedEnvironment Env;
        Env.set("A", 0, L);
        Env.set("B", 0, R);
        Vm.step(Env, 0);
        ASSERT_EQ(Env.outputs().size(), 1u) << H.Name;
        Value Want =
            H.Unary ? evalUnaryValue(static_cast<UnaryOp>(H.Op), L)
                    : evalBinaryValue(static_cast<BinaryOp>(H.Op), L, R);
        const Value &Got = Env.outputs()[0].Val;
        EXPECT_TRUE(sameValue(Got, Want))
            << H.Name << "(" << L.str() << ", " << R.str()
            << "): vm " << Got.str() << ", evalValue " << Want.str();
        ++Checked;
      }
  }
  EXPECT_GT(Checked, 300u);
}

TEST(VmQuickening, MixedIntegerRealConvertsExplicitly) {
  // Integer against real: lowering converts the integer operand with a
  // ToReal, so each operator decodes to its real handler. J is declared
  // real and defined by integer arithmetic, so its definition converts
  // too, and a default of J and a real, and a real memory fed from J,
  // are plain real code. Every engine agrees (the oracle runs the
  // interpreter, the stepped and batched VM on both lowerings, and the
  // emitted C when a compiler is present).
  const std::string Source =
      proc("? integer I; real X; ! real R, S, T; boolean L;",
           "   R := I + X\n"
           "   | L := I < X\n"
           "   | J := I + 1\n"
           "   | S := J default X\n"
           "   | T := J $ 1 init 0.5\n"
           "   | synchro {I, X}",
           "real J;");
  auto C = compileOk(Source);
  unsigned Conversions = 0;
  for (const VmInstr &In : C->Compiled.Code)
    Conversions += In.Op == VmOp::UnarySlot &&
                   static_cast<UnaryOp>(In.Aux) == UnaryOp::ToReal;
  VmExecutor Vm(C->Compiled);
  std::multiset<std::string> Decoded;
  for (size_t PC = 0; PC < C->Compiled.Code.size(); ++PC)
    Decoded.insert(Vm.decodedOpName(PC));
  // I + X and I < X convert I; J := I + 1 adds integers and converts the
  // sum. Depth 0 of the scratch slots then holds an integer and a real.
  EXPECT_EQ(Conversions, 3u);
  EXPECT_EQ(Decoded.count("ToRealI"), 3u);
  EXPECT_EQ(Decoded.count("AddR"), 1u);
  EXPECT_EQ(Decoded.count("AddI"), 1u);
  EXPECT_EQ(Decoded.count("LtR"), 1u);
  EXPECT_EQ(C->Compiled.SlotType.size(),
            static_cast<size_t>(C->Compiled.NumValueSlots + 2));

  OracleOptions O;
  O.Instants = 48;
  O.EnvSeed = 5;
  O.EmitCRoundTrip = hostCCompilerAvailable();
  OracleReport R = checkDifferential("mixed-int-real", Source, O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.CRoundTripRan, O.EmitCRoundTrip);
}

namespace {

/// Runs \p C's optimized nested step stepped and in batch windows; the
/// VM's counters and trace must not depend on the window, and its
/// executed count must equal the optimized flat lowering's.
void expectCountersUnderBatchWindows(const Compilation &C,
                                     const std::string &What) {
  const CompiledStep &CS = C.Compiled;
  const unsigned Instants = 300;
  RandomEnvironment EnvStepped(23), EnvFlat(23);
  VmExecutor Stepped(CS);
  Stepped.run(EnvStepped, Instants);
  CompiledStep FlatStep = CompiledStep::build(C.Step, GuardLowering::Flat);
  VmExecutor Flat(FlatStep);
  Flat.run(EnvFlat, Instants);
  EXPECT_LE(Stepped.guardTests(), Flat.guardTests()) << What;
  EXPECT_EQ(Stepped.executed(), Flat.executed()) << What;
  for (unsigned Window : {1u, 3u, 7u, 64u, 300u}) {
    RandomEnvironment Env(23);
    VmExecutor Batched(CS);
    Batched.runBatched(Env, Instants, Window);
    EXPECT_EQ(Batched.guardTests(), Stepped.guardTests()) << What << Window;
    EXPECT_EQ(Batched.executed(), Stepped.executed()) << What << Window;
    EXPECT_EQ(formatEvents(Env.outputs()), formatEvents(EnvStepped.outputs()))
        << What << Window;
  }
}

/// Number of instructions of \p C the VM decodes to handler \p Name.
unsigned countDecoded(const Compilation &C, const char *Name) {
  VmExecutor Vm(C.Compiled);
  unsigned N = 0;
  for (size_t PC = 0; PC < C.Compiled.Code.size(); ++PC)
    N += std::strcmp(Vm.decodedOpName(PC), Name) == 0;
  return N;
}

} // namespace

TEST(VmQuickening, FusedClockLiteralSkipKeepsCountersUnderBatchWindows) {
  // Generated program 16 fuses a positive literal whose skip is also the
  // target of another skip: the original skip must stay decoded in place
  // for that jump.
  auto Random = compileOk(generateRandomProgram("R16", 16));
  ASSERT_GT(countDecoded(*Random, "ClockLiteralSkipT"), 0u);
  const CompiledStep &CS = Random->Compiled;
  VmExecutor Vm(CS);
  std::vector<char> IsTarget(CS.Code.size() + 1, 0);
  for (const VmInstr &In : CS.Code)
    if (In.Op == VmOp::SkipIfAbsent)
      IsTarget[In.Aux] = 1;
  unsigned Landing = 0;
  for (size_t PC = 0; PC + 1 < CS.Code.size(); ++PC)
    if (CS.Code[PC].Op == VmOp::EvalClockLiteral &&
        CS.Code[PC + 1].Op == VmOp::SkipIfAbsent && IsTarget[PC + 1]) {
      ++Landing;
      EXPECT_EQ(std::strncmp(Vm.decodedOpName(PC), "ClockLiteralSkip", 16), 0);
      EXPECT_STREQ(Vm.decodedOpName(PC + 1), "SkipIfAbsent");
    }
  EXPECT_GT(Landing, 0u);
  expectCountersUnderBatchWindows(*Random, "random 16");

  // STOPWATCH fuses literals of both polarities.
  for (const Figure13Program &P : figure13Suite()) {
    if (P.Name != "STOPWATCH")
      continue;
    auto C = compileSource("<fused:STOPWATCH>", P.Source);
    ASSERT_TRUE(C->Ok);
    ASSERT_GT(countDecoded(*C, "ClockLiteralSkipT"), 0u);
    ASSERT_GT(countDecoded(*C, "ClockLiteralSkipF"), 0u);
    expectCountersUnderBatchWindows(*C, "STOPWATCH");
    return;
  }
  FAIL() << "STOPWATCH missing from the builtin suite";
}
