//===--- environment_test.cpp - Environment bulk-exchange defaults --------===//
///
/// The batched executors cross the environment boundary through the bulk
/// API (clockTicks/inputValues/exchangeOutputs), whose values are VmSlots
/// of each binding's declared type. An environment that overrides only
/// the per-instant virtuals must still be batchable: the base-class
/// defaults delegate per instant, converting by the binding type and
/// preserving answers, event order and recorded traces exactly. These tests pin that contract —
/// it is what lets RecordingEnvironment wrap arbitrary environments and
/// the serve loop drive any session shape.
///
//===----------------------------------------------------------------------===//

#include "interp/Environment.h"

#include <gtest/gtest.h>

using namespace sigc;

namespace {

/// Overrides only the per-instant virtuals and counts every call, so the
/// tests can see exactly how the bulk defaults delegate.
class PerInstantEnv : public Environment {
public:
  using Environment::clockTick;
  using Environment::inputValue;
  using Environment::writeOutput;

  bool clockTick(EnvClockId Clock, unsigned Instant) override {
    ++TickCalls;
    // Clock 0 ticks on even instants, clock 1 on multiples of 3.
    return Clock == 0 ? Instant % 2 == 0 : Instant % 3 == 0;
  }

  Value inputValue(EnvInputId Input, unsigned Instant) override {
    ++ValueCalls;
    return Value::makeInt(static_cast<int64_t>(Input) * 1000 + Instant);
  }

  void writeOutput(EnvOutputId Output, unsigned Instant,
                   const Value &V) override {
    ++WriteCalls;
    Environment::writeOutput(Output, Instant, V); // records the event
  }

  unsigned TickCalls = 0;
  unsigned ValueCalls = 0;
  unsigned WriteCalls = 0;
};

} // namespace

TEST(EnvironmentBulk, ClockTicksDefaultDelegatesPerInstant) {
  PerInstantEnv Env;
  EnvClockId C0 = Env.resolveClock("H0");
  EnvClockId C1 = Env.resolveClock("H1");

  unsigned char Out[5] = {9, 9, 9, 9, 9};
  Env.clockTicks(C0, 4, 5, Out);
  EXPECT_EQ(Env.TickCalls, 5u);
  for (unsigned I = 0; I < 5; ++I)
    EXPECT_EQ(Out[I] != 0, (4 + I) % 2 == 0) << "instant " << 4 + I;

  Env.clockTicks(C1, 0, 5, Out);
  EXPECT_EQ(Env.TickCalls, 10u);
  for (unsigned I = 0; I < 5; ++I)
    EXPECT_EQ(Out[I] != 0, I % 3 == 0) << "instant " << I;
}

TEST(EnvironmentBulk, InputValuesDefaultDelegatesPerInstant) {
  PerInstantEnv Env;
  EnvInputId A = Env.resolveInput("A", TypeKind::Integer);
  EnvInputId B = Env.resolveInput("B", TypeKind::Integer);
  ASSERT_NE(A, B);

  VmSlot Out[4];
  Env.inputValues(B, 7, 4, Out);
  EXPECT_EQ(Env.ValueCalls, 4u);
  for (unsigned I = 0; I < 4; ++I)
    EXPECT_EQ(Out[I].I, static_cast<int64_t>(B) * 1000 + 7 + I)
        << "instant " << 7 + I;
}

TEST(EnvironmentBulk, InputValuesDefaultConvertsByTheBindingType) {
  // A per-instant answer of another kind lands in the declared type's
  // slot: the integer answers of a real binding arrive widened.
  PerInstantEnv Env;
  EnvInputId R = Env.resolveInput("R", TypeKind::Real);
  VmSlot Out[2];
  Env.inputValues(R, 3, 2, Out);
  EXPECT_EQ(Out[0].R, static_cast<double>(R) * 1000 + 3);
  EXPECT_EQ(Out[1].R, static_cast<double>(R) * 1000 + 4);
}

TEST(EnvironmentBulk, ExchangeOutputsDefaultReplaysPerInstantOrder) {
  // A 3-instant batch over two outputs; presence is row-major
  // [instant][output]. The default must replay through writeOutput in
  // instant-major order, each instant in the executor's column order —
  // exactly the event sequence an unbatched run records.
  PerInstantEnv Env;
  EnvOutputId Y = Env.resolveOutput("Y", TypeKind::Integer);
  EnvOutputId Z = Env.resolveOutput("Z", TypeKind::Integer);
  EnvOutputId Ids[2] = {Y, Z};

  unsigned char Present[6] = {
      1, 1, // instant 5: Y and Z
      0, 1, // instant 6: Z only
      1, 0, // instant 7: Y only
  };
  VmSlot Vals[6] = {{50}, {51}, {0}, {61}, {70}, {0}};

  Env.exchangeOutputs(5, 3, 2, Ids, Present, Vals);
  EXPECT_EQ(Env.WriteCalls, 4u) << "only present cells are delivered";

  std::vector<OutputEvent> Expected = {
      {5, "Y", Value::makeInt(50)},
      {5, "Z", Value::makeInt(51)},
      {6, "Z", Value::makeInt(61)},
      {7, "Y", Value::makeInt(70)},
  };
  EXPECT_EQ(Env.outputs(), Expected);
}

TEST(EnvironmentBulk, ExchangeOutputsDefaultTypesRowsByTheBindingType) {
  // Each cell becomes the Value of its binding's declared type, so the
  // recorded text reads by that type.
  PerInstantEnv Env;
  EnvOutputId X = Env.resolveOutput("X", TypeKind::Real);
  EnvOutputId B = Env.resolveOutput("B", TypeKind::Boolean);
  EnvOutputId E = Env.resolveOutput("E", TypeKind::Event);
  EnvOutputId Ids[3] = {X, B, E};
  unsigned char Present[3] = {1, 1, 1};
  VmSlot Vals[3];
  Vals[0].R = 97.0;
  Vals[1].I = 0;
  Vals[2].I = 1;
  Env.exchangeOutputs(2, 1, 3, Ids, Present, Vals);
  EXPECT_EQ(formatEvents(Env.outputs()), "2 X=97.000000\n2 B=false\n2 E=tick\n");
}

TEST(EnvironmentBulk, OutputLineRendersLikeValueStr) {
  // formatEvents and the CLI's streamed text share appendOutputLine; its
  // values must read exactly as Value::str() renders them.
  const Value Cases[] = {
      Value::makeInt(0),          Value::makeInt(-42),
      Value::makeInt(INT64_MIN),  Value::makeInt(INT64_MAX),
      Value::makeReal(0.0),       Value::makeReal(-0.0),
      Value::makeReal(30.0),      Value::makeReal(0.1234565),
      Value::makeReal(-2.5e-7),   Value::makeReal(1e300),
      Value::makeReal(-1.7976931348623157e308),
      Value::makeBool(true),      Value::makeBool(false),
      Value::makeEvent(),         Value()};
  for (const Value &V : Cases) {
    std::string Line;
    appendOutputLine(Line, 4294967295u, "S", toSlot(V, V.Kind), V.Kind);
    EXPECT_EQ(Line, "4294967295 S=" + V.str() + "\n");
  }
}

TEST(EnvironmentBulk, EmptyWindowsTouchNothing) {
  PerInstantEnv Env;
  EnvClockId C0 = Env.resolveClock("H0");
  EnvOutputId Y = Env.resolveOutput("Y", TypeKind::Integer);

  Env.clockTicks(C0, 3, 0, nullptr);
  Env.inputValues(Env.resolveInput("A", TypeKind::Integer), 3, 0, nullptr);
  Env.exchangeOutputs(3, 0, 1, &Y, nullptr, nullptr);
  EXPECT_EQ(Env.TickCalls, 0u);
  EXPECT_EQ(Env.ValueCalls, 0u);
  EXPECT_EQ(Env.WriteCalls, 0u);
  EXPECT_TRUE(Env.outputs().empty());
}

TEST(EnvironmentBulk, RandomEnvironmentBulkEqualsPerInstant) {
  // RandomEnvironment overrides the bulk paths with straight loops; they
  // must agree answer for answer with its own per-instant virtuals.
  RandomEnvironment A(42), B(42);
  EnvClockId CA = A.resolveClock("H");
  EnvClockId CB = B.resolveClock("H");
  EnvInputId IA = A.resolveInput("X", TypeKind::Integer);
  EnvInputId IB = B.resolveInput("X", TypeKind::Integer);

  unsigned char Ticks[32];
  VmSlot Vals[32];
  A.clockTicks(CA, 10, 32, Ticks);
  A.inputValues(IA, 10, 32, Vals);
  for (unsigned I = 0; I < 32; ++I) {
    EXPECT_EQ(Ticks[I] != 0, B.clockTick(CB, 10 + I)) << "instant " << 10 + I;
    EXPECT_EQ(fromSlot(Vals[I], TypeKind::Integer), B.inputValue(IB, 10 + I))
        << "instant " << 10 + I;
  }
  // Every declared type draws the slot its per-instant Value converts to.
  for (TypeKind T : {TypeKind::Boolean, TypeKind::Event, TypeKind::Real}) {
    std::string Name = std::string("Y") + typeName(T);
    EnvInputId TA = A.resolveInput(Name, T), TB = B.resolveInput(Name, T);
    A.inputValues(TA, 10, 32, Vals);
    for (unsigned I = 0; I < 32; ++I) {
      VmSlot Want = toSlot(B.inputValue(TB, 10 + I), T);
      EXPECT_EQ(Vals[I].I, Want.I) << typeName(T) << " instant " << 10 + I;
    }
  }
}
