//===--- environment_test.cpp - The environment's windowed exchange -------===//
///
/// Every engine crosses the environment boundary through one windowed
/// exchange (clockTicks/inputValues/exchangeOutputs), whose values are
/// VmSlots of each binding's declared type; a one-instant window is how
/// KernelInterp and the VM's step() cross it. These tests pin that
/// contract: the base exchangeOutputs' event order and typing, the
/// ready-made environments' answers for scripted and unscripted cells,
/// answers that do not depend on how a run is cut into windows, and
/// empty windows that touch nothing — what lets RecordingEnvironment
/// wrap arbitrary environments and the serve loop drive any session
/// shape.
///
//===----------------------------------------------------------------------===//

#include "interp/Environment.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace sigc;

namespace {

/// Answers every tick and input with 0 and keeps the base class's
/// exchangeOutputs, so the tests see exactly what the default records.
class DefaultOutputsEnv : public Environment {
public:
  void clockTicks(EnvClockId, unsigned, unsigned Count,
                  unsigned char *Out) override {
    std::fill_n(Out, Count, 0);
  }
  void inputValues(EnvInputId, unsigned, unsigned Count,
                   VmSlot *Out) override {
    std::fill_n(Out, Count, VmSlot{0});
  }
};

} // namespace

TEST(EnvironmentBulk, ClockTicksDefaultDelegatesPerInstant) {
  // ScriptedEnvironment's ticks: a scripted cell ticks, an unscripted one
  // reads tickAlways().
  ScriptedEnvironment Env;
  Env.tick("H0", 5);
  Env.tick("H0", 7);
  EnvClockId C0 = Env.resolveClock("H0");
  EnvClockId C1 = Env.resolveClock("H1");

  unsigned char Out[5] = {9, 9, 9, 9, 9};
  Env.clockTicks(C0, 4, 5, Out);
  const unsigned char Scripted[5] = {0, 1, 0, 1, 0};
  for (unsigned I = 0; I < 5; ++I)
    EXPECT_EQ(Out[I], Scripted[I]) << "instant " << 4 + I;

  Env.clockTicks(C1, 4, 5, Out);
  for (unsigned I = 0; I < 5; ++I)
    EXPECT_EQ(Out[I], 0) << "unscripted instant " << 4 + I;

  Env.tickAlways();
  Env.clockTicks(C1, 4, 5, Out);
  for (unsigned I = 0; I < 5; ++I)
    EXPECT_EQ(Out[I], 1) << "tickAlways instant " << 4 + I;
}

TEST(EnvironmentBulk, InputValuesDefaultDelegatesPerInstant) {
  // ScriptedEnvironment's inputs: a scripted cell carries its value, an
  // unscripted one the neutral slot of the declared type.
  ScriptedEnvironment Env;
  Env.set("A", 8, Value::makeInt(-3));
  Env.set("B", 9, Value::makeBool(true));
  EnvInputId A = Env.resolveInput("A", TypeKind::Integer);
  EnvInputId B = Env.resolveInput("B", TypeKind::Boolean);
  EnvInputId E = Env.resolveInput("E", TypeKind::Event);
  EnvInputId R = Env.resolveInput("R", TypeKind::Real);

  VmSlot Out[3];
  Env.inputValues(A, 7, 3, Out);
  EXPECT_EQ(Out[0].I, 0);
  EXPECT_EQ(Out[1].I, -3);
  EXPECT_EQ(Out[2].I, 0);
  Env.inputValues(B, 7, 3, Out);
  EXPECT_EQ(Out[0].I, 0);
  EXPECT_EQ(Out[1].I, 0);
  EXPECT_EQ(Out[2].I, 1);
  Env.inputValues(E, 7, 3, Out);
  for (unsigned I = 0; I < 3; ++I)
    EXPECT_EQ(Out[I].I, 1) << "an unscripted event reads as its tick";
  Env.inputValues(R, 7, 3, Out);
  for (unsigned I = 0; I < 3; ++I)
    EXPECT_EQ(Out[I].R, 0.0);
}

TEST(EnvironmentBulk, InputValuesDefaultConvertsByTheBindingType) {
  // A scripted Value of another kind lands in the declared type's slot:
  // an integer scripted for a real binding arrives widened, a real for
  // an integer binding truncated (toSlot, the emitted C's conversion).
  ScriptedEnvironment Env;
  Env.set("R", 3, Value::makeInt(7));
  Env.set("N", 3, Value::makeReal(-2.75));
  VmSlot Out;
  Env.inputValues(Env.resolveInput("R", TypeKind::Real), 3, 1, &Out);
  EXPECT_EQ(Out.R, 7.0);
  Env.inputValues(Env.resolveInput("N", TypeKind::Integer), 3, 1, &Out);
  EXPECT_EQ(Out.I, -2);
}

TEST(EnvironmentBulk, ExchangeOutputsDefaultReplaysPerInstantOrder) {
  // A 3-instant window over two outputs; presence is row-major
  // [instant][output]. The default records the present cells
  // instant-major, each instant in the executor's column order.
  DefaultOutputsEnv Env;
  EnvOutputId Y = Env.resolveOutput("Y", TypeKind::Integer);
  EnvOutputId Z = Env.resolveOutput("Z", TypeKind::Integer);
  EnvOutputId Ids[2] = {Z, Y}; // Column order need not be id order.

  unsigned char Present[6] = {
      1, 1, // instant 5: Z and Y
      0, 1, // instant 6: Y only
      1, 0, // instant 7: Z only
  };
  VmSlot Vals[6] = {{51}, {50}, {0}, {61}, {70}, {0}};

  Env.exchangeOutputs(5, 3, 2, Ids, Present, Vals);

  std::vector<OutputEvent> Expected = {
      {5, "Z", Value::makeInt(51)},
      {5, "Y", Value::makeInt(50)},
      {6, "Y", Value::makeInt(61)},
      {7, "Z", Value::makeInt(70)},
  };
  EXPECT_EQ(Env.outputs(), Expected) << "only present cells are recorded";
}

TEST(EnvironmentBulk, ExchangeOutputsDefaultTypesRowsByTheBindingType) {
  // Each cell becomes the Value of its binding's declared type, so the
  // recorded text reads by that type.
  DefaultOutputsEnv Env;
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
  ASSERT_EQ(Env.outputs().size(), 3u);
  EXPECT_EQ(Env.outputs()[0].Val, Value::makeReal(97.0));
  EXPECT_EQ(Env.outputs()[1].Val, Value::makeBool(false));
  EXPECT_EQ(Env.outputs()[2].Val, Value::makeEvent());
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
  // A zero-instant window reads and writes no buffer (null ones here)
  // and records nothing, on the ready-made environments and the default.
  ScriptedEnvironment Scripted;
  Scripted.tickAlways();
  RandomEnvironment Random(5);
  DefaultOutputsEnv Default;
  for (Environment *Env :
       std::initializer_list<Environment *>{&Scripted, &Random, &Default}) {
    EnvOutputId Y = Env->resolveOutput("Y", TypeKind::Integer);
    Env->clockTicks(Env->resolveClock("H0"), 3, 0, nullptr);
    Env->inputValues(Env->resolveInput("A", TypeKind::Integer), 3, 0, nullptr);
    Env->exchangeOutputs(3, 0, 1, &Y, nullptr, nullptr);
    EXPECT_TRUE(Env->outputs().empty());
  }
}

TEST(EnvironmentBulk, RandomEnvironmentBulkEqualsPerInstant) {
  // RandomEnvironment's answers do not depend on the window: one call
  // over [10, 20) equals ten one-instant calls, for the clock and every
  // declared input type, and on an environment that bound its names in
  // another order.
  RandomEnvironment A(42), B(42);
  const TypeKind Types[] = {TypeKind::Integer, TypeKind::Boolean,
                            TypeKind::Event, TypeKind::Real};
  EnvInputId InA[4], InB[4];
  for (unsigned K = 0; K < 4; ++K)
    InA[K] = A.resolveInput(std::string("X") + typeName(Types[K]), Types[K]);
  for (unsigned K = 4; K-- > 0;)
    InB[K] = B.resolveInput(std::string("X") + typeName(Types[K]), Types[K]);
  EnvClockId CA = A.resolveClock("H");
  EnvClockId CB = B.resolveClock("H");

  unsigned char Ticks[10];
  A.clockTicks(CA, 10, 10, Ticks);
  unsigned Present = 0;
  for (unsigned I = 0; I < 10; ++I) {
    unsigned char One = 9;
    B.clockTicks(CB, 10 + I, 1, &One);
    EXPECT_EQ(Ticks[I], One) << "instant " << 10 + I;
    Present += One;
  }
  EXPECT_GT(Present, 0u);
  EXPECT_LT(Present, 10u) << "the window must mix ticks and silences";

  for (unsigned K = 0; K < 4; ++K) {
    VmSlot Vals[10];
    A.inputValues(InA[K], 10, 10, Vals);
    for (unsigned I = 0; I < 10; ++I) {
      VmSlot One;
      B.inputValues(InB[K], 10 + I, 1, &One);
      EXPECT_EQ(Vals[I].I, One.I) << typeName(Types[K]) << " instant " << 10 + I;
    }
  }
}
