//===--- linked_differential_test.cpp - Linked-vs-monolithic oracle -------===//
///
/// The separate-compilation acceptance suite: producer/consumer systems
/// compiled separately and linked must produce, on the differential
/// oracle, traces identical to the monolithic compilation of the
/// textually composed program — for hand-written pipelines and for 100+
/// seeded random two-process systems, with the linked C emission
/// round-tripped through the host C compiler on a sample. The oracle
/// also asserts linking performed no per-process re-resolution.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "testing/Oracle.h"
#include "testing/RandomProgram.h"

#include <gtest/gtest.h>

using namespace sigc;
using namespace sigc::test;

namespace {

/// The hand-written sensor/monitor pipeline (also examples/linked_pipeline).
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

const char *SensorMonitorComposed = R"(
process PIPE =
  ( ? integer RAW;
    ! integer TOTAL; boolean ALERT; )
  (| EVENFLAG := (RAW mod 2) = 0
   | KEPT := RAW when EVENFLAG
   | SUM := KEPT + (SUM $ 1 init 0)
   | synchro {KEPT, SUM}
   | TOTAL := KEPT + (TOTAL $ 1 init 0)
   | ALERT := SUM > 20
  |)
  where
    boolean EVENFLAG;
    integer KEPT, SUM;
  end;
)";

/// A Figure-13-style divider pipeline split at a process boundary: the
/// front half samples every other occurrence twice (a two-stage divider
/// chain), the back half counts what survives.
const char *DividerFrontSource = R"(
process FRONT =
  ( ? integer STREAM;
    ! integer LVL2; )
  (| F1 := not (F1 $ 1 init false)
   | synchro {F1, STREAM}
   | LVL1 := STREAM when F1
   | F2 := not (F2 $ 1 init false)
   | synchro {F2, LVL1}
   | LVL2 := LVL1 when F2
  |)
  where
    boolean F1, F2;
    integer LVL1;
  end;
)";

const char *DividerBackSource = R"(
process BACK =
  ( ? integer LVL2;
    ! integer COUNT, LAST; )
  (| COUNT := 1 + (COUNT $ 1 init 0)
   | synchro {COUNT, LVL2}
   | LAST := LVL2
  |);
)";

const char *DividerComposed = R"(
process DIVIDE4 =
  ( ? integer STREAM;
    ! integer COUNT, LAST; )
  (| F1 := not (F1 $ 1 init false)
   | synchro {F1, STREAM}
   | LVL1 := STREAM when F1
   | F2 := not (F2 $ 1 init false)
   | synchro {F2, LVL1}
   | LVL2 := LVL1 when F2
   | COUNT := 1 + (COUNT $ 1 init 0)
   | synchro {COUNT, LVL2}
   | LAST := LVL2
  |)
  where
    boolean F1, F2;
    integer LVL1, LVL2;
  end;
)";

} // namespace

TEST(LinkedDifferential, SensorMonitorPipeline) {
  OracleOptions O;
  O.Instants = 96;
  O.EnvSeed = 7;
  OracleReport R = checkLinkedDifferential(
      "sensor-monitor",
      {{"SENSOR", SensorSource}, {"MONITOR", MonitorSource}},
      SensorMonitorComposed, O);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(LinkedDifferential, DividerPipeline) {
  OracleOptions O;
  O.Instants = 128;
  O.EnvSeed = 3;
  OracleReport R = checkLinkedDifferential(
      "divider",
      {{"FRONT", DividerFrontSource}, {"BACK", DividerBackSource}},
      DividerComposed, O);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(LinkedDifferential, SensorMonitorEmittedC) {
  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  OracleOptions O;
  O.Instants = 64;
  O.EnvSeed = 11;
  O.EmitCRoundTrip = true;
  OracleReport R = checkLinkedDifferential(
      "sensor-monitor-c",
      {{"SENSOR", SensorSource}, {"MONITOR", MonitorSource}},
      SensorMonitorComposed, O);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.CRoundTripRan);
}

//===----------------------------------------------------------------------===//
// Random two-process systems: 8 blocks x 13 seeds = 104 pairs.
//===----------------------------------------------------------------------===//

namespace {

class RandomPairDifferential : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(RandomPairDifferential, LinkedMatchesMonolithic) {
  unsigned Block = GetParam();
  ProcessPairOptions Gen;
  OracleOptions O;
  O.Instants = 48;
  for (uint64_t Seed = Block * 13; Seed < (Block + 1) * 13ull; ++Seed) {
    O.EnvSeed = Seed * 31 + 1;
    OracleReport R = checkRandomPairDifferential(Seed, Gen, O);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomPairDifferential,
                         ::testing::Range(0u, 8u));

TEST(RandomPairDifferential, SparseTicks) {
  ProcessPairOptions Gen;
  OracleOptions O;
  O.Instants = 64;
  O.TickPermille = 350; // mostly-absent free clocks
  for (uint64_t Seed = 300; Seed < 312; ++Seed) {
    O.EnvSeed = Seed + 17;
    OracleReport R = checkRandomPairDifferential(Seed, Gen, O);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}

TEST(RandomPairDifferential, BiggerUnits) {
  ProcessPairOptions Gen;
  Gen.Producer.Equations = 24;
  Gen.Consumer.Equations = 24;
  Gen.MaxChannels = 4;
  OracleOptions O;
  O.Instants = 32;
  for (uint64_t Seed = 400; Seed < 410; ++Seed) {
    O.EnvSeed = Seed;
    OracleReport R = checkRandomPairDifferential(Seed, Gen, O);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}

TEST(RandomPairDifferential, EmittedCSample) {
  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  ProcessPairOptions Gen;
  OracleOptions O;
  O.Instants = 32;
  O.EmitCRoundTrip = true;
  for (uint64_t Seed = 500; Seed < 506; ++Seed) {
    O.EnvSeed = Seed;
    OracleReport R = checkRandomPairDifferential(Seed, Gen, O);
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.CRoundTripRan);
  }
}

//===----------------------------------------------------------------------===//
// Longer chains: three and four processes linked in sequence.
//===----------------------------------------------------------------------===//

TEST(RandomChainDifferential, ThreeAndFourStages) {
  for (unsigned Stages : {3u, 4u}) {
    for (uint64_t Seed = 0; Seed < 6; ++Seed) {
      GeneratedChain Chain = generateProcessChain(Seed, Stages);
      std::vector<LinkInput> Inputs;
      for (size_t K = 0; K < Chain.Sources.size(); ++K)
        Inputs.push_back({Chain.Names[K], Chain.Sources[K]});
      OracleOptions O;
      O.Instants = 32;
      O.EnvSeed = Seed + 5;
      OracleReport R = checkLinkedDifferential(
          "chain-" + std::to_string(Stages) + "-" + std::to_string(Seed),
          Inputs, Chain.ComposedSource, O);
      EXPECT_TRUE(R.Ok) << R.Error;
    }
  }
}

//===----------------------------------------------------------------------===//
// Feedback and diamond systems: the compositions instruction-level
// fusion exists for. Whole-unit linking had to reject both — the loop
// because the unit graph is cyclic, the diamond because its synchro
// obligation spans two producers' forests.
//===----------------------------------------------------------------------===//

TEST(FeedbackDifferential, LoopMatchesMonolithic) {
  for (uint64_t Seed = 0; Seed < 12; ++Seed) {
    GeneratedPair P = generateFeedbackPair(Seed);
    std::vector<LinkInput> Inputs = {{P.ProducerName, P.ProducerSource},
                                     {P.ConsumerName, P.ConsumerSource}};
    OracleOptions O;
    O.Instants = 48;
    O.EnvSeed = Seed * 7 + 3;
    OracleReport R = checkLinkedDifferential(
        "feedback-" + std::to_string(Seed), Inputs, P.ComposedSource, O);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}

TEST(FeedbackDifferential, SparseTicks) {
  for (uint64_t Seed = 20; Seed < 26; ++Seed) {
    GeneratedPair P = generateFeedbackPair(Seed);
    std::vector<LinkInput> Inputs = {{P.ProducerName, P.ProducerSource},
                                     {P.ConsumerName, P.ConsumerSource}};
    OracleOptions O;
    O.Instants = 64;
    O.TickPermille = 350;
    O.EnvSeed = Seed + 11;
    OracleReport R = checkLinkedDifferential(
        "feedback-sparse-" + std::to_string(Seed), Inputs, P.ComposedSource,
        O);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}

TEST(FeedbackDifferential, SplitBlockMatchesMonolithic) {
  // Fusion re-opens SPLITA's [C1]-block after SPLITB runs; the collapsed
  // guard chain must keep the fused step equal to the monolithic one.
  OracleOptions O;
  O.Instants = 96;
  O.EnvSeed = 5;
  O.EmitCRoundTrip = true;
  OracleReport R = checkLinkedDifferential(
      "split-block", linkedSplitBlockInputs(), linkedSplitBlockComposed(), O);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(FeedbackDifferential, EmittedC) {
  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  for (uint64_t Seed = 0; Seed < 4; ++Seed) {
    GeneratedPair P = generateFeedbackPair(Seed);
    std::vector<LinkInput> Inputs = {{P.ProducerName, P.ProducerSource},
                                     {P.ConsumerName, P.ConsumerSource}};
    OracleOptions O;
    O.Instants = 32;
    O.EnvSeed = Seed + 1;
    O.EmitCRoundTrip = true;
    OracleReport R = checkLinkedDifferential(
        "feedback-c-" + std::to_string(Seed), Inputs, P.ComposedSource, O);
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.CRoundTripRan);
  }
}

TEST(DiamondDifferential, JointObligationMatchesMonolithic) {
  for (uint64_t Seed = 0; Seed < 12; ++Seed) {
    GeneratedChain D = generateDiamondSystem(Seed);
    std::vector<LinkInput> Inputs;
    for (size_t K = 0; K < D.Sources.size(); ++K)
      Inputs.push_back({D.Names[K], D.Sources[K]});
    OracleOptions O;
    O.Instants = 48;
    O.EnvSeed = Seed * 5 + 2;
    OracleReport R = checkLinkedDifferential(
        "diamond-" + std::to_string(Seed), Inputs, D.ComposedSource, O);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}

TEST(DiamondDifferential, EmittedC) {
  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  for (uint64_t Seed = 0; Seed < 4; ++Seed) {
    GeneratedChain D = generateDiamondSystem(Seed);
    std::vector<LinkInput> Inputs;
    for (size_t K = 0; K < D.Sources.size(); ++K)
      Inputs.push_back({D.Names[K], D.Sources[K]});
    OracleOptions O;
    O.Instants = 32;
    O.EnvSeed = Seed + 9;
    O.EmitCRoundTrip = true;
    OracleReport R = checkLinkedDifferential(
        "diamond-c-" + std::to_string(Seed), Inputs, D.ComposedSource, O);
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.CRoundTripRan);
  }
}

//===----------------------------------------------------------------------===//
// Generator sanity for the multi-process mode.
//===----------------------------------------------------------------------===//

TEST(FeedbackGenerator, DeterministicAndChannelShaped) {
  GeneratedPair A = generateFeedbackPair(7);
  GeneratedPair B = generateFeedbackPair(7);
  EXPECT_EQ(A.ProducerSource, B.ProducerSource);
  EXPECT_EQ(A.ConsumerSource, B.ConsumerSource);
  EXPECT_EQ(A.ComposedSource, B.ComposedSource);
  ASSERT_EQ(A.Channels.size(), 2u);
  EXPECT_NE(A.ProducerSource, generateFeedbackPair(8).ProducerSource);
}

TEST(DiamondGenerator, DeterministicWithSpanningSynchro) {
  GeneratedChain A = generateDiamondSystem(3);
  GeneratedChain B = generateDiamondSystem(3);
  ASSERT_EQ(A.Sources.size(), 4u);
  EXPECT_EQ(A.Sources, B.Sources);
  EXPECT_EQ(A.ComposedSource, B.ComposedSource);
  // The consumer carries the obligation that spans both producers.
  EXPECT_NE(A.Sources[3].find("synchro {DA, DB}"), std::string::npos);
  EXPECT_NE(A.Sources, generateDiamondSystem(4).Sources);
}

TEST(ProcessPairGenerator, DeterministicForFixedSeed) {
  ProcessPairOptions O;
  GeneratedPair A = generateProcessPair(77, O);
  GeneratedPair B = generateProcessPair(77, O);
  EXPECT_EQ(A.ProducerSource, B.ProducerSource);
  EXPECT_EQ(A.ConsumerSource, B.ConsumerSource);
  EXPECT_EQ(A.ComposedSource, B.ComposedSource);
  EXPECT_EQ(A.Channels, B.Channels);
}

TEST(ProcessPairGenerator, ChannelsAreProducerOutputsAndConsumerInputs) {
  GeneratedPair P = generateProcessPair(5);
  ASSERT_FALSE(P.Channels.empty());
  for (const std::string &Ch : P.Channels) {
    // Exported by the producer...
    EXPECT_NE(P.ProducerSource.find(Ch), std::string::npos) << Ch;
    // ...imported by the consumer...
    EXPECT_NE(P.ConsumerSource.find(Ch), std::string::npos) << Ch;
    // ...and internal (a local) in the composition.
    EXPECT_NE(P.ComposedSource.find(Ch), std::string::npos) << Ch;
  }
}
