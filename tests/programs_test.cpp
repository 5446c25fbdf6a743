//===--- programs_test.cpp - Figure-13 suite sanity ------------------------===//

#include "TestUtil.h"
#include "programs/Programs.h"
#include "testing/Oracle.h"

#include <gtest/gtest.h>

using namespace sigc;
using namespace sigc::test;

TEST(Programs, Figure5AlarmCompiles) {
  auto C = compileOk(alarmFigure5Source());
  EXPECT_EQ(C->Forest->freeClocks().size(), 1u);
}

TEST(Programs, SuiteHasSevenPrograms) {
  EXPECT_EQ(figure13Suite().size(), 7u);
}

namespace {
class SuiteTest : public ::testing::TestWithParam<unsigned> {};
} // namespace

TEST_P(SuiteTest, CompilesAndMatchesPaperVariableCount) {
  Figure13Program P = figure13Suite()[GetParam()];
  auto C = compileOk(P.Source);
  ASSERT_TRUE(C->Ok) << P.Name;
  // The generated program's clock-variable count must be within 5% of the
  // paper's reported "number of variables".
  double Ratio = static_cast<double>(C->Clocks.numVars()) /
                 static_cast<double>(P.PaperVariables);
  EXPECT_GT(Ratio, 0.95) << P.Name << ": " << C->Clocks.numVars() << " vs "
                         << P.PaperVariables;
  EXPECT_LT(Ratio, 1.05) << P.Name << ": " << C->Clocks.numVars() << " vs "
                         << P.PaperVariables;
}

TEST_P(SuiteTest, SimulatesWithoutDivergence) {
  Figure13Program P = figure13Suite()[GetParam()];
  OracleOptions O;
  O.Instants = 16;
  O.EnvSeed = 11;
  OracleReport R = checkDifferential(P.Name, P.Source, O);
  EXPECT_TRUE(R.Ok) << R.Error;
}

INSTANTIATE_TEST_SUITE_P(AllSeven, SuiteTest, ::testing::Range(0u, 7u));

TEST(Programs, GeneratorShapesAreMonotone) {
  // More stages means more clock variables.
  ProgramShape Small{4, 0, 0, 0};
  ProgramShape Big{8, 0, 0, 0};
  auto CS = compileOk(generateProgram("S", Small));
  auto CB = compileOk(generateProgram("B", Big));
  EXPECT_LT(CS->Clocks.numVars(), CB->Clocks.numVars());
}

TEST(Programs, GridAddsIntersections) {
  ProgramShape NoGrid{2, 0, 0, 0};
  ProgramShape Grid{2, 0, 3, 3};
  auto CN = compileOk(generateProgram("N", NoGrid));
  auto CG = compileOk(generateProgram("G", Grid));
  EXPECT_GT(CG->Forest->stats().Insertions, CN->Forest->stats().Insertions);
}

TEST(Programs, AlarmFarmHasOneFreeClockPerInstance) {
  ProgramShape Shape{0, 3, 0, 0};
  auto C = compileOk(generateProgram("F", Shape));
  // Each automaton exhibits its own master clock; IN has one more.
  EXPECT_GE(C->Forest->freeClocks().size(), 4u);
}
