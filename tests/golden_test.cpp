//===--- golden_test.cpp - Golden-file pins of the compiler's dumps -------===//
///
/// Pins the resolved clock forest (--dump-tree), the CompiledStep
/// bytecode (--dump-step), the C emission (--emit-c) and the
/// separate-compilation interface (--dump-interface) of five builtin
/// programs against checked-in golden files under tests/golden/. These
/// are change detectors: any alteration of the hierarchization, the
/// bytecode lowering or the code generator shows up as a readable diff
/// here before the differential suite has to find it dynamically.
///
/// To regenerate after an intentional change, write the new dumps over
/// tests/golden/<NAME>.{tree,step,c,iface}.txt (the test failure message
/// carries the full actual output).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "codegen/CEmitter.h"
#include "link/Linker.h"
#include "link/ProcessInterface.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

using namespace sigc;
using namespace sigc::test;

namespace {

/// Names of the pinned Figure-13 programs (FIG5_ALARM is pinned
/// separately; STOPWATCH/WATCH/ALARM dumps are large and churn-prone).
const char *PinnedPrograms[] = {"CHRONO", "SUPERVISOR", "PACE_MAKER",
                                "ROBOT"};

std::string builtinSource(const std::string &Name) {
  if (Name == "FIG5_ALARM")
    return alarmFigure5Source();
  for (const Figure13Program &P : figure13Suite())
    if (P.Name == Name)
      return P.Source;
  ADD_FAILURE() << "unknown builtin " << Name;
  return "";
}

void checkGolden(const std::string &Name) {
  auto C = compileOk(builtinSource(Name));
  if (!C->Ok)
    return;
  const StringInterner &Names = C->names();
  std::string Proc(Names.spelling(C->Decl->Name));

  expectMatchesGolden(C->Forest->dump(C->Clocks, *C->Kernel, Names),
                      "golden/" + Name + ".tree.txt");

  // The single lowered IR (--dump-step): the bytecode both the VM and
  // the C emitter consume.
  expectMatchesGolden(C->Compiled.dump(), "golden/" + Name + ".step.txt");

  expectMatchesGolden(emitC(C->Compiled, Proc, CEmitOptions()),
                      "golden/" + Name + ".c.txt");

  // The separate-compilation interface (--dump-interface): pins the
  // restricted forest shape and the endochrony verdict.
  expectMatchesGolden(extractInterface(*C).dump(),
                      "golden/" + Name + ".iface.txt");
}

} // namespace

TEST(Golden, NormalizeDumpStripsTrailingWhitespace) {
  EXPECT_EQ(normalizeDump("a  \nb\t\r\n\n\nc"), "a\nb\n\n\nc\n");
  EXPECT_EQ(normalizeDump("x\n"), "x\n");
  EXPECT_EQ(normalizeDump(""), "");
}

TEST(Golden, Figure5AlarmTreeAndC) { checkGolden("FIG5_ALARM"); }

class GoldenFigure13 : public ::testing::TestWithParam<const char *> {};

TEST_P(GoldenFigure13, TreeAndC) { checkGolden(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Pinned, GoldenFigure13,
                         ::testing::ValuesIn(PinnedPrograms),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Linked-system pins: the fused schedule (--dump-link) and the fused
// step's C (the ordinary emission, named linked_sys) of two builtin
// compositions. LINKED_PIPELINE is the
// sensor/monitor producer-consumer example; LINKED_FEEDBACK is a
// unit-level cycle whose fused schedule interleaves LOOPA's producer
// half, all of LOOPB, then LOOPA's consumer half — the schedule shape IS
// the feature, so it is pinned. Regenerate with (stdout only; the
// status line goes to stderr):
//   signalc --link <procs> --dump-link <src>  >  <NAME>.link.txt
//   signalc --link <procs> --emit-c    <src>  >  <NAME>.c.txt
//===----------------------------------------------------------------------===//

namespace {

void checkLinkedGolden(const std::string &Name,
                       const std::vector<LinkInput> &Inputs) {
  LinkResult R = compileAndLinkSources(Inputs);
  ASSERT_TRUE(R.Sys) << R.Error;
  expectMatchesGolden(R.Sys->dump() + "fused schedule:\n" +
                          R.Sys->Fused.dump(),
                      "golden/" + Name + ".link.txt");
  expectMatchesGolden(emitC(R.Sys->Fused, "linked_sys", CEmitOptions()),
                      "golden/" + Name + ".c.txt");
}

} // namespace

TEST(GoldenLinked, PipelineFusedScheduleAndC) {
  checkLinkedGolden("LINKED_PIPELINE", linkedPipelineInputs());
}

TEST(GoldenLinked, FeedbackFusedScheduleAndC) {
  checkLinkedGolden("LINKED_FEEDBACK", linkedFeedbackInputs());
}
