//===--- TestUtil.h - Shared test helpers -----------------------*- C++-*-===//

#ifndef SIGNALC_TESTS_TESTUTIL_H
#define SIGNALC_TESTS_TESTUTIL_H

#include "driver/Driver.h"
#include "driver/Simulation.h"
#include "link/Linker.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace sigc::test {

/// Compiles \p Source and expects success; failures print diagnostics.
inline std::unique_ptr<Compilation> compileOk(const std::string &Source) {
  auto C = compileSource("<test>", Source);
  EXPECT_TRUE(C->Ok) << "stage: " << C->failedStageName() << "\n"
                     << C->Diags.render();
  return C;
}

/// Compiles \p Source and expects failure in \p Stage.
inline std::unique_ptr<Compilation> compileErr(const std::string &Source,
                                               CompileStage Stage) {
  auto C = compileSource("<test>", Source);
  EXPECT_FALSE(C->Ok);
  EXPECT_EQ(C->failedStageName(), std::string(to_string(Stage)))
      << C->Diags.render();
  return C;
}

/// Wraps a body and locals into a one-process source with the given
/// interface lines, for compact test programs.
inline std::string proc(const std::string &Interface, const std::string &Body,
                        const std::string &Locals = "") {
  std::string Out = "process P =\n  ( " + Interface + " )\n  (|\n" + Body +
                    "\n  |)\n";
  if (!Locals.empty())
    Out += "  where " + Locals + " end";
  Out += ";\n";
  return Out;
}

/// Normalizes dump/emission output for golden-file comparison: CRLF to
/// LF, trailing whitespace stripped per line, exactly one trailing
/// newline. Content differences still fail; whitespace drift does not.
inline std::string normalizeDump(const std::string &Text) {
  std::string Out;
  std::string Line;
  std::istringstream In(Text);
  while (std::getline(In, Line)) {
    while (!Line.empty() && (Line.back() == ' ' || Line.back() == '\t' ||
                             Line.back() == '\r'))
      Line.pop_back();
    Out += Line;
    Out += '\n';
  }
  while (Out.size() >= 2 && Out[Out.size() - 1] == '\n' &&
         Out[Out.size() - 2] == '\n')
    Out.pop_back();
  return Out;
}

/// Reads a file under tests/ (e.g. "golden/FIG5_ALARM.tree.txt").
/// The directory comes from the SIGNALC_TEST_DIR compile definition the
/// build sets on every test target.
inline std::string readTestFile(const std::string &RelPath) {
  std::string Path = std::string(SIGNALC_TEST_DIR) + "/" + RelPath;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Compares \p Actual against the golden file at \p RelPath, after
/// normalizing both sides.
inline void expectMatchesGolden(const std::string &Actual,
                                const std::string &RelPath) {
  std::string Golden = readTestFile(RelPath);
  EXPECT_EQ(normalizeDump(Actual), normalizeDump(Golden))
      << "output differs from golden file " << RelPath
      << " (regenerate it if the change is intentional)";
}

/// LINKED_PIPELINE: the sensor/monitor producer-consumer composition the
/// golden tests pin.
inline std::vector<LinkInput> linkedPipelineInputs() {
  return {{"SENSOR", R"(
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
)"},
          {"MONITOR", R"(
process MONITOR =
  ( ? integer KEPT, SUM;
    ! integer TOTAL; boolean ALERT; )
  (| synchro {KEPT, SUM}
   | TOTAL := KEPT + (TOTAL $ 1 init 0)
   | ALERT := SUM > 20
  |);
)"}};
}

/// LINKED_FEEDBACK: a unit-level cycle whose fused schedule interleaves
/// LOOPA's producer half, all of LOOPB, then LOOPA's consumer half.
inline std::vector<LinkInput> linkedFeedbackInputs() {
  return {{"LOOPA",
           "process LOOPA = ( ? integer FX, FB; ! integer FA, FC; )"
           " (| FA := (FX + 1) mod 97 | FC := (FB * 2 + 3) mod 97 |);"},
          {"LOOPB", "process LOOPB = ( ? integer FA; ! integer FB; )"
                    " (| FB := (FA * 4 + 5) mod 97 |);"}};
}

/// PROD/CONS: CONS derives the clock of its import X from its own
/// condition B, so the linker cannot bind it and the fused step checks,
/// every instant, that X is present exactly when PROD emitted it.
inline std::vector<LinkInput> linkedDynamicCheckInputs() {
  return {{"PROD",
           "process PROD = ( ? integer A; ! integer X; ) (| X := A |);\n"},
          {"CONS", R"(
process CONS =
  ( ? integer X; boolean B; ! integer Y; )
  (| W := when B
   | synchro {X, W}
   | Y := X + 1
  |)
  where
    event W;
  end;
)"}};
}

/// A feedback system whose fusion splits a nested block: SPLITA's
/// [C1]-block runs partly before SPLITB (FA) and partly after it (FE
/// reads FB), so the re-synthesized guards re-open the block path in
/// the second half — the same-target guard chain fusion must collapse.
inline std::vector<LinkInput> linkedSplitBlockInputs() {
  return {{"SPLITA", R"(
process SPLITA =
  ( ? integer FX, FB; boolean C1;
    ! integer FA, FE; )
  (| synchro {FX, C1}
   | T := FX when C1
   | synchro {FB, T}
   | FA := T + 1
   | FE := FB + T
  |)
  where
    integer T;
  end;
)"},
          {"SPLITB", "process SPLITB = ( ? integer FA; ! integer FB; )"
                     " (| FB := (FA * 4 + 5) mod 97 |);"}};
}

/// The monolithic composition of linkedSplitBlockInputs().
inline const char *linkedSplitBlockComposed() {
  return R"(
process SPLIT =
  ( ? integer FX; boolean C1;
    ! integer FE; )
  (| synchro {FX, C1}
   | T := FX when C1
   | FA := T + 1
   | FB := (FA * 4 + 5) mod 97
   | FE := FB + T
  |)
  where
    integer T, FA, FB;
  end;
)";
}

/// One simulateFleet run: instance j against its own RandomEnvironment
/// seeded Base + 1000003 * j (distinct but deterministic).
struct FleetRun {
  std::vector<std::unique_ptr<RandomEnvironment>> Owned;
  SimulationTotals Totals;

  static uint64_t seed(uint64_t Base, unsigned Instance) {
    return Base + 1000003ull * Instance;
  }

  FleetRun(const CompiledStep &CS, unsigned Instances, uint64_t BaseSeed,
           unsigned Instants, unsigned Batch, unsigned Threads,
           const TierController *Tier = nullptr) {
    std::vector<Environment *> Envs;
    for (unsigned J = 0; J < Instances; ++J) {
      Owned.push_back(std::make_unique<RandomEnvironment>(seed(BaseSeed, J)));
      Envs.push_back(Owned.back().get());
    }
    Totals = simulateFleet(CS, Envs, Instants, Batch, Threads, Tier);
  }
};

} // namespace sigc::test

#endif // SIGNALC_TESTS_TESTUTIL_H
