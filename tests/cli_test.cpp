//===--- cli_test.cpp - signalc command-line regression tests -------------===//
///
/// Subprocess tests of the installed `signalc` binary: its argument
/// handling and, against in-process reference runs, its output. Every
/// flag is a row of SIGC_CLI_FLAGS, parsed by parseCli; cli_parse_test
/// drives each row in process, and these tests pin the same diagnostics
/// end to end: a malformed, out-of-range or missing operand is an
/// exit-code-2 failure naming the flag — historically `--batch abc` was
/// an uncaught std::stoul throw and a flag given as the last argument
/// was silently dropped.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Driver.h"
#include "interp/VmExecutor.h"
#include "link/Linker.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace sigc;

namespace {

struct CliResult {
  int Exit = -1;
  std::string Output; ///< stdout and stderr, interleaved.
};

/// Runs `signalc <Args>` and captures exit code plus combined output
/// (stdout only when \p StdoutOnly). A nonempty \p PipeFrom is piped
/// into signalc's stdin, so `--replay /dev/stdin` reads a pipe.
CliResult runSignalc(const std::string &Args, bool StdoutOnly = false,
                     const std::string &PipeFrom = "") {
  CliResult R;
  std::string Cmd = (PipeFrom.empty() ? "" : "cat '" + PipeFrom + "' | ") +
                    std::string(SIGNALC_BIN) + " " + Args +
                    (StdoutOnly ? " 2>/dev/null" : " 2>&1");
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof Buf, P)) > 0)
    R.Output.append(Buf, N);
  int St = pclose(P);
  if (WIFEXITED(St))
    R.Exit = WEXITSTATUS(St);
  return R;
}

const char *numericFlags[] = {"--simulate", "--batch", "--seed", "--fleet",
                              "--threads"};

} // namespace

TEST(Cli, MalformedNumericOperandIsDiagnosedPerFlag) {
  for (const char *Flag : numericFlags) {
    CliResult R =
        runSignalc("--builtin FIG5_ALARM " + std::string(Flag) + " abc");
    EXPECT_EQ(R.Exit, 2) << Flag << ": " << R.Output;
    EXPECT_NE(R.Output.find("invalid value 'abc' for " + std::string(Flag)),
              std::string::npos)
        << Flag << ": " << R.Output;
  }
}

TEST(Cli, NegativeNumericOperandIsDiagnosed) {
  CliResult R = runSignalc("--builtin FIG5_ALARM --simulate -5");
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("invalid value '-5' for --simulate"),
            std::string::npos)
      << R.Output;
}

TEST(Cli, OutOfRangeSeedIsDiagnosedNotThrown) {
  // 20 digits: above 2^64-1. Historically this was an uncaught
  // std::out_of_range from std::stoull (an abort, not a diagnostic).
  CliResult R =
      runSignalc("--builtin FIG5_ALARM --seed 99999999999999999999");
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("for --seed is out of range"), std::string::npos)
      << R.Output;
}

TEST(Cli, OutOfRangeUnsignedFlagIsDiagnosed) {
  // Fits in 64 bits but not in the 32-bit instant/instance counts.
  for (const char *Flag : {"--simulate", "--fleet"}) {
    CliResult R = runSignalc("--builtin FIG5_ALARM " + std::string(Flag) +
                             " 99999999999");
    EXPECT_EQ(R.Exit, 2) << Flag << ": " << R.Output;
    EXPECT_NE(R.Output.find("is out of range (max 4294967295)"),
              std::string::npos)
        << Flag << ": " << R.Output;
  }
}

TEST(Cli, MissingOperandAsLastArgumentIsDiagnosedPerFlag) {
  // A numeric flag as the very last argument used to be silently
  // dropped; it must diagnose the missing operand and exit 2.
  for (const char *Flag : numericFlags) {
    CliResult R = runSignalc("--builtin FIG5_ALARM " + std::string(Flag));
    EXPECT_EQ(R.Exit, 2) << Flag << ": " << R.Output;
    EXPECT_NE(R.Output.find("missing value for " + std::string(Flag)),
              std::string::npos)
        << Flag << ": " << R.Output;
  }
}

TEST(Cli, StringFlagMissingOperandIsDiagnosedPerFlag) {
  // `--replay` or `--serve` as the last argument used to exit 0 having
  // done nothing, `--record` to write no file, `--mode` to run the vm.
  for (const char *Flag : {"--record", "--replay", "--serve", "--mode",
                           "--cache-dir", "--link", "--process",
                           "--builtin"}) {
    CliResult R = runSignalc("--builtin FIG5_ALARM --simulate 2 " +
                             std::string(Flag));
    EXPECT_EQ(R.Exit, 2) << Flag << ": " << R.Output;
    EXPECT_NE(R.Output.find("missing value for " + std::string(Flag)),
              std::string::npos)
        << Flag << ": " << R.Output;
  }
}

TEST(Cli, StringFlagRefusesAFlagAsItsOperand) {
  // `--record --stats` used to record into a file named `--stats` and
  // print no stats. A path that merely looks like a flag still works
  // when it does not start with `--`.
  for (const char *Flag : {"--record", "--replay", "--mode", "--cache-dir",
                           "--process"}) {
    CliResult R = runSignalc("--builtin FIG5_ALARM --simulate 2 " +
                             std::string(Flag) + " --stats");
    EXPECT_EQ(R.Exit, 2) << Flag << ": " << R.Output;
    EXPECT_NE(R.Output.find("missing value for " + std::string(Flag)),
              std::string::npos)
        << Flag << ": " << R.Output;
  }
  std::string Path = ::testing::TempDir() + "--sigc_cli_flaglike_" +
                     std::to_string(::getpid()) + ".sgtr";
  CliResult R = runSignalc("--builtin FIG5_ALARM --simulate 2 --record " +
                           Path + " --stats");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("stats: mode=vm instants=2 "), std::string::npos)
      << R.Output;
  EXPECT_EQ(std::remove(Path.c_str()), 0) << "no trace at " << Path;
}

TEST(Cli, QualifierWithoutItsFlagIsAUsageError) {
  // Each of these only qualifies another flag; without it the run used to
  // exit 0 having ignored it.
  const std::pair<const char *, const char *> Cases[] = {
      {"--with-driver", "--emit-c"},
      {"--simulate 3 --frame 4", "--record"},
      {"--simulate 3 --tier-after 5", "--native"},
      {"--simulate 3 --tier-after=5", "--native"},
      {"--simulate 3 --cache-dir /nonexistent", "--native"},
      {"--simulate 3 --cache-dir=/nonexistent", "--native"},
      {"--simulate 3 --threads 2", "--fleet"},
      {"--max-sessions 2", "--serve"},
      {"--serve-limit 1", "--serve"},
      {"--resume 2", "--serve"},
      {"--batch-budget 64", "--serve"},
      {"--idle-timeout 100", "--serve"},
      {"--write-timeout 100", "--serve"},
      {"--drain-grace 100", "--serve"},
      {"--sndbuf 4096", "--serve"}};
  for (const auto &[Args, Needs] : Cases) {
    CliResult R = runSignalc("--builtin FIG5_ALARM " + std::string(Args));
    EXPECT_EQ(R.Exit, 2) << Args << ": " << R.Output;
    EXPECT_NE(R.Output.find(std::string("requires ") + Needs),
              std::string::npos)
        << Args << ": " << R.Output;
  }
  // With the flag they qualify they run.
  CliResult Ok =
      runSignalc("--builtin FIG5_ALARM --simulate 3 --fleet 2 --threads 2");
  EXPECT_EQ(Ok.Exit, 0) << Ok.Output;
  // --native off does not count: the tier's qualifiers need the tier on.
  for (const char *Args : {"--simulate 3 --native off --tier-after 5",
                           "--simulate 2 --native off --cache-dir /nonexistent"}) {
    CliResult Off = runSignalc("--builtin FIG5_ALARM " + std::string(Args));
    EXPECT_EQ(Off.Exit, 2) << Args << ": " << Off.Output;
    EXPECT_NE(Off.Output.find("requires --native auto or force"),
              std::string::npos)
        << Args << ": " << Off.Output;
  }
}

TEST(Cli, ValidNumericFlagsStillRun) {
  CliResult R = runSignalc("--builtin FIG5_ALARM --simulate 4 --seed 3");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("simulation (4 instants, seed 3)"),
            std::string::npos)
      << R.Output;
}

TEST(Cli, FleetSimulationRunsFromTheCli) {
  CliResult R = runSignalc(
      "--builtin FIG5_ALARM --simulate 16 --fleet 3 --threads 2 --seed 5");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("fleet simulation (3 instances, 16 instants, "
                          "seed 5"),
            std::string::npos)
      << R.Output;
  // Every instance's trace prints, in instance order.
  size_t I0 = R.Output.find("instance 0:");
  size_t I1 = R.Output.find("instance 1:");
  size_t I2 = R.Output.find("instance 2:");
  EXPECT_NE(I0, std::string::npos) << R.Output;
  EXPECT_LT(I0, I1);
  EXPECT_LT(I1, I2);
}

TEST(Cli, FleetInstanceReplaysTheScalarSeed) {
  // Fleet instance j draws from seed S + j: instance 1 of a seed-5 fleet
  // must print exactly the trace of a scalar run with seed 6.
  CliResult F = runSignalc(
      "--builtin FIG5_ALARM --simulate 24 --fleet 3 --seed 5");
  ASSERT_EQ(F.Exit, 0) << F.Output;
  size_t Beg = F.Output.find("instance 1:\n");
  size_t End = F.Output.find("instance 2:\n");
  ASSERT_NE(Beg, std::string::npos) << F.Output;
  ASSERT_NE(End, std::string::npos) << F.Output;
  std::string FleetTrace =
      F.Output.substr(Beg + 12, End - (Beg + 12));

  CliResult S = runSignalc("--builtin FIG5_ALARM --simulate 24 --seed 6");
  ASSERT_EQ(S.Exit, 0) << S.Output;
  size_t Hdr = S.Output.find("simulation (24 instants, seed 6):\n");
  ASSERT_NE(Hdr, std::string::npos) << S.Output;
  std::string ScalarTrace =
      S.Output.substr(S.Output.find('\n', Hdr) + 1);

  EXPECT_EQ(FleetTrace, ScalarTrace);
}

TEST(Cli, StatsReportsGuardShape) {
  CliResult R =
      runSignalc("--builtin FIG5_ALARM --simulate 16 --seed 9 --stats");
  ASSERT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("stats: compile step_instrs=17 guards=7 "
                          "distinct_guards=6 max_guard_depth=3\n"),
            std::string::npos)
      << R.Output;
  // Stage times vary run to run: pin their shape only.
  EXPECT_TRUE(std::regex_search(
      R.Output, std::regex("\nstats: stages parse_ms=[0-9]+\\.[0-9]{3} "
                           "sema_ms=[0-9]+\\.[0-9]{3} "
                           "clock_ms=[0-9]+\\.[0-9]{3} "
                           "graph_ms=[0-9]+\\.[0-9]{3} "
                           "step_ms=[0-9]+\\.[0-9]{3}\n")))
      << R.Output;
  // The clock-calculus counters are deterministic (BDD cache probes are
  // hits plus misses, which depend only on node indices).
  EXPECT_NE(R.Output.find("\nstats: clock inclusion_tests=90 bdd_nodes=36 "
                          "bdd_cache_probes=36\n"),
            std::string::npos)
      << R.Output;
  // The VM decode is deterministic: the optimizer drops 17 of FIG5_ALARM's
  // 34 instructions, which leaves 17 and the 7 skips of their blocks, two
  // clock literals fuse with the skip after them, and the slot file
  // (values, scratch, constants, counters, states) is 17 slots.
  EXPECT_NE(R.Output.find("\nstats: vm decoded=24 fused=2 dropped=17 "
                          "slot_bytes=136\n"),
            std::string::npos)
      << R.Output;
  // The run line keeps its exact shape: benchmark scripts parse it.
  EXPECT_TRUE(std::regex_search(
      R.Output, std::regex("\nstats: mode=vm instants=16 executed=[0-9]+ "
                           "guard_tests=[0-9]+ instrs_per_instant="
                           "[0-9]+\\.[0-9]{2}\n")))
      << R.Output;
}

TEST(Cli, FleetStatsSumCountersAcrossInstances) {
  CliResult One = runSignalc(
      "--builtin FIG5_ALARM --simulate 16 --fleet 1 --seed 9 --stats");
  CliResult Two = runSignalc(
      "--builtin FIG5_ALARM --simulate 16 --fleet 2 --seed 9 --stats");
  ASSERT_EQ(One.Exit, 0) << One.Output;
  ASSERT_EQ(Two.Exit, 0) << Two.Output;
  EXPECT_NE(One.Output.find("stats: mode=fleet instants=16"),
            std::string::npos)
      << One.Output;
  EXPECT_NE(Two.Output.find("stats: mode=fleet instants=32"),
            std::string::npos)
      << Two.Output;
}

TEST(Cli, FlatModeBatchesLikeUnbatchedFlat) {
  // --mode flat runs the flat lowering on the VM, so --batch applies: the
  // batched run prints the unbatched one's trace and counters, and warns
  // about nothing. The counters are unbatched flat's: each of the 787
  // skips of STOPWATCH's flat step, one per guarded group that keeps
  // code, is tested once per instant.
  const std::string Run = "--builtin STOPWATCH --simulate 2000 --seed 5 "
                          "--mode flat";
  CliResult R = runSignalc(Run + " --batch 64 --stats");
  ASSERT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("stats: mode=flat instants=2000 executed=1273086 "
                          "guard_tests=1574000 instrs_per_instant=636.54\n"),
            std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("warning"), std::string::npos) << R.Output;
  EXPECT_EQ(runSignalc(Run + " --batch 64", /*StdoutOnly=*/true).Output,
            runSignalc(Run, /*StdoutOnly=*/true).Output);
}

TEST(Cli, FlatCompileStatsDescribeTheFlatCode) {
  // Under --mode flat the compile report is the flat lowering's: every
  // guard is tested once per instant, so guards = guard_tests / instants
  // (CHRONO: 320, where the nested lowering has 70).
  CliResult R =
      runSignalc("--builtin CHRONO --simulate 50 --seed 3 --mode flat --stats");
  ASSERT_EQ(R.Exit, 0) << R.Output;
  std::smatch Compile, Run;
  ASSERT_TRUE(std::regex_search(R.Output, Compile,
                                std::regex("stats: compile step_instrs=[0-9]+ "
                                           "guards=([0-9]+) ")))
      << R.Output;
  ASSERT_TRUE(std::regex_search(
      R.Output, Run,
      std::regex("stats: mode=flat instants=50 executed=[0-9]+ "
                 "guard_tests=([0-9]+) ")))
      << R.Output;
  EXPECT_EQ(std::stoull(Compile[1]) * 50, std::stoull(Run[1])) << R.Output;
}

TEST(Cli, FlatModeDumpsAndEmitsTheFlatLowering) {
  // --dump-step and --emit-c print the lowering --mode picks: the flat
  // listing has one skip per guard the compile report counts, and the
  // flat C (Figure 9's code b) is not the nested C.
  CliResult Dump =
      runSignalc("--builtin FIG5_ALARM --mode flat --dump-step --stats");
  ASSERT_EQ(Dump.Exit, 0) << Dump.Output;
  std::smatch Compile;
  ASSERT_TRUE(std::regex_search(Dump.Output, Compile,
                                std::regex("stats: compile step_instrs=[0-9]+ "
                                           "guards=([0-9]+) ")))
      << Dump.Output;
  size_t Skips = 0;
  for (size_t At = Dump.Output.find("skip-if-absent"); At != std::string::npos;
       At = Dump.Output.find("skip-if-absent", At + 1))
    ++Skips;
  EXPECT_EQ(Skips, std::stoull(Compile[1])) << Dump.Output;
  EXPECT_GT(Skips, 0u);

  CliResult Flat =
      runSignalc("--builtin FIG5_ALARM --mode flat --emit-c", true);
  CliResult Nested = runSignalc("--builtin FIG5_ALARM --emit-c", true);
  ASSERT_EQ(Flat.Exit, 0) << Flat.Output;
  ASSERT_EQ(Nested.Exit, 0) << Nested.Output;
  EXPECT_NE(Flat.Output, Nested.Output);
}

TEST(Cli, NestedModeIsRejectedNamingValidModes) {
  // vm is the nested lowering; there is no separate nested engine.
  CliResult R = runSignalc("--builtin FIG5_ALARM --simulate 2 --mode nested");
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("unknown --mode 'nested'; valid modes: vm, flat"),
            std::string::npos)
      << R.Output;
}

TEST(Cli, UnknownOptionExitsTwo) {
  CliResult R = runSignalc("--builtin FIG5_ALARM --no-such-flag");
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("unknown option '--no-such-flag'"),
            std::string::npos)
      << R.Output;
}

TEST(Cli, UnknownOptionSuggestsTheNearestFlag) {
  // A one-character typo of a known flag earns a suggestion.
  CliResult R = runSignalc("--builtin FIG5_ALARM --simulte 4");
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("unknown option '--simulte'"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("did you mean '--simulate'?"), std::string::npos)
      << R.Output;
}

TEST(Cli, UnknownOptionFarFromEverythingGetsNoSuggestion) {
  // Nothing plausibly close: the diagnostic must not guess.
  CliResult R = runSignalc("--builtin FIG5_ALARM --zzqxj");
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("unknown option '--zzqxj'"), std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("did you mean"), std::string::npos) << R.Output;
}

//===----------------------------------------------------------------------===//
// Record / replay round trips through the binary trace format.
//===----------------------------------------------------------------------===//

namespace {

/// A per-test temp path under gtest's temp dir.
std::string tempTracePath(const char *Tag) {
  return ::testing::TempDir() + "sigc_cli_" + Tag + "_" +
         std::to_string(::getpid()) + ".sgtr";
}

/// The bytes of file \p P (empty when unreadable).
std::string slurpFile(const std::string &P) {
  std::string Out;
  if (FILE *F = std::fopen(P.c_str(), "rb")) {
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof Buf, F)) > 0)
      Out.append(Buf, N);
    std::fclose(F);
  }
  return Out;
}

} // namespace

TEST(Cli, FlatModeRecordsAndReplaysTheFlatLowering) {
  // --mode flat is honoured by --record and --replay: the recorded trace
  // is the default lowering's, byte for byte, with no warning, and a
  // flat replay reports mode=flat with the flat --simulate run's guard
  // tests.
  std::string Vm = tempTracePath("flat_vm"), Flat = tempTracePath("flat");
  const std::string Run = "--builtin CHRONO --simulate 64 --seed 4 ";
  ASSERT_EQ(runSignalc(Run + "--record " + Vm).Exit, 0);
  CliResult Rec = runSignalc(Run + "--mode flat --record " + Flat);
  ASSERT_EQ(Rec.Exit, 0) << Rec.Output;
  EXPECT_EQ(Rec.Output.find("warning"), std::string::npos) << Rec.Output;
  EXPECT_FALSE(slurpFile(Vm).empty());
  EXPECT_EQ(slurpFile(Vm), slurpFile(Flat));

  CliResult Sim = runSignalc(Run + "--mode flat --stats");
  CliResult Rep = runSignalc("--builtin CHRONO --mode flat --stats --replay " +
                             Vm);
  ASSERT_EQ(Sim.Exit, 0) << Sim.Output;
  ASSERT_EQ(Rep.Exit, 0) << Rep.Output;
  std::smatch M;
  ASSERT_TRUE(std::regex_search(
      Sim.Output, M,
      std::regex("stats: mode=flat instants=64 executed=[0-9]+ "
                 "guard_tests=[0-9]+ ")))
      << Sim.Output;
  EXPECT_NE(Rep.Output.find(M[0].str()), std::string::npos) << Rep.Output;
  std::remove(Vm.c_str());
  std::remove(Flat.c_str());
}

TEST(Cli, RecordingBytesDoNotDependOnTheBatchSize) {
  // The writer owns the framing, so a recording is the same bytes for
  // any --batch. Unbatched runs used to step instant by instant and
  // record only the inputs the step queried, leaving the other cells of
  // each dense input row to whatever the recycled frame held.
  for (const char *Builtin : {"FIG5_ALARM", "STOPWATCH"}) {
    std::string One = tempTracePath("batch_one"), Many = tempTracePath("many");
    std::string Run = std::string("--builtin ") + Builtin +
                      " --simulate 300 --seed 5 --record ";
    CliResult A = runSignalc(Run + One);
    CliResult B = runSignalc(Run + Many + " --batch 64");
    ASSERT_EQ(A.Exit, 0) << A.Output;
    ASSERT_EQ(B.Exit, 0) << B.Output;
    EXPECT_FALSE(slurpFile(One).empty()) << Builtin;
    EXPECT_EQ(slurpFile(One), slurpFile(Many)) << Builtin;
    std::remove(One.c_str());
    std::remove(Many.c_str());
  }
}

TEST(Cli, RecordThenReplayRoundTripsFromTheCli) {
  std::string Path = tempTracePath("roundtrip");
  CliResult Rec = runSignalc(
      "--builtin FIG5_ALARM --simulate 50 --seed 7 --record " + Path);
  ASSERT_EQ(Rec.Exit, 0) << Rec.Output;
  EXPECT_NE(Rec.Output.find("recorded 50 instant(s) to"), std::string::npos)
      << Rec.Output;

  // Replay through both inputs: a regular file is mapped, a pipe is read
  // in chunks, and both must agree. No flag picks between them.
  CliResult Mmap =
      runSignalc("--builtin FIG5_ALARM --replay " + Path);
  EXPECT_EQ(Mmap.Exit, 0) << Mmap.Output;
  EXPECT_NE(Mmap.Output.find("replay (50 instants, mmap):"),
            std::string::npos)
      << Mmap.Output;
  EXPECT_NE(Mmap.Output.find("match the trace"), std::string::npos)
      << Mmap.Output;

  CliResult Buf = runSignalc("--builtin FIG5_ALARM --replay /dev/stdin",
                             false, Path);
  EXPECT_EQ(Buf.Exit, 0) << Buf.Output;
  EXPECT_NE(Buf.Output.find("replay (50 instants, buffered):"),
            std::string::npos)
      << Buf.Output;

  CliResult Gone = runSignalc("--builtin FIG5_ALARM --replay " + Path +
                              " --replay-buffered");
  EXPECT_EQ(Gone.Exit, 2) << Gone.Output;
  EXPECT_NE(Gone.Output.find("unknown option '--replay-buffered'"),
            std::string::npos)
      << Gone.Output;
  std::remove(Path.c_str());
}

TEST(Cli, ReplayOfGarbageIsAPositionedExitTwo) {
  std::string Path = tempTracePath("garbage");
  FILE *F = fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  fputs("this is not a signal trace at all", F);
  fclose(F);

  CliResult R = runSignalc("--builtin FIG5_ALARM --replay " + Path);
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("offset 0"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("bad magic"), std::string::npos) << R.Output;
  std::remove(Path.c_str());
}

TEST(Cli, ReplayOfTruncatedRecordingIsAPositionedExitTwo) {
  std::string Path = tempTracePath("truncated");
  CliResult Rec = runSignalc(
      "--builtin FIG5_ALARM --simulate 40 --seed 3 --record " + Path);
  ASSERT_EQ(Rec.Exit, 0) << Rec.Output;

  // Chop the file mid-stream: the replay must diagnose the truncation
  // with a byte offset, not read past the end or pass silently.
  FILE *F = fopen(Path.c_str(), "rb+");
  ASSERT_NE(F, nullptr);
  fseek(F, 0, SEEK_END);
  long Size = ftell(F);
  ASSERT_GT(Size, 40);
  fclose(F);
  ASSERT_EQ(truncate(Path.c_str(), Size - 20), 0);

  for (bool Piped : {false, true}) {
    CliResult R = runSignalc("--builtin FIG5_ALARM --replay " +
                                 (Piped ? std::string("/dev/stdin") : Path),
                             false, Piped ? Path : "");
    EXPECT_EQ(R.Exit, 2) << R.Output;
    EXPECT_NE(R.Output.find("offset"), std::string::npos) << R.Output;
    EXPECT_NE(R.Output.find("stream ends inside"), std::string::npos)
        << R.Output;
  }
  std::remove(Path.c_str());
}

TEST(Cli, ReplayAgainstTheWrongProcessIsAnInterfaceMismatch) {
  std::string Path = tempTracePath("mismatch");
  CliResult Rec = runSignalc(
      "--builtin FIG5_ALARM --simulate 20 --seed 5 --record " + Path);
  ASSERT_EQ(Rec.Exit, 0) << Rec.Output;

  CliResult R = runSignalc("--builtin WATCH --replay " + Path);
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("does not match"), std::string::npos) << R.Output;
  std::remove(Path.c_str());
}

TEST(Cli, RealOutputCarryingIntegersRecordsAndReplays) {
  // X is declared real but defined by integer arithmetic. The trace
  // records X by its declared type, and replay verifies by the same rule:
  // recording 0.0 for every X made this replay diverge.
  std::string Src = ::testing::TempDir() + "sigc_cli_real_" +
                    std::to_string(::getpid()) + ".sig";
  FILE *F = fopen(Src.c_str(), "w");
  ASSERT_NE(F, nullptr);
  fputs("process P = ( ? integer I; ! real X; ) (| X := I + 1 |);\n", F);
  fclose(F);
  std::string Path = tempTracePath("real");
  CliResult Rec =
      runSignalc(Src + " --simulate 5 --seed 2 --record " + Path);
  ASSERT_EQ(Rec.Exit, 0) << Rec.Output;
  for (bool Piped : {false, true}) {
    CliResult R = runSignalc(
        Src + " --replay " + (Piped ? std::string("/dev/stdin") : Path),
        false, Piped ? Path : "");
    EXPECT_EQ(R.Exit, 0) << R.Output;
    EXPECT_NE(R.Output.find("replay (5 instants"), std::string::npos)
        << R.Output;
    EXPECT_NE(R.Output.find("match the trace"), std::string::npos)
        << R.Output;
  }
  std::remove(Path.c_str());
  std::remove(Src.c_str());
}

//===----------------------------------------------------------------------===//
// Serving flags ride the same checked numeric parse, and a dead output
// pipe is a diagnosed exit, not death by SIGPIPE.
//===----------------------------------------------------------------------===//

namespace {

const char *serveNumericFlags[] = {"--resume",        "--batch-budget",
                                   "--idle-timeout",  "--write-timeout",
                                   "--drain-grace",   "--sndbuf"};

} // namespace

TEST(Cli, ServeFlagsRejectMalformedOperands) {
  for (const char *Flag : serveNumericFlags) {
    CliResult R =
        runSignalc("--builtin FIG5_ALARM " + std::string(Flag) + " abc");
    EXPECT_EQ(R.Exit, 2) << Flag << ": " << R.Output;
    EXPECT_NE(R.Output.find("invalid value 'abc' for " + std::string(Flag)),
              std::string::npos)
        << Flag << ": " << R.Output;
  }
}

TEST(Cli, ServeFlagsDiagnoseMissingOperandAsLastArgument) {
  for (const char *Flag : serveNumericFlags) {
    CliResult R = runSignalc("--builtin FIG5_ALARM " + std::string(Flag));
    EXPECT_EQ(R.Exit, 2) << Flag << ": " << R.Output;
    EXPECT_NE(R.Output.find("missing value for " + std::string(Flag)),
              std::string::npos)
        << Flag << ": " << R.Output;
  }
}

TEST(Cli, ServeFlagsDiagnoseOutOfRangeOperands) {
  // All but --batch-budget carry 32-bit counts; --batch-budget is 64-bit
  // and must overflow only past 2^64-1.
  for (const char *Flag : {"--resume", "--idle-timeout", "--write-timeout",
                           "--drain-grace", "--sndbuf"}) {
    CliResult R = runSignalc("--builtin FIG5_ALARM " + std::string(Flag) +
                             " 99999999999");
    EXPECT_EQ(R.Exit, 2) << Flag << ": " << R.Output;
    EXPECT_NE(R.Output.find("is out of range (max 4294967295)"),
              std::string::npos)
        << Flag << ": " << R.Output;
  }
  // The operand parses; what stops the run is the missing --serve.
  CliResult Fits =
      runSignalc("--builtin FIG5_ALARM --simulate 4 --batch-budget "
                 "99999999999");
  EXPECT_EQ(Fits.Exit, 2) << Fits.Output;
  EXPECT_NE(Fits.Output.find("--batch-budget requires --serve"),
            std::string::npos)
      << Fits.Output;
  EXPECT_EQ(Fits.Output.find("out of range"), std::string::npos)
      << Fits.Output;
  CliResult Over = runSignalc("--builtin FIG5_ALARM --batch-budget "
                              "99999999999999999999");
  EXPECT_EQ(Over.Exit, 2) << Over.Output;
  EXPECT_NE(Over.Output.find("for --batch-budget is out of range"),
            std::string::npos)
      << Over.Output;
}

TEST(Cli, ServeFlagTypoSuggestsTheNearestFlag) {
  CliResult R = runSignalc("--builtin FIG5_ALARM --drain-grce 100");
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("unknown option '--drain-grce'"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("did you mean '--drain-grace'?"), std::string::npos)
      << R.Output;
}

TEST(Cli, RecordToDeadPipeIsExitTwoNotSigpipeDeath) {
  // Record to a pipe whose read end is already closed: the very first
  // header write raises EPIPE. SIGPIPE is ignored at startup, so the
  // process must EXIT (code 2) with the sink's byte-positioned
  // diagnostic — not die on the signal.
  int Pipe[2];
  ASSERT_EQ(::pipe(Pipe), 0);
  ::close(Pipe[0]); // No reader will ever exist.

  std::string ErrPath = tempTracePath("sigpipe_err");
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    ::dup2(Pipe[1], 3);
    ::close(Pipe[1]);
    FILE *Err = fopen(ErrPath.c_str(), "wb");
    if (Err)
      ::dup2(fileno(Err), 2);
    ::execl(SIGNALC_BIN, SIGNALC_BIN, "--builtin", "FIG5_ALARM",
            "--simulate", "20", "--record", "/dev/fd/3",
            static_cast<char *>(nullptr));
    _exit(127);
  }
  ::close(Pipe[1]);
  int St = 0;
  ASSERT_EQ(::waitpid(Pid, &St, 0), Pid);
  ASSERT_TRUE(WIFEXITED(St)) << "killed by signal "
                             << (WIFSIGNALED(St) ? WTERMSIG(St) : 0);
  EXPECT_EQ(WEXITSTATUS(St), 2);

  std::string Err;
  if (FILE *F = fopen(ErrPath.c_str(), "rb")) {
    char Buf[4096];
    size_t N;
    while ((N = fread(Buf, 1, sizeof Buf, F)) > 0)
      Err.append(Buf, N);
    fclose(F);
  }
  EXPECT_NE(Err.find("write failed on '/dev/fd/3'"), std::string::npos)
      << Err;
  EXPECT_NE(Err.find("at byte"), std::string::npos) << Err;
  EXPECT_NE(Err.find("Broken pipe"), std::string::npos) << Err;
  std::remove(ErrPath.c_str());
}

//===----------------------------------------------------------------------===//
// Tiered native execution flags (--native / --cache-dir / --tier-after).
//===----------------------------------------------------------------------===//

namespace {

/// A throwaway cache directory for one test (removed with contents).
struct TempCacheDirCli {
  std::string Path;
  TempCacheDirCli() {
    Path = ::testing::TempDir() + "sigc_cli_cache_" +
           std::to_string(::getpid());
    std::string Cmd = "rm -rf " + Path + " && mkdir -p " + Path;
    EXPECT_EQ(std::system(Cmd.c_str()), 0);
  }
  ~TempCacheDirCli() { std::system(("rm -rf " + Path).c_str()); }
};

bool cliHostCcAvailable() {
  return std::system("command -v cc >/dev/null 2>&1 || "
                     "command -v gcc >/dev/null 2>&1 || "
                     "command -v clang >/dev/null 2>&1") == 0;
}

} // namespace

TEST(Cli, NativeFlagTyposSuggestTheNearestFlag) {
  struct {
    const char *Typo, *Suggest;
  } Cases[] = {{"--nativ", "--native"},
               {"--cache-dri", "--cache-dir"},
               {"--tier-aftr", "--tier-after"}};
  for (auto C : Cases) {
    CliResult R = runSignalc("--builtin FIG5_ALARM --simulate 1 " +
                             std::string(C.Typo) + " x");
    EXPECT_EQ(R.Exit, 2) << C.Typo << ": " << R.Output;
    EXPECT_NE(R.Output.find("did you mean '" + std::string(C.Suggest) +
                            "'?"),
              std::string::npos)
        << C.Typo << ": " << R.Output;
  }
}

TEST(Cli, NativeModeOperandIsValidated) {
  CliResult R =
      runSignalc("--builtin FIG5_ALARM --simulate 1 --native sometimes");
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("unknown --native 'sometimes'"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("valid modes: off, auto, force"), std::string::npos)
      << R.Output;
  // The = spelling goes through the same checked parse.
  CliResult R2 =
      runSignalc("--builtin FIG5_ALARM --simulate 1 --native=never");
  EXPECT_EQ(R2.Exit, 2) << R2.Output;
  EXPECT_NE(R2.Output.find("unknown --native 'never'"), std::string::npos)
      << R2.Output;
}

TEST(Cli, TierAfterOperandIsChecked) {
  CliResult Bad =
      runSignalc("--builtin FIG5_ALARM --simulate 1 --tier-after abc");
  EXPECT_EQ(Bad.Exit, 2) << Bad.Output;
  EXPECT_NE(Bad.Output.find("invalid value 'abc' for --tier-after"),
            std::string::npos)
      << Bad.Output;
  CliResult Missing =
      runSignalc("--builtin FIG5_ALARM --simulate 1 --tier-after");
  EXPECT_EQ(Missing.Exit, 2) << Missing.Output;
  EXPECT_NE(Missing.Output.find("missing value for --tier-after"),
            std::string::npos)
      << Missing.Output;
}

TEST(Cli, NativeForceMatchesInterpretedTraceAndReportsTiers) {
  if (!cliHostCcAvailable())
    GTEST_SKIP() << "no host C compiler";
  TempCacheDirCli Cache;
  CliResult Off = runSignalc("--builtin FIG5_ALARM --simulate 48 --seed 9");
  ASSERT_EQ(Off.Exit, 0) << Off.Output;
  CliResult Force =
      runSignalc("--builtin FIG5_ALARM --simulate 48 --seed 9 "
                 "--native force --cache-dir " +
                 Cache.Path);
  ASSERT_EQ(Force.Exit, 0) << Force.Output;
  // Identical combined output: the native tier is trace-invisible.
  EXPECT_EQ(Off.Output, Force.Output);

  // --stats adds the tier split; the whole run went native.
  CliResult Stats =
      runSignalc("--builtin FIG5_ALARM --simulate 48 --seed 9 "
                 "--native force --stats --cache-dir " +
                 Cache.Path);
  ASSERT_EQ(Stats.Exit, 0) << Stats.Output;
  EXPECT_NE(Stats.Output.find("stats: tier native=force cache=hit "
                              "vm_instants=0 native_instants=48"),
            std::string::npos)
      << Stats.Output;
}

TEST(Cli, AutoModeWarmHitPromotesAtTierAfter) {
  if (!cliHostCcAvailable())
    GTEST_SKIP() << "no host C compiler";
  TempCacheDirCli Cache;
  // Warm the cache.
  CliResult Warm = runSignalc("--builtin FIG5_ALARM --simulate 4 "
                              "--native force --cache-dir " +
                              Cache.Path);
  ASSERT_EQ(Warm.Exit, 0) << Warm.Output;
  // Warm hit: native from the promotion threshold on, VM before it.
  CliResult R = runSignalc("--builtin FIG5_ALARM --simulate 48 --seed 9 "
                           "--native=auto --tier-after=16 --stats "
                           "--cache-dir=" +
                           Cache.Path);
  ASSERT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("stats: tier native=auto cache=hit "
                          "vm_instants=16 native_instants=32"),
            std::string::npos)
      << R.Output;
}

TEST(Cli, FleetNativeMatchesInterpretedFleet) {
  if (!cliHostCcAvailable())
    GTEST_SKIP() << "no host C compiler";
  TempCacheDirCli Cache;
  CliResult Off =
      runSignalc("--builtin FIG5_ALARM --simulate 32 --seed 5 --fleet 3");
  ASSERT_EQ(Off.Exit, 0) << Off.Output;
  CliResult Nat =
      runSignalc("--builtin FIG5_ALARM --simulate 32 --seed 5 --fleet 3 "
                 "--native force --cache-dir " +
                 Cache.Path);
  ASSERT_EQ(Nat.Exit, 0) << Nat.Output;
  EXPECT_EQ(Off.Output, Nat.Output);
}

TEST(Cli, FleetThreadCountDoesNotChangeStdout) {
  // Instances shard over the threads, each run exactly as a scalar run:
  // every instance's trace is the same for any thread count. Only the
  // header line names the thread count.
  auto Body = [](const CliResult &R) {
    return R.Output.substr(R.Output.find('\n') + 1);
  };
  std::string Run = "--builtin STOPWATCH --simulate 64 --seed 3 --fleet 4";
  CliResult One = runSignalc(Run + " --threads 1", /*StdoutOnly=*/true);
  CliResult Two = runSignalc(Run + " --threads 2", /*StdoutOnly=*/true);
  ASSERT_EQ(One.Exit, 0) << One.Output;
  ASSERT_EQ(Two.Exit, 0) << Two.Output;
  EXPECT_EQ(One.Output.rfind("fleet simulation (4 instances, 64 instants, "
                             "seed 3, 1 thread(s)):\n",
                             0),
            0u)
      << One.Output;
  EXPECT_EQ(Two.Output.rfind("fleet simulation (4 instances, 64 instants, "
                             "seed 3, 2 thread(s)):\n",
                             0),
            0u)
      << Two.Output;
  EXPECT_EQ(Body(One), Body(Two));
  // The header counts the threads that run: one per instance at most.
  CliResult Clamped =
      runSignalc("--builtin FIG5_ALARM --simulate 2 --fleet 2 --threads 8",
                 /*StdoutOnly=*/true);
  ASSERT_EQ(Clamped.Exit, 0) << Clamped.Output;
  EXPECT_EQ(Clamped.Output.rfind("fleet simulation (2 instances, 2 instants, "
                                 "seed 1, 2 thread(s)):\n",
                                 0),
            0u)
      << Clamped.Output;
  if (!cliHostCcAvailable())
    GTEST_SKIP() << "no host C compiler";
  TempCacheDirCli Cache;
  std::string Native = " --native force --cache-dir " + Cache.Path;
  CliResult NatOne =
      runSignalc(Run + " --threads 1" + Native, /*StdoutOnly=*/true);
  CliResult NatTwo =
      runSignalc(Run + " --threads 2" + Native, /*StdoutOnly=*/true);
  ASSERT_EQ(NatOne.Exit, 0) << NatOne.Output;
  ASSERT_EQ(NatTwo.Exit, 0) << NatTwo.Output;
  EXPECT_EQ(NatOne.Output, One.Output);
  EXPECT_EQ(NatTwo.Output, Two.Output);
}

TEST(Cli, NativeCacheMissReportsEmittedCSizeAndCcTime) {
  if (!cliHostCcAvailable())
    GTEST_SKIP() << "no host C compiler";
  TempCacheDirCli Cache;
  std::string Run = "--builtin FIG5_ALARM --simulate 16 --seed 9 --stats "
                    "--native force --cache-dir " +
                    Cache.Path;
  // A cold start compiles: one more line after the tier split, with the
  // size of the emitted C unit and the host cc wall time.
  CliResult Cold = runSignalc(Run);
  ASSERT_EQ(Cold.Exit, 0) << Cold.Output;
  EXPECT_TRUE(std::regex_search(
      Cold.Output,
      std::regex("\nstats: tier native=force cache=miss vm_instants=0 "
                 "native_instants=16 hash=[0-9a-f]+\n"
                 "stats: native c_lines=[1-9][0-9]* c_bytes=[1-9][0-9]* "
                 "cc_ms=[0-9]+\\.[0-9]{3}\n")))
      << Cold.Output;
  // A warm hit compiles nothing and prints no such line.
  CliResult Warm = runSignalc(Run);
  ASSERT_EQ(Warm.Exit, 0) << Warm.Output;
  EXPECT_NE(Warm.Output.find("stats: tier native=force cache=hit"),
            std::string::npos)
      << Warm.Output;
  EXPECT_EQ(Warm.Output.find("stats: native "), std::string::npos)
      << Warm.Output;
}

//===----------------------------------------------------------------------===//
// Streamed --simulate text: every output line is rendered from the
// flushed slot rows by the output's declared type, with the formatter
// formatEvents uses, so it equals formatEvents over a recording
// environment on every engine and across a tier swap.
//===----------------------------------------------------------------------===//

TEST(Cli, TierSwapKeepsTheOutputText) {
  // X is declared real and defined by the integers of I + 1. The VM used
  // to print it by its static kind (`15 X=51`) and the native step by its
  // declared type (`16 X=30.000000`), so the text changed format at the
  // swap. Both tiers now print by the declared type.
  if (!cliHostCcAvailable())
    GTEST_SKIP() << "no host C compiler";
  std::string Src = ::testing::TempDir() + "sigc_cli_swap_" +
                    std::to_string(::getpid()) + ".sig";
  FILE *F = fopen(Src.c_str(), "w");
  ASSERT_NE(F, nullptr);
  fputs("process K = (? integer I; ! real X;) (| X := I + 1 |);\n", F);
  fclose(F);
  TempCacheDirCli Cache;
  const std::string Run = Src + " --simulate 40 --seed 1";
  // Warm the cache, so the auto run swaps exactly at its threshold.
  ASSERT_EQ(runSignalc(Src + " --simulate 4 --native force --cache-dir " +
                       Cache.Path)
                .Exit,
            0);
  CliResult Off = runSignalc(Run + " --native off", /*StdoutOnly=*/true);
  CliResult Auto = runSignalc(Run + " --native auto --tier-after 16 "
                                    "--cache-dir " +
                                  Cache.Path,
                              /*StdoutOnly=*/true);
  ASSERT_EQ(Off.Exit, 0) << Off.Output;
  ASSERT_EQ(Auto.Exit, 0) << Auto.Output;
  EXPECT_EQ(Auto.Output, Off.Output);
  EXPECT_TRUE(std::regex_search(Off.Output, std::regex("\n15 X=[0-9]+\\.0{6}\n")))
      << Off.Output;
  CliResult Stats = runSignalc(Run + " --native auto --tier-after 16 --stats "
                                     "--cache-dir " +
                               Cache.Path);
  EXPECT_NE(Stats.Output.find("vm_instants=16 native_instants=24"),
            std::string::npos)
      << Stats.Output;
  std::remove(Src.c_str());
}

TEST(Cli, RealSignalDividesAsReal) {
  // A real signal defined by integer arithmetic holds reals, so X / 2
  // divides reals: 13 / 2 is 6.5, not 6, and (X / 2) * 2 = X holds. Every
  // engine prints the same text.
  std::string Src = ::testing::TempDir() + "sigc_cli_divide_" +
                    std::to_string(::getpid()) + ".sig";
  FILE *F = fopen(Src.c_str(), "w");
  ASSERT_NE(F, nullptr);
  fputs("process K = ( ? integer I; ! real X, H; boolean E; )\n"
        "  (| X := I + 1 | H := X / 2 | E := (X / 2) * 2 = X |);\n",
        F);
  fclose(F);
  const std::string Run = Src + " --simulate 6 --seed 2";
  CliResult Vm = runSignalc(Run, /*StdoutOnly=*/true);
  ASSERT_EQ(Vm.Exit, 0) << Vm.Output;
  EXPECT_NE(Vm.Output.find("\n0 X=13.000000\n0 H=6.500000\n0 E=true\n"),
            std::string::npos)
      << Vm.Output;
  std::vector<std::string> Legs = {" --mode flat", " --batch 64"};
  TempCacheDirCli Cache;
  if (cliHostCcAvailable())
    Legs.push_back(" --native force --cache-dir " + Cache.Path);
  for (const std::string &Leg : Legs) {
    CliResult R = runSignalc(Run + Leg, /*StdoutOnly=*/true);
    EXPECT_EQ(R.Exit, 0) << Leg;
    EXPECT_EQ(R.Output, Vm.Output) << Leg;
  }
  std::remove(Src.c_str());
}

TEST(Cli, StreamedSimulateTextEqualsFormatEventsOnEveryBuiltin) {
  const unsigned Instants = 200;
  const uint64_t Seed = 5;
  const bool Cc = cliHostCcAvailable();
  TempCacheDirCli Cache;
  std::vector<std::pair<std::string, std::string>> Builtins = {
      {"FIG5_ALARM", alarmFigure5Source()}};
  for (const Figure13Program &P : figure13Suite())
    Builtins.push_back({P.Name, P.Source});
  ASSERT_EQ(Builtins.size(), 8u);

  for (const auto &[Name, Source] : Builtins) {
    auto C = compileSource("<builtin:" + Name + ">", Source);
    ASSERT_TRUE(C->Ok) << Name;
    CompiledStep Flat = CompiledStep::build(C->Step, GuardLowering::Flat);
    // The reference: an unbatched run against a recording environment.
    auto Events = [&](const CompiledStep &CS, uint64_t S) {
      RandomEnvironment Env(S);
      VmExecutor Vm(CS);
      Vm.run(Env, Instants);
      return formatEvents(Env.outputs());
    };
    const std::string Head = "simulation (200 instants, seed 5):\n";
    const std::string Nested = Head + Events(C->Compiled, Seed);
    const std::string Run = "--builtin " + Name + " --simulate 200 --seed 5";
    auto Stdout = [&](const std::string &Extra) {
      CliResult R = runSignalc(Run + Extra, /*StdoutOnly=*/true);
      EXPECT_EQ(R.Exit, 0) << Name << Extra;
      return R.Output;
    };
    EXPECT_EQ(Stdout(" --mode vm"), Nested) << Name;
    EXPECT_EQ(Stdout(" --mode flat"), Head + Events(Flat, Seed)) << Name;
    EXPECT_EQ(Stdout(" --batch 64"), Nested) << Name;
    std::string Fleet =
        "fleet simulation (3 instances, 200 instants, seed 5, 2 thread(s)):\n";
    for (unsigned J = 0; J < 3; ++J)
      Fleet += "instance " + std::to_string(J) + ":\n" +
               Events(C->Compiled, Seed + J);
    EXPECT_EQ(Stdout(" --fleet 3 --threads 2"), Fleet) << Name;
    if (Cc) {
      EXPECT_EQ(Stdout(" --native force --cache-dir " + Cache.Path), Nested)
          << Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// --link runs: the fused step goes through the single-process run path,
// so every engine runs a linked system and stops at the same failed
// channel check with the same diagnostic.
//===----------------------------------------------------------------------===//

namespace {

/// Writes the sources of \p Inputs into one temp .sig file.
std::string writeLinkSource(const char *Tag,
                            const std::vector<LinkInput> &Inputs) {
  std::string Path = ::testing::TempDir() + "sigc_cli_link_" + Tag + "_" +
                     std::to_string(::getpid()) + ".sig";
  if (FILE *F = std::fopen(Path.c_str(), "w")) {
    for (const LinkInput &In : Inputs)
      std::fputs(In.Source.c_str(), F);
    std::fclose(F);
  }
  return Path;
}

/// The first line of \p Output that starts with \p Prefix ("" when
/// none).
std::string lineStarting(const std::string &Output, const std::string &Prefix) {
  std::istringstream In(Output);
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind(Prefix, 0) == 0)
      return Line;
  return "";
}

/// The fused step of \p Inputs run in process on RandomEnvironment
/// \p Seed for \p Instants instants: its output text and, when a check
/// stopped it, the CLI's diagnostic.
std::pair<std::string, std::string>
linkedReference(const std::vector<LinkInput> &Inputs, uint64_t Seed,
                unsigned Instants) {
  LinkResult R = compileAndLinkSources(Inputs);
  EXPECT_TRUE(R.Sys) << R.Error;
  if (!R.Sys)
    return {};
  RandomEnvironment Env(Seed);
  VmExecutor Vm(R.Sys->Fused);
  Vm.run(Env, Instants);
  std::string Diag;
  if (Vm.checkFailure())
    Diag = "signalc: linked simulation stopped: " +
           R.Sys->mismatchMessage(Vm.checkFailure());
  return {formatEvents(Env.outputs()), Diag};
}

} // namespace

TEST(Cli, LinkedSimulationIsTheSameOnEveryEngine) {
  std::string Src = writeLinkSource("pipe", test::linkedPipelineInputs());
  TempCacheDirCli Cache;
  const std::string Run =
      "--link SENSOR,MONITOR " + Src + " --simulate 300 --seed 3 --stats";
  const std::string Expected =
      "linked simulation (300 instants, seed 3):\n" +
      linkedReference(test::linkedPipelineInputs(), 3, 300).first;
  std::vector<std::string> Engines = {"", " --batch 7"};
  if (cliHostCcAvailable())
    Engines.push_back(" --native force --cache-dir " + Cache.Path);
  std::string VmLine, ModeLine;
  for (const std::string &Engine : Engines) {
    CliResult Out = runSignalc(Run + Engine, /*StdoutOnly=*/true);
    CliResult All = runSignalc(Run + Engine);
    ASSERT_EQ(Out.Exit, 0) << Engine << ": " << All.Output;
    EXPECT_EQ(Out.Output, Expected) << Engine;
    EXPECT_EQ(All.Output.find("warning"), std::string::npos) << All.Output;
    std::string Vm = lineStarting(All.Output, "stats: vm ");
    std::string Mode = lineStarting(All.Output, "stats: mode=vm instants=300 ");
    ASSERT_FALSE(Vm.empty()) << All.Output;
    ASSERT_FALSE(Mode.empty()) << All.Output;
    if (VmLine.empty()) {
      VmLine = Vm;
      ModeLine = Mode;
    }
    EXPECT_EQ(Vm, VmLine) << Engine;
    EXPECT_EQ(Mode, ModeLine) << Engine;
  }
  std::remove(Src.c_str());
}

TEST(Cli, LinkedFleetInstanceZeroIsTheScalarRun) {
  std::string Src = writeLinkSource("fleet", test::linkedPipelineInputs());
  const std::string Run = "--link SENSOR,MONITOR " + Src +
                          " --simulate 200 --seed 5";
  CliResult Scalar = runSignalc(Run, /*StdoutOnly=*/true);
  CliResult Fleet =
      runSignalc(Run + " --fleet 3 --threads 2", /*StdoutOnly=*/true);
  ASSERT_EQ(Scalar.Exit, 0) << Scalar.Output;
  ASSERT_EQ(Fleet.Exit, 0) << Fleet.Output;
  const std::string Head = "linked simulation (200 instants, seed 5):\n";
  ASSERT_EQ(Scalar.Output.compare(0, Head.size(), Head), 0) << Scalar.Output;
  size_t From = Fleet.Output.find("instance 0:\n");
  size_t To = Fleet.Output.find("instance 1:\n");
  ASSERT_NE(From, std::string::npos) << Fleet.Output;
  ASSERT_NE(To, std::string::npos) << Fleet.Output;
  From += std::string("instance 0:\n").size();
  EXPECT_EQ(Fleet.Output.substr(From, To - From),
            Scalar.Output.substr(Head.size()));
  std::remove(Src.c_str());
}

TEST(Cli, LinkedMismatchStopsEveryEngineWithOneDiagnostic) {
  std::string Src = writeLinkSource("prodcons", test::linkedDynamicCheckInputs());
  TempCacheDirCli Cache;
  const std::string Run = "--link PROD,CONS " + Src + " --simulate 20";
  auto [Text, Diag] =
      linkedReference(test::linkedDynamicCheckInputs(), 1, 20);
  ASSERT_EQ(Diag.rfind("signalc: linked simulation stopped: instant 1: "
                       "channel 'X' clock mismatch",
                       0),
            0u)
      << Diag;
  std::vector<std::string> Engines = {"", " --batch 7"};
  if (cliHostCcAvailable())
    Engines.push_back(" --native force --cache-dir " + Cache.Path);
  for (const std::string &Engine : Engines) {
    CliResult All = runSignalc(Run + Engine);
    CliResult Out = runSignalc(Run + Engine, /*StdoutOnly=*/true);
    EXPECT_EQ(All.Exit, 1) << Engine << ": " << All.Output;
    EXPECT_EQ(lineStarting(All.Output, "signalc: linked simulation stopped"),
              Diag)
        << Engine << ": " << All.Output;
    // The trace runs through the stopping instant, as in process.
    EXPECT_EQ(Out.Output, "linked simulation (20 instants, seed 1):\n" + Text)
        << Engine;
  }
  // A fleet names each stopped instance; instance 0 is the scalar run.
  CliResult Fleet = runSignalc(Run + " --fleet 3 --threads 2");
  EXPECT_EQ(Fleet.Exit, 1) << Fleet.Output;
  std::string Instance0 = "signalc: linked simulation stopped: instance 0: " +
                          Diag.substr(std::string("signalc: linked "
                                                  "simulation stopped: ")
                                          .size());
  EXPECT_NE(Fleet.Output.find(Instance0 + "\n"), std::string::npos)
      << Fleet.Output;
  std::remove(Src.c_str());
}

TEST(Cli, LinkedRecordingReplaysAsMatching) {
  std::string Src = writeLinkSource("rec", test::linkedPipelineInputs());
  std::string Path = tempTracePath("linked");
  const std::string Link = "--link SENSOR,MONITOR " + Src;
  CliResult Rec =
      runSignalc(Link + " --simulate 120 --seed 4 --record " + Path);
  ASSERT_EQ(Rec.Exit, 0) << Rec.Output;
  EXPECT_NE(Rec.Output.find("recorded 120 instant(s) to"), std::string::npos)
      << Rec.Output;
  CliResult Rep = runSignalc(Link + " --replay " + Path);
  EXPECT_EQ(Rep.Exit, 0) << Rep.Output;
  EXPECT_NE(Rep.Output.find("replay (120 instants, mmap):"),
            std::string::npos)
      << Rep.Output;
  EXPECT_NE(Rep.Output.find("match the trace"), std::string::npos)
      << Rep.Output;

  // A recording that a failed check stopped holds the instants through
  // the stop, and its replay stops there with the same diagnostic.
  std::string PcSrc =
      writeLinkSource("recpc", test::linkedDynamicCheckInputs());
  const std::string PcLink = "--link PROD,CONS " + PcSrc;
  // Frames narrower than the window: the stop leaves a prefetched frame
  // wholly past the trace's end.
  CliResult PcRec =
      runSignalc(PcLink + " --simulate 20 --frame 4 --record " + Path);
  EXPECT_EQ(PcRec.Exit, 1) << PcRec.Output;
  EXPECT_NE(PcRec.Output.find("recorded 2 instant(s) to"), std::string::npos)
      << PcRec.Output;
  CliResult PcRep = runSignalc(PcLink + " --replay " + Path);
  EXPECT_EQ(PcRep.Exit, 1) << PcRep.Output;
  std::string Diag = lineStarting(PcRec.Output, "signalc: linked simulation");
  EXPECT_FALSE(Diag.empty()) << PcRec.Output;
  EXPECT_EQ(lineStarting(PcRep.Output, "signalc: linked simulation"), Diag)
      << PcRep.Output;
  std::remove(Path.c_str());
  std::remove(Src.c_str());
  std::remove(PcSrc.c_str());
}

TEST(Cli, LinkRejectsFlatModeAndServeNamingTheFlag) {
  // Neither can run a linked system: the fused step exists only in the
  // nested lowering, and the serve protocol has no frame for a failed
  // channel check. A usage error, not a warning: the run would not be
  // the one asked for.
  std::string Src = writeLinkSource("reject", test::linkedPipelineInputs());
  const std::string Link = "--link SENSOR,MONITOR " + Src;
  CliResult Flat = runSignalc(Link + " --simulate 4 --mode flat");
  EXPECT_EQ(Flat.Exit, 2) << Flat.Output;
  EXPECT_NE(Flat.Output.find("--mode flat"), std::string::npos)
      << Flat.Output;
  CliResult Serve = runSignalc(Link + " --serve " + ::testing::TempDir() +
                               "sigc_cli_link.sock");
  EXPECT_EQ(Serve.Exit, 2) << Serve.Output;
  EXPECT_NE(Serve.Output.find("--serve"), std::string::npos) << Serve.Output;
  EXPECT_EQ(Serve.Output.find("linked 2 process(es)"), std::string::npos)
      << "rejected before compiling: " << Serve.Output;
  std::remove(Src.c_str());
}
