//===--- cli_test.cpp - signalc command-line regression tests -------------===//
///
/// Subprocess tests of the installed `signalc` binary's argument
/// handling. The numeric flags (--simulate, --batch, --seed, --fleet,
/// --threads) share one checked parse: a malformed, out-of-range or
/// missing operand must be a diagnosed exit-code-2 failure naming the
/// flag — historically `--batch abc` was an uncaught std::stoul throw
/// and a flag given as the last argument was silently dropped.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <regex>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

namespace {

struct CliResult {
  int Exit = -1;
  std::string Output; ///< stdout and stderr, interleaved.
};

/// Runs `signalc <Args>` and captures exit code plus combined output.
CliResult runSignalc(const std::string &Args) {
  CliResult R;
  std::string Cmd = std::string(SIGNALC_BIN) + " " + Args + " 2>&1";
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
  EXPECT_NE(R.Output.find("stats: compile step_instrs=33 guards=7 "
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

} // namespace

TEST(Cli, RecordThenReplayRoundTripsFromTheCli) {
  std::string Path = tempTracePath("roundtrip");
  CliResult Rec = runSignalc(
      "--builtin FIG5_ALARM --simulate 50 --seed 7 --record " + Path);
  ASSERT_EQ(Rec.Exit, 0) << Rec.Output;
  EXPECT_NE(Rec.Output.find("recorded 50 instant(s) to"), std::string::npos)
      << Rec.Output;

  // Replay through both sources: the mmap fast path and the buffered
  // read(2) path must agree.
  CliResult Mmap =
      runSignalc("--builtin FIG5_ALARM --replay " + Path);
  EXPECT_EQ(Mmap.Exit, 0) << Mmap.Output;
  EXPECT_NE(Mmap.Output.find("replay (50 instants, mmap):"),
            std::string::npos)
      << Mmap.Output;
  EXPECT_NE(Mmap.Output.find("match the trace"), std::string::npos)
      << Mmap.Output;

  CliResult Buf = runSignalc("--builtin FIG5_ALARM --replay " + Path +
                             " --replay-buffered");
  EXPECT_EQ(Buf.Exit, 0) << Buf.Output;
  EXPECT_NE(Buf.Output.find("replay (50 instants, buffered):"),
            std::string::npos)
      << Buf.Output;
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

  for (const char *Extra : {"", " --replay-buffered"}) {
    CliResult R = runSignalc("--builtin FIG5_ALARM --replay " + Path + Extra);
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
  CliResult Fits =
      runSignalc("--builtin FIG5_ALARM --simulate 4 --batch-budget "
                 "99999999999");
  EXPECT_EQ(Fits.Exit, 0) << Fits.Output;
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
