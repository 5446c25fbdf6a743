//===--- native_test.cpp - Tiered native execution ------------------------===//
///
/// Tests of the native tier: content hashing, the persistent artifact
/// cache (hit/miss, corruption classes, concurrent publication, failed
/// compiles), native-vs-VM trace and counter identity, attaching or
/// detaching the native module at every batch boundary, and runWindows'
/// promotion rule on random runs and replays. Everything that
/// needs the host C compiler skips (not fails) when none is on PATH.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/VmExecutor.h"
#include "io/TraceEnvironment.h"
#include "native/CcRunner.h"
#include "native/NativeCache.h"
#include "native/StepHash.h"
#include "native/TierController.h"
#include "programs/Programs.h"
#include "testing/Oracle.h"
#include "testing/RandomProgram.h"
#include "testing/TraceCompare.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <memory>
#include <thread>
#include <unistd.h>

using namespace sigc;
using namespace sigc::test;

namespace {

/// A fresh cache directory per test, removed (with contents) on exit.
struct TempCacheDir {
  std::string Path;
  TempCacheDir() {
    char Template[] = "/tmp/sigc-native-test-XXXXXX";
    Path = mkdtemp(Template);
  }
  ~TempCacheDir() {
    for (const std::string &F : entries())
      std::remove((Path + "/" + F).c_str());
    rmdir(Path.c_str());
  }
  std::vector<std::string> entries() const {
    std::vector<std::string> Out;
    if (DIR *D = opendir(Path.c_str())) {
      while (dirent *E = readdir(D)) {
        std::string N = E->d_name;
        if (N != "." && N != "..")
          Out.push_back(N);
      }
      closedir(D);
    }
    return Out;
  }
};

/// A small but representative program: generated well-clocked source
/// with a high accumulator share, so delays carry real state across the
/// swap tests.
std::string sampleSource() {
  RandomProgramOptions O;
  O.Equations = 10;
  O.AccumulatorPercent = 60;
  return generateRandomProgram("P", 42, O);
}

struct TraceRun {
  std::vector<OutputEvent> Events;
  uint64_t Guards = 0;
  uint64_t Executed = 0;
};

/// A batched run of \p CS, on the native module \p M when non-null.
TraceRun runVm(const CompiledStep &CS, uint64_t Seed, unsigned Instants,
               unsigned Batch, const NativeModule *M = nullptr) {
  RandomEnvironment Env(Seed);
  VmExecutor Vm(CS);
  Vm.setNative(M);
  runWindows(Vm, Env, 0, Instants, Batch);
  return {Env.outputs(), Vm.guardTests(), Vm.executed()};
}

TraceRun runNative(const CompiledStep &CS, const NativeModule &M,
                   uint64_t Seed, unsigned Instants, unsigned Batch) {
  return runVm(CS, Seed, Instants, Batch, &M);
}

void expectSameRun(const TraceRun &A, const char *NameA, const TraceRun &B,
                   const char *NameB) {
  TraceDiff D = compareTraces(NameA, A.Events, NameB, B.Events);
  EXPECT_TRUE(D.Equal) << D.Report;
  EXPECT_EQ(A.Guards, B.Guards);
  EXPECT_EQ(A.Executed, B.Executed);
}

} // namespace

//===----------------------------------------------------------------------===//
// Content hashing
//===----------------------------------------------------------------------===//

TEST(StepHash, DeterministicAndNameIndependent) {
  auto C1 = compileOk(sampleSource());
  auto C2 = compileOk(sampleSource());
  EXPECT_EQ(hashCompiledStep(C1->Compiled), hashCompiledStep(C2->Compiled));
  EXPECT_EQ(hashCompiledStep(C1->Compiled).size(), 16u);

  // Same program under another process name: same bytecode, same hash
  // (the native unit is emitted under a fixed internal name).
  std::string Renamed = sampleSource();
  size_t At = Renamed.find("process P");
  ASSERT_NE(At, std::string::npos);
  Renamed.replace(At, 9, "process Q");
  auto C3 = compileOk(Renamed);
  EXPECT_EQ(hashCompiledStep(C1->Compiled), hashCompiledStep(C3->Compiled));
}

TEST(StepHash, SensitiveToProgramChanges) {
  auto C1 = compileOk(sampleSource());
  auto C2 = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                           "   Y := (A + 2) when C1"));
  EXPECT_NE(hashCompiledStep(C1->Compiled), hashCompiledStep(C2->Compiled));
}

//===----------------------------------------------------------------------===//
// Native execution equivalence
//===----------------------------------------------------------------------===//

TEST(NativeTier, MatchesVmOnSampleProgram) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  auto C = compileOk(sampleSource());
  TempCacheDir Dir;
  NativeCache Cache(Dir.Path);
  std::string Hash = hashCompiledStep(C->Compiled), Err;
  auto Mod = Cache.compileAndPublish(C->Compiled, Hash, Err);
  ASSERT_TRUE(Mod) << Err;

  for (unsigned Batch : {1u, 7u, 32u})
    expectSameRun(runVm(C->Compiled, 11, 96, Batch), "vm",
                  runNative(C->Compiled, *Mod, 11, 96, Batch), "native");

  // step() with the module attached is a one-instant stepN.
  RandomEnvironment Env(11);
  VmExecutor Vm(C->Compiled);
  Vm.setNative(Mod.get());
  Vm.run(Env, 96);
  expectSameRun(runVm(C->Compiled, 11, 96, 1), "vm",
                {Env.outputs(), Vm.guardTests(), Vm.executed()},
                "native-step");
}

TEST(NativeTier, MatchesVmOnAlarmBuiltin) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  auto C = compileOk(alarmFigure5Source());
  TempCacheDir Dir;
  NativeCache Cache(Dir.Path);
  std::string Hash = hashCompiledStep(C->Compiled), Err;
  auto Mod = Cache.compileAndPublish(C->Compiled, Hash, Err);
  ASSERT_TRUE(Mod) << Err;
  expectSameRun(runVm(C->Compiled, 3, 128, 8), "vm",
                runNative(C->Compiled, *Mod, 3, 128, 8), "native");
}

TEST(NativeTier, MatchesVmOnRandomSweep) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  TempCacheDir Dir;
  NativeCache Cache(Dir.Path);
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    std::string Source =
        generateRandomProgram("R" + std::to_string(Seed), Seed);
    auto C = compileSource("<native-sweep>", Source);
    ASSERT_TRUE(C->Ok) << C->Diags.render();
    std::string Hash = hashCompiledStep(C->Compiled), Err;
    auto Mod = Cache.compileAndPublish(C->Compiled, Hash, Err);
    ASSERT_TRUE(Mod) << Err << "\n--- program ---\n" << Source;
    TraceRun Vm = runVm(C->Compiled, Seed * 31 + 1, 64, 8);
    TraceRun Nat = runNative(C->Compiled, *Mod, Seed * 31 + 1, 64, 8);
    TraceDiff D = compareTraces("vm", Vm.Events, "native", Nat.Events);
    EXPECT_TRUE(D.Equal) << D.Report << "\n--- program ---\n" << Source;
    EXPECT_EQ(Vm.Guards, Nat.Guards) << Source;
    EXPECT_EQ(Vm.Executed, Nat.Executed) << Source;
  }
}

//===----------------------------------------------------------------------===//
// Hot swap at every batch boundary
//===----------------------------------------------------------------------===//

TEST(TierSwap, VmToNativeAtEveryBoundaryIsInvisible) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  auto C = compileOk(sampleSource());
  TempCacheDir Dir;
  NativeCache Cache(Dir.Path);
  std::string Hash = hashCompiledStep(C->Compiled), Err;
  auto Mod = Cache.compileAndPublish(C->Compiled, Hash, Err);
  ASSERT_TRUE(Mod) << Err;

  const unsigned Total = 48, Batch = 8;
  TraceRun Base = runVm(C->Compiled, 77, Total, Batch);

  for (unsigned K = 0; K <= Total; K += Batch) {
    RandomEnvironment Env(77);
    VmExecutor Vm(C->Compiled);
    for (unsigned S = 0; S < K; S += Batch)
      Vm.stepN(Env, S, Batch);
    Vm.setNative(Mod.get());
    for (unsigned S = K; S < Total; S += Batch)
      Vm.stepN(Env, S, Batch);

    TraceDiff D = compareTraces("vm-uninterrupted", Base.Events,
                                "swap@" + std::to_string(K), Env.outputs());
    EXPECT_TRUE(D.Equal) << D.Report;
    EXPECT_EQ(Base.Guards, Vm.guardTests()) << "swap at " << K;
    EXPECT_EQ(Base.Executed, Vm.executed()) << "swap at " << K;
  }
}

TEST(TierSwap, RoundTripNativeBackToVm) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  auto C = compileOk(sampleSource());
  TempCacheDir Dir;
  NativeCache Cache(Dir.Path);
  std::string Hash = hashCompiledStep(C->Compiled), Err;
  auto Mod = Cache.compileAndPublish(C->Compiled, Hash, Err);
  ASSERT_TRUE(Mod) << Err;

  const unsigned Total = 48, Batch = 8;
  TraceRun Base = runVm(C->Compiled, 5, Total, Batch);

  // VM -> native at 16, native -> VM at 32; then attached and detached
  // on alternate windows. The state must survive both directions.
  struct {
    const char *Name;
    bool (*NativeAt)(unsigned Start);
  } Schedules[] = {
      {"round-trip", [](unsigned S) { return S >= 16 && S < 32; }},
      {"alternating", [](unsigned S) { return (S / 8) % 2 == 1; }},
  };
  for (const auto &Sch : Schedules) {
    RandomEnvironment Env(5);
    VmExecutor Vm(C->Compiled);
    for (unsigned S = 0; S < Total; S += Batch) {
      Vm.setNative(Sch.NativeAt(S) ? Mod.get() : nullptr);
      Vm.stepN(Env, S, Batch);
    }
    TraceDiff D = compareTraces("vm-uninterrupted", Base.Events, Sch.Name,
                                Env.outputs());
    EXPECT_TRUE(D.Equal) << D.Report;
    EXPECT_EQ(Base.Guards, Vm.guardTests()) << Sch.Name;
    EXPECT_EQ(Base.Executed, Vm.executed()) << Sch.Name;
  }
}

//===----------------------------------------------------------------------===//
// Cache behavior
//===----------------------------------------------------------------------===//

TEST(NativeCache, WarmHitSpawnsNoCompiler) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  auto C = compileOk(sampleSource());
  TempCacheDir Dir;

  TierOptions O;
  O.Mode = NativeMode::Force;
  O.CacheDir = Dir.Path;
  TierController Cold(C->Compiled, O);
  ASSERT_TRUE(Cold.start()) << Cold.error();
  EXPECT_FALSE(Cold.cacheHit());
  EXPECT_TRUE(Cold.nativeReady());

  uint64_t SpawnsAfterCold = ccSpawnCount();
  TierController Warm(C->Compiled, O);
  ASSERT_TRUE(Warm.start()) << Warm.error();
  EXPECT_TRUE(Warm.cacheHit());
  EXPECT_TRUE(Warm.nativeReady());
  EXPECT_EQ(ccSpawnCount(), SpawnsAfterCold)
      << "a warm cache hit must not spawn the compiler";
}

TEST(NativeCache, AutoModePromotesInBackground) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  auto C = compileOk(sampleSource());
  TempCacheDir Dir;

  TierOptions O;
  O.Mode = NativeMode::Auto;
  O.CacheDir = Dir.Path;
  TierController TC(C->Compiled, O);
  ASSERT_TRUE(TC.start()) << TC.error();
  // Miss: the VM would carry the session; wait for the worker here.
  for (int Spin = 0; Spin < 600 && !TC.nativeReady(); ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(TC.nativeReady()) << TC.error();
  ASSERT_NE(TC.module(), nullptr);
  expectSameRun(runVm(C->Compiled, 9, 64, 8), "vm",
                runNative(C->Compiled, *TC.module(), 9, 64, 8), "native");
}

TEST(NativeCache, TruncatedArtifactIsDiscardedAndRecompiled) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  auto C = compileOk(sampleSource());
  TempCacheDir Dir;
  NativeCache Cache(Dir.Path);
  std::string Hash = hashCompiledStep(C->Compiled), Err;
  ASSERT_TRUE(Cache.compileAndPublish(C->Compiled, Hash, Err)) << Err;

  // Truncate the artifact to its first 128 bytes.
  {
    std::ifstream In(Cache.soPath(Hash), std::ios::binary);
    char Buf[128] = {0};
    In.read(Buf, sizeof Buf);
    std::ofstream Out(Cache.soPath(Hash),
                      std::ios::binary | std::ios::trunc);
    Out.write(Buf, In.gcount());
  }
  std::string LoadErr;
  EXPECT_EQ(Cache.tryLoad(Hash, LoadErr), nullptr);
  EXPECT_FALSE(LoadErr.empty());
  // The bad file is gone; the next fill recompiles a working artifact.
  std::ifstream Gone(Cache.soPath(Hash));
  EXPECT_FALSE(Gone.good());
  auto Mod = Cache.compileAndPublish(C->Compiled, Hash, Err);
  ASSERT_TRUE(Mod) << Err;
  expectSameRun(runVm(C->Compiled, 2, 32, 8), "vm",
                runNative(C->Compiled, *Mod, 2, 32, 8), "native");
}

TEST(NativeCache, GarbageArtifactIsDiscarded) {
  auto C = compileOk(sampleSource());
  TempCacheDir Dir;
  NativeCache Cache(Dir.Path);
  std::string Hash = hashCompiledStep(C->Compiled);
  {
    std::ofstream Out(Cache.soPath(Hash), std::ios::binary);
    Out << "this is not an ELF shared object";
  }
  std::string Err;
  EXPECT_EQ(Cache.tryLoad(Hash, Err), nullptr);
  EXPECT_FALSE(Err.empty());
  std::ifstream Gone(Cache.soPath(Hash));
  EXPECT_FALSE(Gone.good());
}

TEST(NativeCache, StaleHashArtifactIsDiscarded) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  // Publish program A's artifact under program B's hash: the embedded
  // hash betrays it as stale and it must be discarded.
  auto A = compileOk(sampleSource());
  auto B = compileOk(proc("? integer A; boolean C1; ! integer Y;",
                          "   Y := (A + 2) when C1"));
  TempCacheDir Dir;
  NativeCache Cache(Dir.Path);
  std::string HashA = hashCompiledStep(A->Compiled);
  std::string HashB = hashCompiledStep(B->Compiled), Err;
  ASSERT_TRUE(Cache.compileAndPublish(A->Compiled, HashA, Err)) << Err;
  ASSERT_EQ(::rename(Cache.soPath(HashA).c_str(),
                     Cache.soPath(HashB).c_str()),
            0);
  EXPECT_EQ(Cache.tryLoad(HashB, Err), nullptr);
  EXPECT_NE(Err.find("stale"), std::string::npos) << Err;
  std::ifstream Gone(Cache.soPath(HashB));
  EXPECT_FALSE(Gone.good());
}

TEST(NativeCache, AbiTagMismatchIsDiscarded) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  auto C = compileOk(sampleSource());
  TempCacheDir Dir;
  NativeCache Cache(Dir.Path);
  std::string Hash = hashCompiledStep(C->Compiled), Err;

  // Build the artifact from doctored source claiming a future ABI.
  std::string Src = NativeModule::buildSource(C->Compiled, Hash);
  std::string Needle = "int sigc_native_abi_tag(void) { return " +
                       std::to_string(NativeFormatVersion) + "; }";
  size_t At = Src.find(Needle);
  ASSERT_NE(At, std::string::npos);
  Src.replace(At, Needle.size(),
              "int sigc_native_abi_tag(void) { return 999; }");
  ASSERT_TRUE(compileSharedObject(Src, Cache.soPath(Hash), Err)) << Err;

  EXPECT_EQ(Cache.tryLoad(Hash, Err), nullptr);
  EXPECT_NE(Err.find("ABI tag mismatch"), std::string::npos) << Err;
  std::ifstream Gone(Cache.soPath(Hash));
  EXPECT_FALSE(Gone.good());
}

TEST(NativeCache, FailedCompileLeavesNoArtifact) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  TempCacheDir Dir;
  std::string Out = Dir.Path + "/deadbeefdeadbeef.so", Err;
  EXPECT_FALSE(compileSharedObject("this is not C;", Out, Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_TRUE(Dir.entries().empty())
      << "failed compile left files: " << Dir.entries().front();
}

TEST(NativeCache, ConcurrentPublishersRaceSafely) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  auto C = compileOk(sampleSource());
  TempCacheDir Dir;
  NativeCache Cache(Dir.Path);
  std::string Hash = hashCompiledStep(C->Compiled);

  // Both publishers compile the same hash concurrently; rename makes the
  // last one win with an identical artifact, and both must load.
  std::unique_ptr<NativeModule> M1, M2;
  std::string E1, E2;
  std::thread T1([&] { M1 = Cache.compileAndPublish(C->Compiled, Hash, E1); });
  std::thread T2([&] { M2 = Cache.compileAndPublish(C->Compiled, Hash, E2); });
  T1.join();
  T2.join();
  ASSERT_TRUE(M1) << E1;
  ASSERT_TRUE(M2) << E2;
  expectSameRun(runNative(C->Compiled, *M1, 4, 32, 8), "publisher-1",
                runNative(C->Compiled, *M2, 4, 32, 8), "publisher-2");
  // Exactly the published artifact remains — no tmp leftovers.
  auto Entries = Dir.entries();
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0], Hash + ".so");
}

//===----------------------------------------------------------------------===//
// Promotion in runWindows
//===----------------------------------------------------------------------===//

namespace {

/// The trace of \p Total instants of \p CS against RandomEnvironment
/// \p Seed, in frames of 8.
std::vector<uint8_t> recordTrace(const CompiledStep &CS, uint64_t Seed,
                                 unsigned Total) {
  MemorySink Sink;
  TraceWriter W(Sink, TraceSpec::fromStep(CS, "P", 8));
  RandomEnvironment Rnd(Seed);
  RecordingEnvironment Rec(Rnd, W);
  VmExecutor Vm(CS);
  runWindows(Vm, Rec, 0, Total, 8);
  EXPECT_TRUE(W.finish(Total));
  return Sink.takeBytes();
}

/// \p Total instants of \p CS in windows of \p Window on \p TC: through
/// runWindows against RandomEnvironment \p Seed or, given \p Trace,
/// through a replayTrace of it that verifies every output.
TraceRun windowedRun(const CompiledStep &CS, uint64_t Seed, unsigned Total,
                     unsigned Window, TierController &TC,
                     const std::vector<uint8_t> *Trace) {
  VmExecutor Vm(CS);
  if (!Trace) {
    RandomEnvironment Env(Seed);
    EXPECT_EQ(runWindows(Vm, Env, 0, Total, Window, &TC), Total);
    return {Env.outputs(), Vm.guardTests(), Vm.executed()};
  }
  TraceInput In(*Trace);
  TraceDecoder Dec(&CS);
  EXPECT_TRUE(In.readHeader(Dec)) << Dec.error().str();
  StreamEnvironment Env(Dec.spec());
  Env.setVerifyOutputs(true);
  Env.setCollectOutputs(true);
  EXPECT_EQ(replayTrace(In, Dec, Env, Vm, Window, &TC), Total)
      << Dec.error().str();
  EXPECT_EQ(Env.divergence(), "");
  return {Env.outputs(), Vm.guardTests(), Vm.executed()};
}

} // namespace

TEST(Tier, RunWindowsPromotesAtEveryWindowBoundary) {
  // The one promotion rule, on a random run and on a replay of the same
  // stimulus: a warm hit with --tier-after K interprets exactly K
  // instants and runs the rest natively, Force runs every instant
  // natively in any window, and neither the outputs nor the counters
  // show the handoff.
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  auto C = compileOk(sampleSource());
  TempCacheDir Dir;
  std::string Err;
  ASSERT_TRUE(NativeCache(Dir.Path).compileAndPublish(
      C->Compiled, hashCompiledStep(C->Compiled), Err))
      << Err;

  const unsigned Total = 48, Window = 8;
  const uint64_t Seed = 0x5A4B;
  const TraceRun Ref = runVm(C->Compiled, Seed, Total, Window);
  const std::vector<uint8_t> Trace = recordTrace(C->Compiled, Seed, Total);
  auto check = [&](NativeMode Mode, unsigned TierAfter, unsigned W,
                   const std::vector<uint8_t> *Replay, uint64_t VmInstants) {
    SCOPED_TRACE(std::string(Replay ? "replay" : "random") + ", " +
                 (Mode == NativeMode::Force ? "force" : "auto") +
                 ", tier-after " +
                 std::to_string(TierAfter) + ", window " + std::to_string(W));
    TierOptions Opts;
    Opts.Mode = Mode;
    Opts.CacheDir = Dir.Path;
    Opts.TierAfter = TierAfter;
    TierController TC(C->Compiled, Opts);
    ASSERT_TRUE(TC.start()) << TC.error();
    ASSERT_TRUE(TC.cacheHit());
    expectSameRun(Ref, "vm", windowedRun(C->Compiled, Seed, Total, W, TC,
                                         Replay),
                  "tiered");
    TierStats S = TC.stats();
    EXPECT_EQ(S.VmInstants, VmInstants);
    EXPECT_EQ(S.NativeInstants, Total - VmInstants);
  };
  const std::vector<uint8_t> *Legs[] = {nullptr, &Trace};
  for (const std::vector<uint8_t> *Replay : Legs) {
    for (unsigned K = 0; K <= Total; K += Window)
      check(NativeMode::Auto, K, Window, Replay, K);
    for (unsigned W : {1u, 7u, 8u, Total})
      check(NativeMode::Force, 0, W, Replay, 0);
  }
}

TEST(TierSwap, LaneCheckpointsSurviveNativeWindows) {
  // A serve lane's checkpoint is a copy of its delay slots, whichever
  // tier took it: restoring a native checkpoint into a fresh
  // interpreting VM, or a VM checkpoint into a fresh VM with the module
  // attached, and continuing must give the trace of an uninterrupted
  // run; the two legs' counters add up to its counters.
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  auto C = compileOk(sampleSource());
  TempCacheDir Dir;
  NativeCache Cache(Dir.Path);
  std::string Err;
  auto M = Cache.compileAndPublish(C->Compiled, hashCompiledStep(C->Compiled),
                                   Err);
  ASSERT_TRUE(M) << Err;

  const unsigned Total = 48, Cut = 24, Batch = 8;
  TraceRun Base = runVm(C->Compiled, 0xC4EC, Total, Batch);

  for (bool HeadNative : {true, false}) {
    RandomEnvironment Env(0xC4EC);
    VmExecutor Head(C->Compiled);
    Head.setNative(HeadNative ? M.get() : nullptr);
    runWindows(Head, Env, 0, Cut, Batch);
    VmExecutor Tail(C->Compiled);
    Tail.setNative(HeadNative ? nullptr : M.get());
    Tail.setStateSlots(Head.stateSlots());
    for (unsigned S = Cut; S < Total; S += Batch)
      Tail.stepN(Env, S, Batch);
    expectSameRun(Base, "vm-uninterrupted",
                  {Env.outputs(), Head.guardTests() + Tail.guardTests(),
                   Head.executed() + Tail.executed()},
                  HeadNative ? "native-checkpoint-into-vm"
                             : "vm-checkpoint-into-native");
  }
}
