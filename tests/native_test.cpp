//===--- native_test.cpp - Tiered native execution ------------------------===//
///
/// Tests of the native tier: content hashing, the persistent artifact
/// cache (hit/miss, corruption classes, concurrent publication, failed
/// compiles), native-vs-VM trace and counter identity, and attaching or
/// detaching the native module at every batch boundary. Everything that
/// needs the host C compiler skips (not fails) when none is on PATH.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/VmExecutor.h"
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
  Vm.runBatched(Env, Instants, Batch);
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
// Fleet native path
//===----------------------------------------------------------------------===//

namespace {

void expectSameFleet(const FleetRun &A, const FleetRun &B,
                     const std::string &What) {
  for (size_t J = 0; J < A.Owned.size(); ++J) {
    TraceDiff D = compareTraces("interp", A.Owned[J]->outputs(), "native",
                                B.Owned[J]->outputs());
    EXPECT_TRUE(D.Equal) << What << ", instance " << J << "\n" << D.Report;
  }
  EXPECT_EQ(A.Totals.GuardTests, B.Totals.GuardTests) << What;
  EXPECT_EQ(A.Totals.Executed, B.Totals.Executed) << What;
}

} // namespace

TEST(FleetNative, MatchesInterpretedFleetAcrossShapes) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  auto C = compileOk(sampleSource());
  TempCacheDir Dir;
  TierOptions Opts;
  Opts.Mode = NativeMode::Force;
  Opts.CacheDir = Dir.Path;
  TierController TC(C->Compiled, Opts);
  ASSERT_TRUE(TC.start()) << TC.error();

  const unsigned Instances = 7, Instants = 48;
  struct {
    unsigned Threads, Batch;
  } Shapes[] = {{1, 48}, {1, 8}, {2, 16}, {3, 7}, {3, 0}};
  for (auto Sh : Shapes) {
    std::string What = "threads " + std::to_string(Sh.Threads) +
                       ", batch " + std::to_string(Sh.Batch);
    FleetRun Interp(C->Compiled, Instances, 0xF1EE7, Instants, Sh.Batch,
                    Sh.Threads);
    FleetRun Nat(C->Compiled, Instances, 0xF1EE7, Instants, Sh.Batch,
                 Sh.Threads, &TC);
    expectSameFleet(Interp, Nat, What);
    // Force mode: every instance ran native from instant 0.
    EXPECT_EQ(Nat.Totals.VmInstants, 0u) << What;
    EXPECT_EQ(Nat.Totals.NativeInstants, uint64_t{Instances} * Instants)
        << What;
  }
}

TEST(FleetNative, SwapAtWindowBoundaryIsInvisible) {
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  auto C = compileOk(sampleSource());
  TempCacheDir Dir;
  std::string Err;
  ASSERT_TRUE(NativeCache(Dir.Path).compileAndPublish(
      C->Compiled, hashCompiledStep(C->Compiled), Err))
      << Err;

  const unsigned Instances = 5, Total = 48, Window = 8;
  FleetRun Ref(C->Compiled, Instances, 0x5A4B, Total, Window, 2);

  // A warm hit with --tier-after K: every instance interprets K instants,
  // then swaps onto the native step at that window boundary. Neither the
  // traces nor the counters may show the handoff.
  for (unsigned K = Window; K < Total; K += Window) {
    TierOptions Opts;
    Opts.Mode = NativeMode::Auto;
    Opts.CacheDir = Dir.Path;
    Opts.TierAfter = K;
    TierController TC(C->Compiled, Opts);
    ASSERT_TRUE(TC.start()) << TC.error();
    ASSERT_TRUE(TC.cacheHit());
    FleetRun F(C->Compiled, Instances, 0x5A4B, Total, Window, 2, &TC);
    expectSameFleet(Ref, F, "swap at " + std::to_string(K));
    EXPECT_EQ(F.Totals.VmInstants, uint64_t{Instances} * K);
    EXPECT_EQ(F.Totals.NativeInstants, uint64_t{Instances} * (Total - K));
  }
}

TEST(FleetNative, LaneCheckpointsSurviveNativeWindows) {
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
    Head.runBatched(Env, Cut, Batch);
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
