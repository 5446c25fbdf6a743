//===--- bench_tier.cpp - Tiered native execution ------------------------===//
///
/// Measures the tier economics end to end:
///
///   * vm                 — scalar VM throughput (the tier a run starts
///     on),
///   * native             — the VM with the dlopen'd artifact attached,
///     on the same traces (the speedup the tier promotion buys),
///   * cold_compile_ms    — content-hash + emit + host cc + atomic
///     publish + load, i.e. how long the background thread works on a
///     cache miss,
///   * warm_load_ms       — loading the published artifact on a later
///     run; the report also asserts the warm path spawned no compiler
///     (cc_spawns_warm must be 0 — the cache-hit acceptance criterion).
///
/// A promotion itself copies nothing (both tiers run on the VM's state
/// block), so beyond the module load there is no handoff to time.
///
/// Workloads: the Figure-5 alarm plus deep divider chains at dense and
/// sparse root activity — the shapes where the clock hierarchy's guard
/// skipping and the native code's lack of dispatch both show.
///
/// Usage: bench_tier [--json FILE] [--instants K]
/// CI uploads the JSON output as BENCH_tier.json. Without a host C
/// compiler only the VM leg runs.
///
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "interp/VmExecutor.h"
#include "native/CcRunner.h"
#include "native/NativeCache.h"
#include "native/StepHash.h"
#include "programs/Programs.h"
#include "testing/Oracle.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace sigc;

namespace {

/// Random environment that drops outputs: throughput runs measure the
/// engines, not trace recording. The flushed slot rows drop unread, so
/// they cost no conversion either.
class DiscardEnvironment : public RandomEnvironment {
public:
  using RandomEnvironment::RandomEnvironment;
  void exchangeOutputs(unsigned, unsigned, unsigned, const EnvOutputId *,
                       const unsigned char *, const VmSlot *) override {}
};

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

struct Row {
  std::string Name;
  unsigned TickPermille = 800;
  double VmPerSec = 0;
  double NativePerSec = 0;     ///< 0 when the native legs did not run.
  double ColdCompileMs = 0;    ///< miss: emit + cc + publish + load.
  double WarmLoadMs = 0;       ///< hit: validate + dlopen only.
  uint64_t CcSpawnsWarm = 0;   ///< must stay 0 — hit spawns no compiler.
};

/// Best of three timed repetitions (scheduler noise shows up as slow
/// outliers, never fast ones).
const unsigned Reps = 3;

/// Best-of-Reps throughput of the VM, with \p M attached when non-null.
double throughput(const CompiledStep &CS, const NativeModule *M,
                  uint64_t Seed, unsigned TickPermille, unsigned Instants) {
  DiscardEnvironment Env(Seed, TickPermille);
  VmExecutor Vm(CS);
  Vm.setNative(M);
  Vm.runBatched(Env, Instants / 8 + 1, 64); // Bind + warm.
  double Best = 0;
  for (unsigned R = 0; R < Reps; ++R) {
    Vm.reset();
    auto T0 = std::chrono::steady_clock::now();
    Vm.runBatched(Env, Instants, 64);
    double S = secondsSince(T0);
    if (S > 0 && Instants / S > Best)
      Best = Instants / S;
  }
  return Best;
}

/// A fresh cache directory, removed with contents.
struct TempCacheDir {
  std::string Path;
  TempCacheDir() {
    char Template[] = "/tmp/sigc-benchtier-XXXXXX";
    if (char *D = mkdtemp(Template))
      Path = D;
  }
  ~TempCacheDir() {
    if (!Path.empty())
      std::system(("rm -rf " + Path).c_str());
  }
};

Row benchProgram(const std::string &Name, const std::string &Source,
                 unsigned TickPermille, unsigned Instants, bool WithNative) {
  auto C = compileSource("<bench:" + Name + ">", Source);
  if (!C->Ok) {
    std::fprintf(stderr, "%s: compilation failed:\n%s", Name.c_str(),
                 C->Diags.render().c_str());
    std::exit(1);
  }
  const CompiledStep &CS = C->Compiled;

  Row R;
  R.Name = Name;
  R.TickPermille = TickPermille;
  R.VmPerSec = throughput(CS, nullptr, 42, TickPermille, Instants);
  if (!WithNative)
    return R;

  TempCacheDir Cache;
  if (Cache.Path.empty())
    return R;
  NativeCache NC(Cache.Path);
  std::string Hash = hashCompiledStep(CS), Err;

  // Cold miss: the whole background-compile pipeline, timed.
  auto T0 = std::chrono::steady_clock::now();
  std::unique_ptr<NativeModule> Cold = NC.compileAndPublish(CS, Hash, Err);
  R.ColdCompileMs = secondsSince(T0) * 1e3;
  if (!Cold) {
    std::fprintf(stderr, "%s: native compile failed: %s\n", Name.c_str(),
                 Err.c_str());
    return R;
  }

  // Warm hit: validate + dlopen, and provably no compiler spawn.
  uint64_t Spawns0 = ccSpawnCount();
  T0 = std::chrono::steady_clock::now();
  std::unique_ptr<NativeModule> Warm = NC.tryLoad(Hash, Err);
  R.WarmLoadMs = secondsSince(T0) * 1e3;
  R.CcSpawnsWarm = ccSpawnCount() - Spawns0;
  const NativeModule &M = Warm ? *Warm : *Cold;

  R.NativePerSec = throughput(CS, &M, 42, TickPermille, Instants);
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Instants = 1u << 18;
  std::string JsonPath;
  BenchArgs Args("bench_tier", Argc, Argv);
  while (Args.next()) {
    if (Args.is("--json"))
      JsonPath = Args.value();
    else if (Args.is("--instants"))
      Instants = Args.number();
    else
      Args.unknown();
  }
  bool WithNative = !hostCCompilerCommand().empty();
  if (!WithNative)
    std::fprintf(stderr, "no host C compiler: vm leg only\n");

  std::printf("Tier economics (instants/sec, %u instants)\n\n", Instants);
  std::printf("%-12s %6s %12s %12s %8s %10s %9s\n", "program", "tick", "vm",
              "native", "nat/vm", "cold(ms)", "warm(ms)");

  std::vector<Row> Rows;
  auto Report = [&](const Row &R) {
    std::printf("%-12s %6u %12.0f %12.0f %7.2fx %10.1f %9.2f\n",
                R.Name.c_str(), R.TickPermille, R.VmPerSec, R.NativePerSec,
                R.VmPerSec > 0 ? R.NativePerSec / R.VmPerSec : 0,
                R.ColdCompileMs, R.WarmLoadMs);
    if (R.CcSpawnsWarm)
      std::printf("  WARNING: warm cache hit spawned %llu compiler(s)\n",
                  static_cast<unsigned long long>(R.CcSpawnsWarm));
    Rows.push_back(R);
  };

  Report(benchProgram("FIG5_ALARM", alarmFigure5Source(), 800, Instants,
                      WithNative));
  for (unsigned Stages : {16u, 48u})
    for (unsigned Permille : {1000u, 250u}) {
      ProgramShape Shape;
      Shape.DividerStages = Stages;
      Report(benchProgram("chain" + std::to_string(Stages),
                          generateProgram("CHAIN", Shape), Permille, Instants,
                          WithNative));
    }

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    Out << "{\n  \"benchmarks\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      Out << "    {\"name\": \"tier/" << R.Name << "/tick=" << R.TickPermille
          << "\", "
          << "\"vm_per_sec\": " << R.VmPerSec << ", "
          << "\"native_per_sec\": " << R.NativePerSec << ", "
          << "\"native_vs_vm\": "
          << (R.VmPerSec > 0 ? R.NativePerSec / R.VmPerSec : 0) << ", "
          << "\"cold_compile_ms\": " << R.ColdCompileMs << ", "
          << "\"warm_load_ms\": " << R.WarmLoadMs << ", "
          << "\"cc_spawns_warm\": " << R.CcSpawnsWarm << "}"
          << (I + 1 < Rows.size() ? "," : "") << "\n";
    }
    Out << "  ]\n}\n";
    std::printf("\nwrote %s\n", JsonPath.c_str());
  }
  return 0;
}
