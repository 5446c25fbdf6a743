//===--- bench_link.cpp - Separate compilation + linking benchmark --------===//
///
/// Measures the separate-compilation toolchain on generated N-stage
/// pipelines, through 64 stages:
///
///   * serial vs parallel compilation of the N units (the first scaling
///     win: compilations share no state, so threads are free speedup),
///   * link time (interface extraction + channel matching + joint-space
///     BDD obligations + instruction-granularity fusion) as N grows,
///   * fused throughput (the one cross-unit CompiledStep the linker now
///     schedules) against two baselines: the monolithic compilation of
///     the textually composed program, and per-unit execution of the
///     same N compiled steps in isolation — the pre-fusion dispatch
///     pattern of one executor + one environment exchange per unit per
///     instant, which is the overhead fusion deletes.
///
/// Usage: bench_link [--json FILE] [--stages N,N,...] [--instants K]
/// The JSON output is uploaded by CI as BENCH_link.json.
///
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "driver/Driver.h"
#include "interp/Environment.h"
#include "interp/VmExecutor.h"
#include "link/Linker.h"
#include "testing/RandomProgram.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

using namespace sigc;

namespace {

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

struct Row {
  unsigned Stages = 0;
  double CompileSerialMs = 0;
  double CompileParallelMs = 0;
  double LinkMs = 0;
  double MonoCompileMs = 0;
  double FusedStepsPerSec = 0;
  double PerUnitStepsPerSec = 0;
  double MonoStepsPerSec = 0;
  uint64_t ForestNodes = 0; ///< Sum over units, unchanged by link.
};

} // namespace

int main(int Argc, char **Argv) {
  std::vector<unsigned> StageCounts = {8, 16, 32, 64};
  unsigned Instants = 4096;
  std::string JsonPath;
  BenchArgs Args("bench_link", Argc, Argv);
  while (Args.next()) {
    if (Args.is("--json"))
      JsonPath = Args.value();
    else if (Args.is("--stages"))
      StageCounts = Args.numberList();
    else if (Args.is("--instants"))
      Instants = Args.number();
    else
      Args.unknown();
  }

  std::printf("Separate compilation + linking on generated pipelines\n\n");
  std::printf("%-7s %10s %10s %8s %10s %12s %12s %12s\n", "stages",
              "serial", "parallel", "link", "mono", "fused", "per-unit",
              "monolithic");
  std::printf("%-7s %10s %10s %8s %10s %12s %12s %12s\n", "", "(ms)",
              "(ms)", "(ms)", "(ms)", "(steps/s)", "(steps/s)",
              "(steps/s)");

  RandomProgramOptions StageOptions;
  StageOptions.Equations = 96;
  StageOptions.IntInputs = 4;
  StageOptions.BoolInputs = 4;

  std::vector<Row> Rows;
  for (unsigned N : StageCounts) {
    GeneratedChain Chain =
        generateProcessChain(/*Seed=*/42, N, StageOptions,
                             /*MaxChannels=*/2,
                             /*SynchroChannelPercent=*/30);
    std::vector<LinkInput> Inputs;
    for (size_t K = 0; K < Chain.Sources.size(); ++K)
      Inputs.push_back({Chain.Names[K], Chain.Sources[K]});

    Row R;
    R.Stages = N;

    LinkOptions Serial;
    Serial.ParallelCompile = false;
    LinkResult SerialRes = compileAndLinkSources(Inputs, Serial);
    if (!SerialRes.Sys) {
      std::fprintf(stderr, "stages=%u: link failed: %s\n", N,
                   SerialRes.Error.c_str());
      return 1;
    }
    R.CompileSerialMs = SerialRes.CompileMs;

    LinkResult Par = compileAndLinkSources(Inputs);
    if (!Par.Sys) {
      std::fprintf(stderr, "stages=%u: parallel link failed: %s\n", N,
                   Par.Error.c_str());
      return 1;
    }
    R.CompileParallelMs = Par.CompileMs;
    R.LinkMs = Par.LinkMs;
    for (uint64_t Nodes : Par.Sys->ForestNodesAtLink)
      R.ForestNodes += Nodes;

    auto T0 = std::chrono::steady_clock::now();
    auto Mono = compileSource("<bench-mono>", Chain.ComposedSource);
    R.MonoCompileMs = msSince(T0);
    if (!Mono->Ok) {
      std::fprintf(stderr, "stages=%u: monolithic compile failed:\n%s", N,
                   Mono->Diags.render().c_str());
      return 1;
    }

    {
      RandomEnvironment Env(7);
      VmExecutor Exec(Par.Sys->Fused);
      T0 = std::chrono::steady_clock::now();
      Exec.run(Env, Instants);
      double Ms = msSince(T0);
      R.FusedStepsPerSec = Ms > 0 ? 1000.0 * Instants / Ms : 0;
    }
    {
      // The pre-fusion dispatch pattern: every instant pays one executor
      // call and one environment exchange *per unit*. Each unit runs its
      // own compiled step against its own environment — same instruction
      // mix, N times the crossing overhead the fused step pays once.
      // A unit's Compiled is its unoptimized layout (the form fusion
      // reads), so each unit's step is optimized here as the fused one is.
      std::vector<CompiledStep> Steps;
      Steps.reserve(Par.Sys->Units.size());
      std::vector<std::unique_ptr<RandomEnvironment>> Envs;
      std::vector<std::unique_ptr<VmExecutor>> Execs;
      for (const LinkUnit &U : Par.Sys->Units) {
        Steps.push_back(CompiledStep::build(U.Comp->Step));
        Envs.push_back(std::make_unique<RandomEnvironment>(7));
        Execs.push_back(std::make_unique<VmExecutor>(Steps.back()));
      }
      T0 = std::chrono::steady_clock::now();
      for (unsigned I = 0; I < Instants; ++I)
        for (size_t U = 0; U < Execs.size(); ++U)
          Execs[U]->step(*Envs[U], I);
      double Ms = msSince(T0);
      R.PerUnitStepsPerSec = Ms > 0 ? 1000.0 * Instants / Ms : 0;
    }
    {
      RandomEnvironment Env(7);
      VmExecutor Exec(Mono->Compiled);
      T0 = std::chrono::steady_clock::now();
      Exec.run(Env, Instants);
      double Ms = msSince(T0);
      R.MonoStepsPerSec = Ms > 0 ? 1000.0 * Instants / Ms : 0;
    }

    std::printf("%-7u %10.2f %10.2f %8.2f %10.2f %12.0f %12.0f %12.0f\n",
                N, R.CompileSerialMs, R.CompileParallelMs, R.LinkMs,
                R.MonoCompileMs, R.FusedStepsPerSec, R.PerUnitStepsPerSec,
                R.MonoStepsPerSec);
    Rows.push_back(R);
  }

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    Out << "{\n  \"benchmarks\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      Out << "    {\"name\": \"link/stages=" << R.Stages << "\", "
          << "\"compile_serial_ms\": " << R.CompileSerialMs << ", "
          << "\"compile_parallel_ms\": " << R.CompileParallelMs << ", "
          << "\"link_ms\": " << R.LinkMs << ", "
          << "\"mono_compile_ms\": " << R.MonoCompileMs << ", "
          << "\"fused_steps_per_sec\": " << R.FusedStepsPerSec << ", "
          << "\"per_unit_steps_per_sec\": " << R.PerUnitStepsPerSec << ", "
          << "\"mono_steps_per_sec\": " << R.MonoStepsPerSec << ", "
          << "\"forest_nodes\": " << R.ForestNodes << "}"
          << (I + 1 < Rows.size() ? "," : "") << "\n";
    }
    Out << "  ]\n}\n";
    std::printf("\nwrote %s\n", JsonPath.c_str());
  }
  return 0;
}
