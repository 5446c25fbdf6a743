//===--- bench_fleet.cpp - Fleet-execution throughput ---------------------===//
///
/// Measures fleet throughput — instance-instants per second — of running
/// many instances of one compiled process over identical random traces:
///
///   * scalar    — one VmExecutor per instance, run sequentially (the
///                 baseline the fleet sweep must beat),
///   * fleet tT  — the FleetExecutor's SoA lane-block sweep, sharded
///                 over T worker threads (T = 1, 4 and the hardware
///                 concurrency; T=1 isolates the SoA/lane-sweep gain,
///                 the others add parallel scaling),
///   * cemit     — the `<proc>_step_fleet` entry point emitted from the
///                 same bytecode, compiled by the host C compiler and
///                 timed in a subprocess (skipped when no compiler is
///                 found).
///
/// Workloads: the Figure-5 alarm and divider chains at dense and sparse
/// root activity — the same shapes bench_step times scalar engines on,
/// so the two reports compose.
///
/// Usage: bench_fleet [--json FILE] [--instants K] [--instances M]
///        [--no-cemit]
/// CI uploads the JSON output as BENCH_fleet.json.
///
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "codegen/CEmitter.h"
#include "driver/Driver.h"
#include "interp/FleetExecutor.h"
#include "interp/VmExecutor.h"
#include "programs/Programs.h"
#include "testing/Oracle.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace sigc;

namespace {

/// Random environment that drops outputs: throughput runs measure the
/// engines, not trace recording.
class DiscardEnvironment : public RandomEnvironment {
public:
  using RandomEnvironment::RandomEnvironment;
  void writeOutput(EnvOutputId, unsigned, const Value &) override {}
};

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

struct Row {
  std::string Name;
  unsigned TickPermille = 800;
  double ScalarPerSec = 0;
  double FleetT1PerSec = 0, FleetT4PerSec = 0, FleetTMaxPerSec = 0;
  unsigned MaxThreads = 1;
  double CEmitPerSec = 0; ///< 0 when the cemit leg did not run.
};

/// A fleet of per-instance discard environments (instance j seeded
/// Seed+j, matching the CLI's --fleet convention).
struct EnvFleet {
  std::vector<std::unique_ptr<DiscardEnvironment>> Owned;
  std::vector<Environment *> Envs;
  EnvFleet(unsigned Instances, uint64_t Seed, unsigned TickPermille) {
    for (unsigned J = 0; J < Instances; ++J) {
      Owned.push_back(
          std::make_unique<DiscardEnvironment>(Seed + J, TickPermille));
      Envs.push_back(Owned.back().get());
    }
  }
};

/// Sequential baseline: every instance through its own scalar VM.
double scalarThroughput(const CompiledStep &CS, unsigned Instances,
                        unsigned TickPermille, unsigned Instants) {
  EnvFleet F(Instances, 42, TickPermille);
  std::vector<std::unique_ptr<VmExecutor>> Execs;
  for (unsigned J = 0; J < Instances; ++J) {
    Execs.push_back(std::make_unique<VmExecutor>(CS));
    Execs[J]->run(*F.Envs[J], Instants / 8 + 1); // Bind + warm.
    Execs[J]->reset();
  }
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned J = 0; J < Instances; ++J)
    Execs[J]->run(*F.Envs[J], Instants);
  double S = secondsSince(T0);
  return S > 0 ? static_cast<double>(Instances) * Instants / S : 0;
}

/// The fleet sweep at a given shard-thread count.
double fleetThroughput(const CompiledStep &CS, unsigned Instances,
                       unsigned TickPermille, unsigned Instants,
                       unsigned LaneBlock, unsigned Threads) {
  EnvFleet F(Instances, 42, TickPermille);
  FleetExecutor::Config Cfg;
  Cfg.LaneBlock = LaneBlock;
  Cfg.Threads = Threads;
  FleetExecutor Exec(CS, Instances, Cfg);
  Exec.run(F.Envs, Instants / 8 + 1); // Bind + warm.
  Exec.reset();
  auto T0 = std::chrono::steady_clock::now();
  Exec.run(F.Envs, Instants);
  double S = secondsSince(T0);
  return S > 0 ? static_cast<double>(Instances) * Instants / S : 0;
}

/// Emits the program's C, appends a self-timing main pushing a cyclic
/// window of pre-generated per-instance inputs through
/// <proc>_step_fleet, compiles with the host cc and runs it;
/// \returns instance-instants/sec, 0 on any failure.
double cemitFleetThroughput(const Compilation &C, unsigned Instances,
                            unsigned TickPermille, unsigned Instants) {
  if (hostCCompilerCommand().empty())
    return 0;

  const unsigned Window = 64;
  unsigned long long Total =
      static_cast<unsigned long long>(Instants) * Instances;
  if (Total < (1ull << 22))
    Total = 1ull << 22;
  unsigned long long Reps = Total / (static_cast<unsigned long long>(
                                         Instances) * Window) + 1;

  std::string MS = std::to_string(Instances), WS = std::to_string(Window);
  std::string Src = emitC(C.Compiled, "bp", CEmitOptions());
  std::string M;
  M += "\n#include <stdio.h>\n#include <time.h>\n";
  M += "static unsigned long rng_state = 0x2545F491UL;\n";
  M += "static unsigned long rng(void) {\n";
  M += "  rng_state = rng_state * 6364136223846793005UL + "
       "1442695040888963407UL;\n";
  M += "  return rng_state >> 33;\n}\n";
  M += "static bp_in_t in_v[" + MS + " * " + WS + "];\n";
  M += "static bp_out_t out_v[" + MS + " * " + WS + "];\n";
  M += "static bp_state_t st_v[" + MS + "];\n";
  M += "int main(void) {\n";
  M += "  unsigned j, i;\n  unsigned long long rep;\n";
  M += "  for (j = 0; j < " + MS + "u; ++j)\n";
  M += "    for (i = 0; i < " + WS + "u; ++i) {\n";
  for (const auto &CI : C.Compiled.ClockInputs)
    M += "      in_v[j * " + WS + " + i].tick_" + sanitizeIdent(CI.Name) +
         " = rng() % 1000 < " + std::to_string(TickPermille) + "u;\n";
  for (const auto &SI : C.Compiled.Inputs) {
    std::string Id = sanitizeIdent(SI.Name);
    if (SI.Type == TypeKind::Integer)
      M += "      in_v[j * " + WS + " + i]." + Id +
           " = (long)(rng() % 100);\n";
    else if (SI.Type == TypeKind::Real)
      M += "      in_v[j * " + WS + " + i]." + Id +
           " = (double)(rng() % 1000) / 10.0;\n";
    else
      M += "      in_v[j * " + WS + " + i]." + Id + " = (int)(rng() & 1);\n";
  }
  M += "    }\n";
  M += "  for (j = 0; j < " + MS + "u; ++j)\n";
  M += "    bp_init(&st_v[j]);\n";
  M += "  clock_t t0 = clock();\n";
  M += "  for (rep = 0; rep < " + std::to_string(Reps) + "ULL; ++rep)\n";
  M += "    bp_step_fleet(st_v, in_v, out_v, " + MS + "u, " + WS + "u);\n";
  M += "  double s = (double)(clock() - t0) / CLOCKS_PER_SEC;\n";
  M += "  double n = " + std::to_string(Reps) + "ULL * " + MS + ".0 * " + WS +
       ".0;\n";
  M += "  /* counters keep the optimizer honest */\n";
  M += "  fprintf(stderr, \"executed=%llu\\n\", st_v[0].executed);\n";
  M += "  printf(\"%f\\n\", s > 0 ? n / s : 0.0);\n";
  M += "  return 0;\n}\n";
  Src += M;

  char Template[] = "/tmp/sigc-benchfleet-XXXXXX";
  char *Dir = mkdtemp(Template);
  if (!Dir)
    return 0;
  std::string D = Dir;
  std::string CPath = D + "/bench.c", Bin = D + "/bench";
  {
    std::ofstream Out(CPath);
    Out << Src;
  }
  double PerSec = 0;
  std::string Compile = hostCCompilerCommand() + " -std=c99 -O2 -o " + Bin +
                        " " + CPath + " >/dev/null 2>&1";
  if (std::system(Compile.c_str()) == 0) {
    if (FILE *P = popen((Bin + " 2>/dev/null").c_str(), "r")) {
      char Buf[128];
      if (fgets(Buf, sizeof Buf, P))
        PerSec = std::strtod(Buf, nullptr);
      pclose(P);
    }
  }
  for (const std::string &F : {CPath, Bin})
    std::remove(F.c_str());
  rmdir(D.c_str());
  return PerSec;
}

Row benchProgram(const std::string &Name, const std::string &Source,
                 unsigned Instances, unsigned TickPermille, unsigned Instants,
                 bool WithCEmit) {
  auto C = compileSource("<bench:" + Name + ">", Source);
  if (!C->Ok) {
    std::fprintf(stderr, "%s: compilation failed:\n%s", Name.c_str(),
                 C->Diags.render().c_str());
    std::exit(1);
  }
  Row R;
  R.Name = Name;
  R.TickPermille = TickPermille;
  R.MaxThreads = std::thread::hardware_concurrency();
  if (R.MaxThreads < 2)
    R.MaxThreads = 2;

  // A lane block well below the instance count, so the shard pool has
  // several blocks per thread to spread.
  const unsigned LaneBlock = 16;
  R.ScalarPerSec =
      scalarThroughput(C->Compiled, Instances, TickPermille, Instants);
  R.FleetT1PerSec = fleetThroughput(C->Compiled, Instances, TickPermille,
                                    Instants, LaneBlock, 1);
  R.FleetT4PerSec = fleetThroughput(C->Compiled, Instances, TickPermille,
                                    Instants, LaneBlock, 4);
  R.FleetTMaxPerSec = fleetThroughput(C->Compiled, Instances, TickPermille,
                                      Instants, LaneBlock, R.MaxThreads);
  if (WithCEmit)
    R.CEmitPerSec =
        cemitFleetThroughput(*C, Instances, TickPermille, Instants);
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Instants = 4096;
  unsigned Instances = 128;
  bool WithCEmit = true;
  std::string JsonPath;
  BenchArgs Args("bench_fleet", Argc, Argv);
  while (Args.next()) {
    if (Args.is("--json"))
      JsonPath = Args.value();
    else if (Args.is("--instants"))
      Instants = Args.number();
    else if (Args.is("--instances"))
      Instances = Args.number();
    else if (Args.is("--no-cemit"))
      WithCEmit = false;
    else
      Args.unknown();
  }
  if (WithCEmit && hostCCompilerCommand().empty()) {
    std::fprintf(stderr, "no host C compiler: skipping the cemit leg\n");
    WithCEmit = false;
  }

  std::printf("Fleet throughput (instance-instants/sec, %u instances x %u "
              "instants)\n\n",
              Instances, Instants);
  std::printf("%-14s %6s %12s %12s %12s %12s %12s %8s %8s\n", "program",
              "tick", "scalar", "fleet-t1", "fleet-t4", "fleet-tmax",
              "cemit", "t1/scal", "tmax/t1");

  std::vector<Row> Rows;
  auto Report = [&](const Row &R) {
    std::printf("%-14s %6u %12.0f %12.0f %12.0f %12.0f %12.0f %7.2fx "
                "%7.2fx\n",
                R.Name.c_str(), R.TickPermille, R.ScalarPerSec,
                R.FleetT1PerSec, R.FleetT4PerSec, R.FleetTMaxPerSec,
                R.CEmitPerSec,
                R.ScalarPerSec > 0 ? R.FleetT1PerSec / R.ScalarPerSec : 0,
                R.FleetT1PerSec > 0 ? R.FleetTMaxPerSec / R.FleetT1PerSec
                                    : 0);
    Rows.push_back(R);
  };

  Report(benchProgram("FIG5_ALARM", alarmFigure5Source(), Instances, 800,
                      Instants, WithCEmit));
  for (unsigned Stages : {16u, 48u})
    for (unsigned Permille : {1000u, 250u}) {
      ProgramShape Shape;
      Shape.DividerStages = Stages;
      Report(benchProgram("chain" + std::to_string(Stages),
                          generateProgram("CHAIN", Shape), Instances,
                          Permille, Instants, WithCEmit));
    }

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    Out << "{\n  \"benchmarks\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      Out << "    {\"name\": \"fleet/" << R.Name << "/tick="
          << R.TickPermille << "\", "
          << "\"instances\": " << Instances << ", "
          << "\"scalar_vm_ii_per_sec\": " << R.ScalarPerSec << ", "
          << "\"fleet_vm_t1_ii_per_sec\": " << R.FleetT1PerSec << ", "
          << "\"fleet_vm_t4_ii_per_sec\": " << R.FleetT4PerSec << ", "
          << "\"fleet_vm_tmax_ii_per_sec\": " << R.FleetTMaxPerSec << ", "
          << "\"max_threads\": " << R.MaxThreads << ", "
          << "\"cemit_fleet_ii_per_sec\": " << R.CEmitPerSec << ", "
          << "\"fleet_t1_vs_scalar\": "
          << (R.ScalarPerSec > 0 ? R.FleetT1PerSec / R.ScalarPerSec : 0)
          << ", "
          << "\"fleet_tmax_vs_t1\": "
          << (R.FleetT1PerSec > 0 ? R.FleetTMaxPerSec / R.FleetT1PerSec : 0)
          << ", "
          << "\"cemit_vs_fleet_t1\": "
          << (R.FleetT1PerSec > 0 ? R.CEmitPerSec / R.FleetT1PerSec : 0)
          << "}" << (I + 1 < Rows.size() ? "," : "") << "\n";
    }
    Out << "  ]\n}\n";
    std::printf("\nwrote %s\n", JsonPath.c_str());
  }
  return 0;
}
