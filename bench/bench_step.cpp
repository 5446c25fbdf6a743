//===--- bench_step.cpp - Execution-engine throughput ---------------------===//
///
/// Measures interpreter throughput (instants per second) of the
/// execution engine over identical random traces:
///
///   * flat     — VmExecutor over the flat lowering of the step: every
///                instruction tests its own guard (code b of Figure 9),
///   * vm       — VmExecutor over the nested lowering, the slot-resolved
///                CompiledStep bytecode every backend runs (pre-resolved
///                descriptor indices, three-address expression bytecode
///                over scratch slots, skip-offset block linearization;
///                zero per-instant heap allocation), through run(): the
///                unbatched path, stepN windows of UnbatchedWindow (8)
///                instants,
///   * vm-batch — the same VM through stepN windows of --batch instants:
///                the virtual environment boundary is crossed once per
///                descriptor per window, so wider windows cross it less,
///   * cemit    — the C emitted from the same bytecode, compiled by the
///                host C compiler and timed in a subprocess (the paper's
///                actual artifact; skipped when no compiler is found).
///
/// Workloads: the Figure-13 builtin suite and deep divider chains at
/// dense and sparse root activity (the deeper and sparser, the more the
/// clock hierarchy pays — the paper's Figure-9 effect; the denser, the
/// more the allocation-free expression engine pays).
///
/// Usage: bench_step [--json FILE] [--json-cemit FILE] [--instants K]
///        [--batch B] [--no-builtins] [--no-cemit]
/// CI uploads the JSON outputs as BENCH_interp.json and BENCH_cemit.json.
///
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "codegen/CEmitter.h"
#include "driver/Driver.h"
#include "interp/VmExecutor.h"
#include "programs/Programs.h"
#include "testing/Oracle.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace sigc;

namespace {

/// Random environment that drops outputs: throughput runs measure the
/// engines, not trace recording, and stay allocation-free end to end.
/// The flushed slot rows drop unread, so they cost no conversion either.
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
  double FlatPerSec = 0, VmPerSec = 0, VmBatchPerSec = 0;
  double CEmitPerSec = 0; ///< 0 when the cemit leg did not run.
  double GuardsFlat = 0, GuardsVm = 0;
  double InstrsVm = 0;
};

template <typename Run>
double throughput(VmExecutor &E, unsigned TickPermille, unsigned Instants,
                  Run RunFn) {
  // Warm up and time the same environment instance, so the one-time
  // binding resolution stays outside the measured window. Random
  // answers are pure functions of (seed, name, instant): re-running
  // instants 0..N-1 after reset() replays the identical trace.
  DiscardEnvironment Env(42, TickPermille);
  RunFn(E, Env, Instants / 8 + 1); // Bind + warm caches.
  E.reset();
  E.resetCounters();
  auto T0 = std::chrono::steady_clock::now();
  RunFn(E, Env, Instants);
  double S = secondsSince(T0);
  return S > 0 ? Instants / S : 0;
}

/// The host compiler command, probed once by the oracle subsystem.
const std::string &hostCC() { return hostCCompilerCommand(); }

/// Emits the program's C, appends a self-timing main (a cyclic window of
/// pre-generated inputs pushed through <proc>_step_batch), compiles it
/// with the host cc and runs it; \returns instants/sec, 0 on any failure.
double cemitThroughput(const Compilation &C, unsigned TickPermille,
                       unsigned Instants) {
  if (hostCC().empty())
    return 0;

  const unsigned Window = 256;
  // Enough work for clock() to resolve; the emitted code runs tens of
  // millions of instants per second.
  unsigned long long Total = static_cast<unsigned long long>(Instants) * 8;
  if (Total < (1ull << 21))
    Total = 1ull << 21;
  unsigned long long Reps = Total / Window;

  std::string Src = emitC(C.Compiled, "bp", CEmitOptions());
  std::string M;
  M += "\n#include <stdio.h>\n#include <time.h>\n";
  M += "static unsigned long rng_state = 0x2545F491UL;\n";
  M += "static unsigned long rng(void) {\n";
  M += "  rng_state = rng_state * 6364136223846793005UL + "
       "1442695040888963407UL;\n";
  M += "  return rng_state >> 33;\n}\n";
  M += "static bp_in_t in_v[256]; static bp_out_t out_v[256];\n";
  M += "int main(void) {\n";
  M += "  bp_state_t st;\n  unsigned i;\n  unsigned long long rep;\n";
  M += "  bp_init(&st);\n";
  M += "  for (i = 0; i < 256u; ++i) {\n";
  for (const auto &CI : C.Compiled.ClockInputs)
    M += "    in_v[i].tick_" + sanitizeIdent(CI.Name) + " = rng() % 1000 < " +
         std::to_string(TickPermille) + "u;\n";
  for (const auto &SI : C.Compiled.Inputs) {
    std::string Id = sanitizeIdent(SI.Name);
    if (SI.Type == TypeKind::Integer)
      M += "    in_v[i]." + Id + " = (long)(rng() % 100);\n";
    else if (SI.Type == TypeKind::Real)
      M += "    in_v[i]." + Id + " = (double)(rng() % 1000) / 10.0;\n";
    else
      M += "    in_v[i]." + Id + " = (int)(rng() & 1);\n";
  }
  M += "  }\n";
  M += "  clock_t t0 = clock();\n";
  M += "  for (rep = 0; rep < " + std::to_string(Reps) + "ULL; ++rep)\n";
  M += "    bp_step_batch(&st, in_v, out_v, 256u);\n";
  M += "  double s = (double)(clock() - t0) / CLOCKS_PER_SEC;\n";
  M += "  double n = " + std::to_string(Reps) + "ULL * 256.0;\n";
  M += "  /* counters keep the optimizer honest */\n";
  M += "  fprintf(stderr, \"executed=%llu\\n\", st.executed);\n";
  M += "  printf(\"%f\\n\", s > 0 ? n / s : 0.0);\n";
  M += "  return 0;\n}\n";
  Src += M;

  char Template[] = "/tmp/sigc-bench-XXXXXX";
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
  std::string Compile = hostCC() + " -std=c99 -O2 -o " + Bin + " " + CPath +
                        " >/dev/null 2>&1";
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
                 unsigned TickPermille, unsigned Instants, unsigned Batch,
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

  {
    CompiledStep Flat = CompiledStep::build(C->Step, GuardLowering::Flat);
    VmExecutor Exec(Flat);
    R.FlatPerSec = throughput(Exec, TickPermille, Instants,
                              [](VmExecutor &E, Environment &Env,
                                 unsigned N) { E.run(Env, N); });
    R.GuardsFlat = static_cast<double>(Exec.guardTests()) / Instants;
  }
  {
    VmExecutor Exec(C->Compiled);
    R.VmPerSec = throughput(Exec, TickPermille, Instants,
                            [](VmExecutor &E, Environment &Env, unsigned N) {
                              E.run(Env, N);
                            });
    R.GuardsVm = static_cast<double>(Exec.guardTests()) / Instants;
    R.InstrsVm = static_cast<double>(Exec.executed()) / Instants;
  }
  {
    VmExecutor Exec(C->Compiled);
    R.VmBatchPerSec =
        throughput(Exec, TickPermille, Instants,
                   [Batch](VmExecutor &E, Environment &Env, unsigned N) {
                     E.runBatched(Env, N, Batch);
                   });
  }
  if (WithCEmit)
    R.CEmitPerSec = cemitThroughput(*C, TickPermille, Instants);
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Instants = 20000;
  unsigned Batch = 64;
  bool Builtins = true, WithCEmit = true;
  std::string JsonPath, JsonCemitPath;
  BenchArgs Args("bench_step", Argc, Argv);
  while (Args.next()) {
    if (Args.is("--json"))
      JsonPath = Args.value();
    else if (Args.is("--json-cemit"))
      JsonCemitPath = Args.value();
    else if (Args.is("--instants"))
      Instants = Args.number();
    else if (Args.is("--batch"))
      Batch = Args.number();
    else if (Args.is("--no-builtins"))
      Builtins = false;
    else if (Args.is("--no-cemit"))
      WithCEmit = false;
    else
      Args.unknown();
  }
  if (WithCEmit && hostCC().empty()) {
    std::fprintf(stderr, "no host C compiler: skipping the cemit leg\n");
    WithCEmit = false;
  }

  std::printf("Execution-engine throughput (instants/sec, %u instants, "
              "batch %u)\n\n",
              Instants, Batch);
  std::printf("%-14s %6s %11s %11s %11s %12s %8s %8s\n", "program",
              "tick", "flat", "vm", "vm-batch", "cemit", "vm/flat",
              "cemit/vm");

  std::vector<Row> Rows;
  auto Report = [&](const Row &R) {
    std::printf("%-14s %6u %11.0f %11.0f %11.0f %12.0f %7.2fx %7.2fx\n",
                R.Name.c_str(), R.TickPermille, R.FlatPerSec, R.VmPerSec,
                R.VmBatchPerSec, R.CEmitPerSec,
                R.FlatPerSec > 0 ? R.VmPerSec / R.FlatPerSec : 0,
                R.VmPerSec > 0 ? R.CEmitPerSec / R.VmPerSec : 0);
    Rows.push_back(R);
  };

  if (Builtins)
    for (const Figure13Program &P : figure13Suite())
      Report(benchProgram(P.Name, P.Source, 800, Instants, Batch, WithCEmit));

  // Deep divider chains: the paper's deep partition hierarchies, at
  // dense and sparse root activity.
  for (unsigned Stages : {16u, 48u, 96u})
    for (unsigned Permille : {1000u, 250u}) {
      ProgramShape Shape;
      Shape.DividerStages = Stages;
      Report(benchProgram("chain" + std::to_string(Stages),
                          generateProgram("CHAIN", Shape), Permille, Instants,
                          Batch, WithCEmit));
    }

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    Out << "{\n  \"benchmarks\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      Out << "    {\"name\": \"step/" << R.Name << "/tick=" << R.TickPermille
          << "\", "
          << "\"flat_steps_per_sec\": " << R.FlatPerSec << ", "
          << "\"vm_steps_per_sec\": " << R.VmPerSec << ", "
          << "\"vm_batch_steps_per_sec\": " << R.VmBatchPerSec << ", "
          << "\"vm_vs_flat\": "
          << (R.FlatPerSec > 0 ? R.VmPerSec / R.FlatPerSec : 0) << ", "
          << "\"vm_batch_vs_vm\": "
          << (R.VmPerSec > 0 ? R.VmBatchPerSec / R.VmPerSec : 0) << ", "
          << "\"guards_per_instant_flat\": " << R.GuardsFlat << ", "
          << "\"guards_per_instant_vm\": " << R.GuardsVm << ", "
          << "\"instrs_per_instant_vm\": " << R.InstrsVm << "}"
          << (I + 1 < Rows.size() ? "," : "") << "\n";
    }
    Out << "  ]\n}\n";
    std::printf("\nwrote %s\n", JsonPath.c_str());
  }

  if (!JsonCemitPath.empty()) {
    std::ofstream Out(JsonCemitPath);
    Out << "{\n  \"benchmarks\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      Out << "    {\"name\": \"cemit/" << R.Name << "/tick="
          << R.TickPermille << "\", "
          << "\"cemit_steps_per_sec\": " << R.CEmitPerSec << ", "
          << "\"vm_steps_per_sec\": " << R.VmPerSec << ", "
          << "\"vm_batch_steps_per_sec\": " << R.VmBatchPerSec << ", "
          << "\"cemit_vs_vm\": "
          << (R.VmPerSec > 0 ? R.CEmitPerSec / R.VmPerSec : 0) << "}"
          << (I + 1 < Rows.size() ? "," : "") << "\n";
    }
    Out << "  ]\n}\n";
    std::printf("wrote %s\n", JsonCemitPath.c_str());
  }
  return 0;
}
