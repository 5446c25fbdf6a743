//===--- Main.cpp - The signalc command-line driver -----------------------===//
///
/// \file
/// The signalc entry point: parseCli reads the flags (src/driver/Cli.h
/// declares each one and its help line); main compiles or links the
/// input and dispatches to the dumps, --emit-c, --serve, --replay,
/// --record and --simulate.
///
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "driver/Cli.h"
#include "driver/Driver.h"
#include "driver/Simulation.h"
#include "interp/VmExecutor.h"
#include "io/Server.h"
#include "io/TraceEnvironment.h"
#include "link/Linker.h"
#include "native/TierController.h"
#include "programs/Programs.h"

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace sigc;

namespace {

void printStats(const char *Mode, unsigned Instants,
                uint64_t Executed, uint64_t GuardTests) {
  std::fprintf(stderr,
               "stats: mode=%s instants=%u executed=%llu guard_tests=%llu "
               "instrs_per_instant=%.2f\n",
               Mode, Instants,
               static_cast<unsigned long long>(Executed),
               static_cast<unsigned long long>(GuardTests),
               static_cast<double>(Executed) / Instants);
}

/// The --stats vm line: how the VM decodes \p Step (instructions
/// decoded, fused clock-literal/skip pairs, instructions the optimizer
/// deleted, and the bytes of its 8-byte slots).
void printVmStats(const CompiledStep &Step) {
  VmDecodeStats V = VmExecutor(Step).decodeStats();
  std::fprintf(stderr,
               "stats: vm decoded=%u fused=%u dropped=%u slot_bytes=%zu\n",
               V.Decoded, V.Fused, V.Dropped, V.SlotBytes);
}

/// The --stats compile report: the shape of the generated guard
/// structure (Figure 9 wants few, shallow, distinct guards), the wall
/// time of each stage, the work of the clock calculus, and the vm line,
/// all of the lowering \p Step the run executes. Everything but the
/// stage times is deterministic.
void printCompileStats(const Compilation &C, const CompiledStep &Step) {
  GuardShape G = Step.guardShape();
  size_t Instrs = std::count_if(
      Step.Code.begin(), Step.Code.end(),
      [](const VmInstr &I) { return I.Op != VmOp::SkipIfAbsent; });
  std::fprintf(stderr,
               "stats: compile step_instrs=%zu guards=%u distinct_guards=%u "
               "max_guard_depth=%u\n",
               Instrs, G.Guards, G.DistinctGuards, G.MaxDepth);
  const CompileStageTimes &T = C.Times;
  std::fprintf(stderr,
               "stats: stages parse_ms=%.3f sema_ms=%.3f clock_ms=%.3f "
               "graph_ms=%.3f step_ms=%.3f\n",
               T.ParseMs, T.SemaMs, T.ClockMs, T.GraphMs, T.StepMs);
  const ForestBuildStats &F = C.Forest->stats();
  std::fprintf(stderr,
               "stats: clock inclusion_tests=%llu bdd_nodes=%llu "
               "bdd_cache_probes=%llu\n",
               static_cast<unsigned long long>(F.InclusionTests),
               static_cast<unsigned long long>(F.BddNodes),
               static_cast<unsigned long long>(C.Bdds.cacheHits() +
                                               C.Bdds.cacheMisses()));
  printVmStats(Step);
}

/// The --stats tier split: which tier executed how many instants, plus
/// the cache outcome the run observed and, when the run compiled the
/// module itself, what the compile cost.
void printTierStats(const TierController &TC) {
  TierStats S = TC.stats();
  std::fprintf(stderr,
               "stats: tier native=%s cache=%s vm_instants=%llu "
               "native_instants=%llu hash=%s%s%s\n",
               to_string(TC.mode()), S.CacheHit ? "hit" : "miss",
               static_cast<unsigned long long>(S.VmInstants),
               static_cast<unsigned long long>(S.NativeInstants),
               S.Hash.c_str(), S.Error.empty() ? "" : " error=",
               S.Error.c_str());
  if (S.Compiled)
    std::fprintf(stderr, "stats: native c_lines=%zu c_bytes=%zu cc_ms=%.3f\n",
                 S.Build.CLines, S.Build.CBytes, S.Build.CcMs);
}

/// Writes a simulation's streamed output text to stdout.
void putText(const std::string &Text) {
  std::fwrite(Text.data(), 1, Text.size(), stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  // A closed pipe (a --record target or a --serve client that went away)
  // must surface as a diagnosed write failure and an exit code, never as
  // silent death by SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  CliParse Cli = parseCli(Argc, Argv);
  if (Cli.stops()) {
    std::fputs(Cli.Message.c_str(), stderr);
    return Cli.Exit;
  }
  const CliOptions &O = Cli.Options;

  std::string Source, BufferName;
  if (!O.Builtin.empty()) {
    if (O.Builtin == "FIG5_ALARM") {
      Source = alarmFigure5Source();
    } else {
      for (const Figure13Program &P : figure13Suite())
        if (P.Name == O.Builtin)
          Source = P.Source;
    }
    if (Source.empty()) {
      std::fprintf(stderr,
                   "signalc: unknown builtin '%s' (try FIG5_ALARM, "
                   "STOPWATCH, WATCH, ALARM, CHRONO, SUPERVISOR, "
                   "PACE_MAKER, ROBOT)\n",
                   O.Builtin.c_str());
      return 2;
    }
    BufferName = "<builtin:" + O.Builtin + ">";
  } else {
    std::ifstream In(O.File);
    if (!In) {
      std::fprintf(stderr, "signalc: cannot open '%s'\n", O.File.c_str());
      return 2;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
    BufferName = O.File;
  }

  // The step every run executes and --dump-step/--emit-c print (Step,
  // below: the lowering --mode picked), the nested step the native tier
  // compiles, and the name the C and the traces use.
  // A linked system is its fused step, which runs like any process.
  std::unique_ptr<Compilation> C;
  std::unique_ptr<LinkedSystem> Linked;
  const CompiledStep *Nested = nullptr;
  std::string ProcName;
  CompiledStep FlatStep;

  if (!O.LinkList.empty()) {
    //===------------------------------------------------------------------===//
    // Link mode: separate compilation of N processes, then interface link.
    //===------------------------------------------------------------------===//
    std::vector<std::string> Procs;
    std::istringstream List(O.LinkList);
    for (std::string P; std::getline(List, P, ',');)
      if (!P.empty())
        Procs.push_back(P);
    LinkResult R = compileAndLink(BufferName, Source, Procs);
    if (!R.Sys) {
      std::fprintf(stderr, "signalc: link failed: %s\n", R.Error.c_str());
      return 1;
    }
    Linked = std::move(R.Sys);
    std::fprintf(stderr,
                 "linked %zu process(es), %zu channel(s), %zu root(s); "
                 "compile %.2f ms, link %.2f ms\n",
                 Linked->Units.size(), Linked->Channels.size(),
                 Linked->Roots.size(), R.CompileMs, R.LinkMs);
    Nested = &Linked->Fused;
    ProcName = "linked_sys";
    if (O.Stats)
      printVmStats(*Nested);

    if (O.DumpInterface)
      for (const LinkUnit &U : Linked->Units)
        std::fputs(U.Iface.dump().c_str(), stdout);
    if (O.DumpLink) {
      std::fputs(Linked->dump().c_str(), stdout);
      std::fputs("fused schedule:\n", stdout);
      std::fputs(Nested->dump().c_str(), stdout);
    }
  } else {
    CompileOptions Options;
    Options.ProcessName = O.ProcessName;
    C = compileSource(BufferName, std::move(Source), Options);

    std::string Diags = C->Diags.render();
    if (!Diags.empty())
      std::fputs(Diags.c_str(), stderr);
    if (!C->Ok) {
      std::fprintf(stderr, "signalc: compilation failed during %s\n",
                   C->failedStageName());
      return 1;
    }

    const StringInterner &Names = C->names();
    ProcName = Names.spelling(C->Decl->Name);
    // Status goes to stderr so stdout carries only the requested
    // artifacts (in particular, `--emit-c > file.c` must produce
    // compilable C).
    std::fprintf(stderr,
                 "process %s: %u signals, %u clock variables, %u clock "
                 "classes alive, %u free clock(s)\n",
                 ProcName.c_str(), C->Kernel->numSignals(),
                 C->Clocks.numVars(),
                 static_cast<unsigned>(C->Forest->dfsOrder().size()),
                 static_cast<unsigned>(C->Forest->freeClocks().size()));
    Nested = &C->Compiled;
    // The guard lowering every run executes, picked once: --mode flat is
    // Figure 9's flat code on the same VM, with the nested run's trace,
    // identical executed counts and one guard test per guarded
    // instruction. The native tier compiles only the nested lowering.
    if (O.Mode == EngineMode::Flat)
      FlatStep = CompiledStep::build(C->Step, GuardLowering::Flat);
    const CompiledStep &Picked =
        O.Mode == EngineMode::Flat ? FlatStep : *Nested;
    if (O.Stats)
      printCompileStats(*C, Picked);

    if (O.DumpKernel)
      std::printf("kernel:\n%s", C->Kernel->dump(Names).c_str());
    if (O.DumpClocks)
      std::printf("clock system:\n%s",
                  C->Clocks.dump(*C->Kernel, Names).c_str());
    if (O.DumpTree)
      std::printf("clock forest:\n%s",
                  C->Forest->dump(C->Clocks, *C->Kernel, Names).c_str());
    if (O.DumpTreeDot)
      std::fputs(C->Forest->toDot(C->Clocks, *C->Kernel, Names).c_str(),
                 stdout);
    if (O.DumpGraph)
      std::printf("schedule:\n%s",
                  C->Graph.dump(*C->Kernel, Names, *C->Forest, C->Clocks)
                      .c_str());
    if (O.DumpStep)
      std::printf("step bytecode:\n%s", Picked.dump().c_str());
    if (O.DumpInterface)
      std::fputs(extractInterface(*C).dump().c_str(), stdout);
  }
  const CompiledStep &Step = O.Mode == EngineMode::Flat ? FlatStep : *Nested;
  const char *ModeName = to_string(O.Mode);
  // Only a linked system's fused step carries clock checks; a run that a
  // failed check stopped is reported and exits 1.
  const char *RunKind = Linked ? "linked " : "";
  auto stopped = [&](const SimulationTotals &T) {
    for (const auto &[J, F] : T.Stops)
      std::fprintf(stderr, "signalc: linked simulation stopped: %s%s\n",
                   O.Fleet ? ("instance " + std::to_string(J) + ": ").c_str()
                           : "",
                   Linked->mismatchMessage(F).c_str());
    return !T.Stops.empty();
  };

  if (O.EmitC) {
    CEmitOptions EO;
    EO.WithDriver = O.WithDriver;
    std::fputs(emitC(Step, ProcName, EO).c_str(), stdout);
  }

  if (!O.Serve.SocketPath.empty()) {
    // Serving front end: each client connection is a trace-stream
    // session on its own scalar executor.
    ServeOptions SO = O.Serve;
    SO.Tier = O.Tier;
    if (O.Batch > 0)
      SO.BatchInstants = O.Batch;
    return runTraceServer(Step, ProcName, SO);
  }

  if (!O.ReplayFile.empty()) {
    // Replay: the recorded trace is the environment, mapped when it is a
    // regular file and read in chunks otherwise (a pipe). Outputs the
    // re-execution produces are verified against the recorded ones.
    TraceInput In;
    std::string OpenErr;
    if (!In.open(O.ReplayFile, OpenErr)) {
      std::fprintf(stderr, "signalc: %s\n", OpenErr.c_str());
      return 2;
    }
    TraceDecoder Dec(&Step);
    if (!In.readHeader(Dec)) {
      std::fprintf(stderr, "signalc: %s: %s\n", O.ReplayFile.c_str(),
                   Dec.error().str().c_str());
      return 2;
    }
    StreamEnvironment Env(Dec.spec());
    Env.setVerifyOutputs(true);
    VmExecutor Exec(Step);
    unsigned At = replayTrace(In, Dec, Env, Exec,
                              O.Batch > 1 ? O.Batch
                                          : Dec.spec().FrameInstants);
    if (!Dec.error().ok()) {
      std::fprintf(stderr, "signalc: %s: %s\n", O.ReplayFile.c_str(),
                   Dec.error().str().c_str());
      return 2;
    }
    if (!Env.divergence().empty()) {
      std::fprintf(stderr, "signalc: replay diverged from the trace: %s\n",
                   Env.divergence().c_str());
      return 1;
    }
    if (const ClockCheckFailure &F = Exec.checkFailure()) {
      std::fprintf(stderr, "signalc: linked simulation stopped: %s\n",
                   Linked->mismatchMessage(F).c_str());
      return 1;
    }
    std::printf("replay (%u instants, %s): %llu output(s) match the trace\n",
                At, In.streamed() ? "buffered" : "mmap",
                static_cast<unsigned long long>(Env.outputCount()));
    if (O.Stats && At)
      printStats(ModeName, At, Exec.executed(), Exec.guardTests());
    return 0;
  }

  if (!O.RecordFile.empty()) {
    // Record: a normal random simulation whose exchanged windows are
    // mirrored into a trace file (the same trace under either lowering).
    std::string OpenErr;
    int Fd = FdSink::openFile(O.RecordFile, OpenErr);
    if (Fd < 0) {
      std::fprintf(stderr, "signalc: cannot open '%s': %s\n",
                   O.RecordFile.c_str(), OpenErr.c_str());
      return 2;
    }
    FdSink Sink(Fd, /*OwnsFd=*/true);
    TraceWriter Writer(Sink,
                       TraceSpec::fromStep(Step, ProcName, O.FrameInstants));
    TextEnvironment Rnd(O.Seed);
    RecordingEnvironment Env(Rnd, Writer);
    SimulationTotals T =
        simulateFleet(Step, {&Env}, O.Simulate, O.Batch, /*Threads=*/1);
    const unsigned Ran =
        T.Stops.empty() ? O.Simulate : T.Stops[0].second.Instant + 1;
    if (!Writer.finish(Ran)) {
      // The sink latched the first failure with its byte position.
      std::fprintf(stderr, "signalc: write failed on '%s' %s\n",
                   O.RecordFile.c_str(), Sink.errorDetail().c_str());
      return 2;
    }
    std::fprintf(stderr, "recorded %u instant(s) to %s\n", Ran,
                 O.RecordFile.c_str());
    std::printf("%ssimulation (%u instants, seed %llu):\n", RunKind,
                O.Simulate, static_cast<unsigned long long>(O.Seed));
    putText(Rnd.text());
    if (stopped(T))
      return 1;
    if (O.Stats)
      printStats(ModeName, O.Simulate, T.Executed, T.GuardTests);
    return 0;
  }

  if (O.Simulate) {
    // A fleet simulation is N instances of the compiled process, each
    // with its own deterministic environment (seed S + j) and each run
    // exactly like a scalar simulation of that seed, sharded over
    // --threads workers. Traces print per instance in instance order;
    // counters are sums over the instances.
    unsigned Instances = O.Fleet ? O.Fleet : 1;
    std::vector<std::unique_ptr<TextEnvironment>> Owned;
    std::vector<Environment *> Envs;
    for (unsigned J = 0; J < Instances; ++J) {
      Owned.push_back(std::make_unique<TextEnvironment>(O.Seed + J));
      Envs.push_back(Owned.back().get());
    }
    // Tiered run: each instance starts on the VM and attaches the native
    // step at a batch boundary once the cache hit or background compile
    // is ready. Nothing is copied: the native step runs on the VM's own
    // state block and maintains the counters VM-exactly.
    std::unique_ptr<TierController> TC;
    if (O.Tier.Mode != NativeMode::Off) {
      TC = std::make_unique<TierController>(*Nested, O.Tier);
      if (!TC->start()) {
        std::fprintf(stderr, "signalc: --native force failed: %s\n",
                     TC->error().c_str());
        return 1;
      }
    }
    SimulationTotals T =
        simulateFleet(Step, Envs, O.Simulate, O.Batch, O.Threads, TC.get());
    if (TC) {
      TC->noteVmInstants(T.VmInstants);
      TC->noteNativeInstants(T.NativeInstants);
      if (O.Stats)
        printTierStats(*TC);
    }
    if (!O.Fleet) {
      std::printf("%ssimulation (%u instants, seed %llu):\n", RunKind,
                  O.Simulate, static_cast<unsigned long long>(O.Seed));
      putText(Owned[0]->text());
      if (stopped(T))
        return 1;
      if (O.Stats)
        printStats(ModeName, O.Simulate, T.Executed, T.GuardTests);
      return 0;
    }
    std::printf("%sfleet simulation (%u instances, %u instants, seed %llu, "
                "%u thread(s)):\n",
                RunKind, O.Fleet, O.Simulate,
                static_cast<unsigned long long>(O.Seed),
                fleetShards(O.Threads, O.Fleet));
    for (unsigned J = 0; J < O.Fleet; ++J) {
      std::printf("instance %u:\n", J);
      putText(Owned[J]->text());
    }
    if (stopped(T))
      return 1;
    if (O.Stats)
      printStats("fleet", O.Simulate * O.Fleet, T.Executed, T.GuardTests);
  }
  return 0;
}
