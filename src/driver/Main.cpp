//===--- Main.cpp - The signalc command-line driver -----------------------===//
///
/// \file
/// Usage:
///   signalc [options] file.sig
///   signalc --builtin NAME          compile a Figure-13 suite program
///   signalc --link P1,P2,... file.sig   separate compilation + link
///
/// Options:
///   --process NAME     pick a process when the file declares several
///   --link P1,P2,...   compile each named process separately (in
///                      parallel) and link them by clock interface
///   --dump-kernel      print the flattened kernel equations
///   --dump-clocks      print the extracted boolean equation system
///   --dump-tree        print the resolved clock forest
///   --dump-graph       print the scheduled dependency actions
///   --dump-step        print the CompiledStep bytecode (the single
///                      lowered IR both the VM and the C emitter consume)
///   --dump-interface   print the process's separate-compilation
///                      interface (every unit's, in --link mode)
///   --dump-link        print the linked-system summary (--link mode)
///   --emit-c           print generated C lowered from the bytecode; in
///                      --link mode, the composed linked system
///   --with-driver      add a main() to the generated C
///   --simulate N       run N instants with a random environment
///   --seed S           PRNG seed for --simulate
///   --batch B          run --simulate in stepN windows of B instants
///                      (vm engine; bulk environment exchange)
///   --record FILE      while simulating, record the trace (clock ticks,
///                      input values, outputs) to FILE in the binary
///                      trace format (vm engine)
///   --frame W          instants per trace frame for --record (default 64)
///   --replay FILE      re-execute the trace recorded in FILE (mmap-backed)
///                      instead of drawing from a random environment,
///                      verifying outputs against the recording
///   --replay-buffered  use buffered read(2) instead of mmap for --replay
///                      (the pipe/socket-shaped path)
///   --serve SOCK       serve trace-stream sessions over the Unix domain
///                      socket SOCK; each client session runs on its own
///                      fleet lane
///   --max-sessions N   concurrent-session capacity for --serve
///   --serve-limit K    exit after K sessions have ended (bounded serve)
///   --resume N         park up to N disconnected sessions for resume
///                      (0, the default, disables session resume)
///   --batch-budget N   global in-flight batch budget in instants; each
///                      admitted session reserves its run-ahead window
///                      against it, excess connections get a typed
///                      at-capacity reject (0 = unlimited)
///   --idle-timeout MS  tear down a session that sends no stimulus for
///                      MS milliseconds while the server waits on it
///   --write-timeout MS tear down a session whose client accepts no
///                      response bytes for MS milliseconds
///   --drain-grace MS   after SIGTERM/SIGINT, force exit if the drain
///                      has not finished within MS milliseconds
///   --sndbuf BYTES     SO_SNDBUF for accepted connections (ops knob)
///   --fleet N          run --simulate over a fleet of N instances of the
///                      process (SoA lane-block sweep; instance j draws
///                      from seed S + j)
///   --threads T        shard the fleet across T worker threads
///   --mode M           execution engine for --simulate: vm (default,
///                      the slot-resolved bytecode VM), nested or flat
///   --native M         tiered native execution: off (default), auto
///                      (cache hit runs native immediately; a miss runs
///                      the VM while a background cc compiles, then
///                      hot-swaps at a batch boundary) or force (block
///                      on the compile; fail if impossible). Applies to
///                      --simulate, --fleet and --serve.
///   --cache-dir DIR    persistent compiled-step cache directory
///                      (default: $XDG_CACHE_HOME/signalc)
///   --tier-after N     minimum interpreted instants before an auto
///                      promotion (warm-up threshold)
///   --stats            print the compile report (guard shape, per-stage
///                      wall time, clock-calculus work) to stderr and,
///                      after --simulate, per-run instruction and
///                      guard-test counters (and the per-tier instant
///                      split when --native is on)
///
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "driver/Driver.h"
#include "interp/FleetExecutor.h"
#include "interp/LinkedExecutor.h"
#include "interp/StepExecutor.h"
#include "interp/VmExecutor.h"
#include "io/Server.h"
#include "io/TraceEnvironment.h"
#include "link/LinkEmitter.h"
#include "link/Linker.h"
#include "native/NativeExecutor.h"
#include "native/TierController.h"
#include "programs/Programs.h"

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace sigc;

namespace {

void printUsage() {
  std::fprintf(stderr,
               "usage: signalc [options] file.sig\n"
               "       signalc --builtin NAME [options]\n"
               "       signalc --link P1,P2,... file.sig [options]\n"
               "options: --process NAME --dump-kernel --dump-clocks\n"
               "         --dump-tree --dump-tree-dot --dump-graph "
               "--dump-step\n"
               "         --dump-interface --dump-link\n"
               "         --emit-c --with-driver\n"
               "         --simulate N --seed S --batch B "
               "--fleet N --threads T\n"
               "         --mode vm|nested|flat --stats\n"
               "         --native off|auto|force --cache-dir DIR "
               "--tier-after N\n"
               "         --record FILE --frame W --replay FILE "
               "--replay-buffered\n"
               "         --serve SOCK --max-sessions N --serve-limit K\n"
               "         --resume N --batch-budget N --idle-timeout MS\n"
               "         --write-timeout MS --drain-grace MS --sndbuf "
               "BYTES\n");
}

void printStats(const std::string &Mode, unsigned Instants,
                uint64_t Executed, uint64_t GuardTests) {
  std::fprintf(stderr,
               "stats: mode=%s instants=%u executed=%llu guard_tests=%llu "
               "instrs_per_instant=%.2f\n",
               Mode.c_str(), Instants,
               static_cast<unsigned long long>(Executed),
               static_cast<unsigned long long>(GuardTests),
               static_cast<double>(Executed) / Instants);
}

/// The --stats compile report: the shape of the generated guard
/// structure (Figure 9 wants few, shallow, distinct guards), the wall
/// time of each stage, and the work of the clock calculus. The clock
/// counters are deterministic; only the stage times vary run to run.
void printCompileStats(const Compilation &C) {
  GuardShape G = C.Compiled.guardShape();
  std::fprintf(stderr,
               "stats: compile step_instrs=%zu guards=%u distinct_guards=%u "
               "max_guard_depth=%u\n",
               C.Step.Instrs.size(), G.Guards, G.DistinctGuards, G.MaxDepth);
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
}

const char *nativeModeName(NativeMode M) {
  switch (M) {
  case NativeMode::Off:
    return "off";
  case NativeMode::Auto:
    return "auto";
  case NativeMode::Force:
    return "force";
  }
  return "off";
}

/// The --stats tier split: which tier executed how many instants, plus
/// the cache outcome the run observed.
void printTierStats(const TierController &TC) {
  TierStats S = TC.stats();
  std::fprintf(stderr,
               "stats: tier native=%s cache=%s vm_instants=%llu "
               "native_instants=%llu hash=%s%s%s\n",
               nativeModeName(TC.mode()), S.CacheHit ? "hit" : "miss",
               static_cast<unsigned long long>(S.VmInstants),
               static_cast<unsigned long long>(S.NativeInstants),
               S.Hash.c_str(), S.Error.empty() ? "" : " error=",
               S.Error.c_str());
}

std::vector<std::string> splitCommas(const std::string &List) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : List) {
    if (C == ',') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  // A closed pipe (a --record target or a --serve client that went away)
  // must surface as a diagnosed write failure and an exit code, never as
  // silent death by SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  std::string File, Builtin, ProcessName, LinkList;
  std::string RecordFile, ReplayFile, ServeSock;
  bool DumpKernel = false, DumpClocks = false, DumpTree = false;
  bool DumpTreeDot = false;
  bool DumpGraph = false, DumpStep = false, EmitC = false;
  bool DumpInterface = false, DumpLink = false;
  bool WithDriver = false, Stats = false, ReplayBuffered = false;
  unsigned Simulate = 0, Batch = 0, Fleet = 0, FleetThreads = 1;
  unsigned FrameInstants = TraceDefaultFrameInstants;
  unsigned MaxSessions = 4, ServeLimit = 0;
  unsigned ResumeParked = 0, IdleTimeoutMs = 0, WriteTimeoutMs = 0;
  unsigned DrainGraceMs = 0, SendBufBytes = 0;
  uint64_t BatchBudget = 0;
  uint64_t Seed = 1;
  EngineMode Mode = EngineMode::Vm;
  std::string ModeName = "vm";
  TierOptions Tier;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--builtin") {
      if (const char *V = next())
        Builtin = V;
    } else if (Arg == "--process") {
      if (const char *V = next())
        ProcessName = V;
    } else if (Arg == "--link") {
      if (const char *V = next())
        LinkList = V;
    } else if (Arg == "--dump-kernel") {
      DumpKernel = true;
    } else if (Arg == "--dump-clocks") {
      DumpClocks = true;
    } else if (Arg == "--dump-tree") {
      DumpTree = true;
    } else if (Arg == "--dump-tree-dot") {
      DumpTreeDot = true;
    } else if (Arg == "--dump-graph") {
      DumpGraph = true;
    } else if (Arg == "--dump-step") {
      DumpStep = true;
    } else if (Arg == "--dump-interface") {
      DumpInterface = true;
    } else if (Arg == "--dump-link") {
      DumpLink = true;
    } else if (Arg == "--emit-c") {
      EmitC = true;
    } else if (Arg.rfind("--emit-c=", 0) == 0) {
      std::fprintf(stderr,
                   "signalc: --emit-c no longer takes a control-structure "
                   "argument; the C emitter lowers the CompiledStep "
                   "bytecode (nested structure) directly\n");
      return 2;
    } else if (Arg == "--with-driver") {
      WithDriver = true;
    } else if (Arg == "--record") {
      if (const char *V = next())
        RecordFile = V;
    } else if (Arg == "--replay") {
      if (const char *V = next())
        ReplayFile = V;
    } else if (Arg == "--replay-buffered") {
      ReplayBuffered = true;
    } else if (Arg == "--serve") {
      if (const char *V = next())
        ServeSock = V;
    } else if (Arg == "--simulate" || Arg == "--batch" || Arg == "--fleet" ||
               Arg == "--threads" || Arg == "--seed" || Arg == "--frame" ||
               Arg == "--max-sessions" || Arg == "--serve-limit" ||
               Arg == "--resume" || Arg == "--batch-budget" ||
               Arg == "--idle-timeout" || Arg == "--write-timeout" ||
               Arg == "--drain-grace" || Arg == "--sndbuf") {
      // Checked numeric parse: a missing, malformed or out-of-range
      // operand is a diagnosed exit, never an uncaught std::stoul throw
      // and never a silently dropped flag.
      bool IsU64 = Arg == "--seed" || Arg == "--batch-budget";
      uint64_t V = 0;
      std::string Diag;
      if (!parseCliUnsigned(Arg, next(), IsU64 ? UINT64_MAX : UINT32_MAX, V,
                            Diag)) {
        std::fprintf(stderr, "signalc: %s\n", Diag.c_str());
        return 2;
      }
      if ((Arg == "--frame" || Arg == "--max-sessions") &&
          (V == 0 || (Arg == "--frame" && V > 65535))) {
        std::fprintf(stderr, "signalc: value '%llu' for %s is out of range\n",
                     static_cast<unsigned long long>(V), Arg.c_str());
        return 2;
      }
      if (Arg == "--seed")
        Seed = V;
      else if (Arg == "--batch-budget")
        BatchBudget = V;
      else if (Arg == "--simulate")
        Simulate = static_cast<unsigned>(V);
      else if (Arg == "--batch")
        Batch = static_cast<unsigned>(V);
      else if (Arg == "--fleet")
        Fleet = static_cast<unsigned>(V);
      else if (Arg == "--frame")
        FrameInstants = static_cast<unsigned>(V);
      else if (Arg == "--max-sessions")
        MaxSessions = static_cast<unsigned>(V);
      else if (Arg == "--serve-limit")
        ServeLimit = static_cast<unsigned>(V);
      else if (Arg == "--resume")
        ResumeParked = static_cast<unsigned>(V);
      else if (Arg == "--idle-timeout")
        IdleTimeoutMs = static_cast<unsigned>(V);
      else if (Arg == "--write-timeout")
        WriteTimeoutMs = static_cast<unsigned>(V);
      else if (Arg == "--drain-grace")
        DrainGraceMs = static_cast<unsigned>(V);
      else if (Arg == "--sndbuf")
        SendBufBytes = static_cast<unsigned>(V);
      else
        FleetThreads = static_cast<unsigned>(V);
    } else if (Arg == "--native" || Arg.rfind("--native=", 0) == 0) {
      std::string V;
      if (Arg == "--native") {
        const char *N = next();
        V = N ? N : "";
      } else {
        V = Arg.substr(std::string("--native=").size());
      }
      std::string Diag;
      if (!parseNativeMode(V, Tier.Mode, Diag)) {
        std::fprintf(stderr, "signalc: %s\n", Diag.c_str());
        return 2;
      }
    } else if (Arg == "--cache-dir" || Arg.rfind("--cache-dir=", 0) == 0) {
      if (Arg == "--cache-dir") {
        if (const char *V = next())
          Tier.CacheDir = V;
      } else {
        Tier.CacheDir = Arg.substr(std::string("--cache-dir=").size());
      }
    } else if (Arg == "--tier-after" || Arg.rfind("--tier-after=", 0) == 0) {
      const char *Text;
      std::string Val;
      if (Arg == "--tier-after") {
        Text = next();
      } else {
        Val = Arg.substr(std::string("--tier-after=").size());
        Text = Val.c_str();
      }
      uint64_t V = 0;
      std::string Diag;
      if (!parseCliUnsigned("--tier-after", Text, UINT32_MAX, V, Diag)) {
        std::fprintf(stderr, "signalc: %s\n", Diag.c_str());
        return 2;
      }
      Tier.TierAfter = static_cast<unsigned>(V);
    } else if (Arg == "--mode") {
      if (const char *V = next())
        ModeName = V;
      std::string Diag;
      if (!parseEngineMode(ModeName, Mode, Diag)) {
        std::fprintf(stderr, "signalc: %s\n", Diag.c_str());
        return 2;
      }
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else if (!Arg.empty() && Arg[0] != '-') {
      File = Arg;
    } else {
      // The --process/--mode typo idiom, extended to the flag table
      // itself: a near-miss names its neighbour instead of sending the
      // user to --help.
      static const std::vector<std::string> KnownFlags = {
          "--builtin", "--process", "--link", "--dump-kernel",
          "--dump-clocks", "--dump-tree", "--dump-tree-dot", "--dump-graph",
          "--dump-step", "--dump-interface", "--dump-link", "--emit-c",
          "--with-driver", "--simulate", "--seed", "--batch", "--fleet",
          "--threads", "--mode", "--stats", "--record", "--frame",
          "--replay", "--replay-buffered", "--serve", "--max-sessions",
          "--serve-limit", "--resume", "--batch-budget", "--idle-timeout",
          "--write-timeout", "--drain-grace", "--sndbuf", "--native",
          "--cache-dir", "--tier-after", "--help"};
      std::string Suggest = suggestNearestFlag(Arg, KnownFlags);
      std::string Hint =
          Suggest.empty() ? "" : "; did you mean '" + Suggest + "'?";
      std::fprintf(stderr, "signalc: unknown option '%s'%s\n", Arg.c_str(),
                   Hint.c_str());
      printUsage();
      return 2;
    }
  }

  std::string Source, BufferName;
  if (!Builtin.empty()) {
    if (Builtin == "FIG5_ALARM") {
      Source = alarmFigure5Source();
    } else {
      for (const Figure13Program &P : figure13Suite())
        if (P.Name == Builtin)
          Source = P.Source;
    }
    if (Source.empty()) {
      std::fprintf(stderr,
                   "signalc: unknown builtin '%s' (try FIG5_ALARM, "
                   "STOPWATCH, WATCH, ALARM, CHRONO, SUPERVISOR, "
                   "PACE_MAKER, ROBOT)\n",
                   Builtin.c_str());
      return 2;
    }
    BufferName = "<builtin:" + Builtin + ">";
  } else if (!File.empty()) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "signalc: cannot open '%s'\n", File.c_str());
      return 2;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
    BufferName = File;
  } else {
    printUsage();
    return 2;
  }

  //===--------------------------------------------------------------------===//
  // Link mode: separate compilation of N processes, then interface link.
  //===--------------------------------------------------------------------===//
  if (!LinkList.empty()) {
    // Flags that only make sense for a single compilation are not
    // silently swallowed.
    if (DumpKernel || DumpClocks || DumpTree || DumpTreeDot || DumpGraph ||
        DumpStep || !ProcessName.empty())
      std::fprintf(stderr,
                   "signalc: warning: --process and the per-stage --dump-* "
                   "flags are ignored in --link mode (use --dump-interface "
                   "/ --dump-link)\n");
    if (Mode != EngineMode::Vm)
      std::fprintf(stderr,
                   "signalc: warning: --mode is ignored in --link mode; "
                   "the linked executor always runs the slot-VM\n");
    if (Fleet)
      std::fprintf(stderr,
                   "signalc: warning: --fleet is ignored in --link mode\n");
    if (Tier.Mode != NativeMode::Off)
      std::fprintf(stderr,
                   "signalc: warning: --native is ignored in --link mode\n");
    if (!RecordFile.empty() || !ReplayFile.empty() || !ServeSock.empty())
      std::fprintf(stderr,
                   "signalc: warning: --record/--replay/--serve are ignored "
                   "in --link mode\n");
    std::vector<std::string> Names = splitCommas(LinkList);
    LinkResult R = compileAndLink(BufferName, Source, Names);
    if (!R.Sys) {
      std::fprintf(stderr, "signalc: link failed: %s\n", R.Error.c_str());
      return 1;
    }
    LinkedSystem &Sys = *R.Sys;
    std::fprintf(stderr,
                 "linked %zu process(es), %zu channel(s), %zu root(s); "
                 "compile %.2f ms, link %.2f ms\n",
                 Sys.Units.size(), Sys.Channels.size(), Sys.Roots.size(),
                 R.CompileMs, R.LinkMs);

    if (DumpInterface)
      for (const LinkUnit &U : Sys.Units)
        std::fputs(U.Iface.dump().c_str(), stdout);
    if (DumpLink) {
      std::fputs(Sys.dump().c_str(), stdout);
      std::fputs("fused schedule:\n", stdout);
      std::fputs(Sys.Fused.dump().c_str(), stdout);
    }
    if (EmitC) {
      CEmitOptions EO;
      EO.WithDriver = WithDriver;
      std::fputs(emitLinkedC(Sys, "linked_sys", EO).c_str(), stdout);
    }
    if (Simulate) {
      RandomEnvironment Env(Seed);
      LinkedExecutor Exec(Sys);
      bool Ran = Batch > 1 ? Exec.runBatched(Env, Simulate, Batch)
                           : Exec.run(Env, Simulate);
      if (!Ran) {
        std::fprintf(stderr, "signalc: linked simulation stopped: %s\n",
                     Exec.error().c_str());
        return 1;
      }
      std::printf("linked simulation (%u instants, seed %llu):\n%s",
                  Simulate, static_cast<unsigned long long>(Seed),
                  formatEvents(Env.outputs()).c_str());
      if (Stats)
        printStats("vm", Simulate, Exec.executed(), Exec.guardTests());
    }
    return 0;
  }

  CompileOptions Options;
  Options.ProcessName = ProcessName;
  auto C = compileSource(BufferName, std::move(Source), Options);

  std::string Diags = C->Diags.render();
  if (!Diags.empty())
    std::fputs(Diags.c_str(), stderr);
  if (!C->Ok) {
    std::fprintf(stderr, "signalc: compilation failed during %s\n",
                 C->failedStageName());
    return 1;
  }

  const StringInterner &Names = C->names();
  std::string ProcName(Names.spelling(C->Decl->Name));
  // Status goes to stderr so stdout carries only the requested artifacts
  // (in particular, `--emit-c > file.c` must produce compilable C).
  std::fprintf(stderr,
               "process %s: %u signals, %u clock variables, %u clock "
               "classes alive, %u free clock(s)\n",
               ProcName.c_str(), C->Kernel->numSignals(),
               C->Clocks.numVars(),
               static_cast<unsigned>(C->Forest->dfsOrder().size()),
               static_cast<unsigned>(C->Forest->freeClocks().size()));
  if (Stats)
    printCompileStats(*C);

  if (DumpKernel)
    std::printf("kernel:\n%s", C->Kernel->dump(Names).c_str());
  if (DumpClocks)
    std::printf("clock system:\n%s",
                C->Clocks.dump(*C->Kernel, Names).c_str());
  if (DumpTree)
    std::printf("clock forest:\n%s",
                C->Forest->dump(C->Clocks, *C->Kernel, Names).c_str());
  if (DumpTreeDot)
    std::fputs(C->Forest->toDot(C->Clocks, *C->Kernel, Names).c_str(),
               stdout);
  if (DumpGraph)
    std::printf("schedule:\n%s",
                C->Graph.dump(*C->Kernel, Names, *C->Forest,
                              C->Clocks)
                    .c_str());
  if (DumpStep)
    std::printf("step bytecode:\n%s", C->Compiled.dump().c_str());
  if (DumpInterface)
    std::fputs(extractInterface(*C).dump().c_str(), stdout);

  if (EmitC) {
    CEmitOptions EO;
    EO.WithDriver = WithDriver;
    std::string CSource = emitC(C->Compiled, ProcName, EO);
    std::fputs(CSource.c_str(), stdout);
  }

  if (!ServeSock.empty()) {
    // Serving front end: each client connection is a trace-stream
    // session on its own fleet lane.
    ServeOptions SO;
    SO.SocketPath = ServeSock;
    SO.MaxSessions = MaxSessions;
    if (Batch > 0)
      SO.BatchInstants = Batch;
    SO.SessionLimit = ServeLimit;
    SO.MaxParkedSessions = ResumeParked;
    SO.BatchBudgetInstants = BatchBudget;
    SO.IdleTimeoutMs = IdleTimeoutMs;
    SO.WriteTimeoutMs = WriteTimeoutMs;
    SO.DrainGraceMs = DrainGraceMs;
    SO.SendBufBytes = SendBufBytes;
    SO.Tier = Tier;
    return runTraceServer(C->Compiled, ProcName, SO);
  }

  if (!ReplayFile.empty()) {
    // Replay: the recorded trace is the environment. Outputs the
    // re-execution produces are verified against the recorded ones.
    if (Tier.Mode != NativeMode::Off)
      std::fprintf(stderr, "signalc: warning: --native is ignored for "
                           "--replay (verification runs the vm)\n");
    std::unique_ptr<TraceSource> Src;
    std::string OpenErr;
    if (ReplayBuffered) {
      int Fd = FdTraceSource::openFile(ReplayFile, OpenErr);
      if (Fd < 0) {
        std::fprintf(stderr, "signalc: %s\n", OpenErr.c_str());
        return 2;
      }
      Src = std::make_unique<FdTraceSource>(Fd, /*OwnsFd=*/true);
    } else {
      auto M = std::make_unique<MmapTraceSource>();
      if (!M->open(ReplayFile, OpenErr)) {
        std::fprintf(stderr, "signalc: %s\n", OpenErr.c_str());
        return 2;
      }
      Src = std::move(M);
    }
    TraceReader Reader(*Src);
    if (!Reader.readHeader() || !Reader.matchesStep(C->Compiled)) {
      std::fprintf(stderr, "signalc: %s: %s\n", ReplayFile.c_str(),
                   Reader.error().str().c_str());
      return 2;
    }
    TraceEnvironment Env(Reader);
    Env.setVerifyOutputs(true);
    VmExecutor Exec(C->Compiled);
    unsigned Window = Batch > 1 ? Batch : Reader.spec().FrameInstants;
    unsigned At = 0;
    for (;;) {
      unsigned N = Env.prepare(At, Window);
      if (N == 0)
        break;
      Exec.stepN(Env, At, N);
      At += N;
    }
    if (Env.failed()) {
      std::fprintf(stderr, "signalc: %s: %s\n", ReplayFile.c_str(),
                   Env.error().str().c_str());
      return 2;
    }
    if (!Env.divergence().empty()) {
      std::fprintf(stderr, "signalc: replay diverged from the trace: %s\n",
                   Env.divergence().c_str());
      return 1;
    }
    std::printf("replay (%u instants, %s): %llu output(s) match the trace\n",
                At, ReplayBuffered ? "buffered" : "mmap",
                static_cast<unsigned long long>(Env.outputCount()));
    if (Stats && At)
      printStats("vm", At, Exec.executed(), Exec.guardTests());
    return 0;
  }

  if (Simulate && !RecordFile.empty() && !Fleet) {
    // Record: a normal random simulation whose exchanged windows are
    // mirrored into a trace file. Always the batched VM — recording
    // frames flush as bulk windows complete.
    if (Mode != EngineMode::Vm)
      std::fprintf(stderr, "signalc: warning: --record always runs the "
                           "batched vm engine; --mode ignored\n");
    if (Tier.Mode != NativeMode::Off)
      std::fprintf(stderr, "signalc: warning: --native is ignored while "
                           "recording (the recorder runs the vm)\n");
    std::string OpenErr;
    int Fd = FdSink::openFile(RecordFile, OpenErr);
    if (Fd < 0) {
      std::fprintf(stderr, "signalc: cannot open '%s': %s\n",
                   RecordFile.c_str(), OpenErr.c_str());
      return 2;
    }
    FdSink Sink(Fd, /*OwnsFd=*/true);
    TraceWriter Writer(Sink,
                       TraceSpec::fromStep(C->Compiled, ProcName,
                                           FrameInstants));
    RandomEnvironment Rnd(Seed);
    RecordingEnvironment Env(Rnd, Writer);
    VmExecutor Exec(C->Compiled);
    if (Batch > 1)
      Exec.runBatched(Env, Simulate, Batch);
    else
      Exec.run(Env, Simulate);
    if (!Writer.finish(Simulate)) {
      // The sink latched the first failure with its byte position.
      std::fprintf(stderr, "signalc: write failed on '%s' %s\n",
                   RecordFile.c_str(), Sink.errorDetail().c_str());
      return 2;
    }
    std::fprintf(stderr, "recorded %u instant(s) to %s\n", Simulate,
                 RecordFile.c_str());
    std::printf("simulation (%u instants, seed %llu):\n%s", Simulate,
                static_cast<unsigned long long>(Seed),
                formatEvents(Rnd.outputs()).c_str());
    if (Stats)
      printStats("vm", Simulate, Exec.executed(), Exec.guardTests());
    return 0;
  }
  if (!RecordFile.empty())
    std::fprintf(stderr, "signalc: warning: --record needs --simulate N "
                         "(and no --fleet); nothing recorded\n");

  if (Simulate && Fleet) {
    // Fleet simulation: N instances of the compiled process, each with
    // its own deterministic environment (seed S + j), swept in SoA
    // lane blocks and sharded over --threads workers. Traces print per
    // instance in instance order; counters are fleet-wide sums.
    if (Mode != EngineMode::Vm)
      std::fprintf(stderr, "signalc: warning: --fleet always runs the "
                           "slot-VM fleet engine; --mode ignored\n");
    std::vector<std::unique_ptr<RandomEnvironment>> Owned;
    std::vector<Environment *> Envs;
    for (unsigned J = 0; J < Fleet; ++J) {
      Owned.push_back(std::make_unique<RandomEnvironment>(Seed + J));
      Envs.push_back(Owned.back().get());
    }
    FleetExecutor::Config Cfg;
    Cfg.Threads = FleetThreads;
    FleetExecutor Exec(C->Compiled, Fleet, Cfg);
    if (Tier.Mode == NativeMode::Off) {
      if (Batch > 1)
        Exec.runBatched(Envs, Simulate, Batch);
      else
        Exec.run(Envs, Simulate);
    } else {
      // Tiered fleet: poll the controller at window boundaries and swap
      // the whole sweep onto the native _step_fleet entry when ready.
      TierController TC(C->Compiled, Tier);
      if (!TC.start()) {
        std::fprintf(stderr, "signalc: --native force failed: %s\n",
                     TC.error().c_str());
        return 1;
      }
      unsigned Window = Batch > 1 ? Batch : 8;
      for (unsigned At = 0; At < Simulate;) {
        if (!Exec.nativeActive() && TC.shouldPromote(At))
          Exec.setNative(TC.module());
        unsigned N = std::min(Window, Simulate - At);
        Exec.stepN(Envs, At, N);
        if (Exec.nativeActive())
          TC.noteNativeInstants(N);
        else
          TC.noteVmInstants(N);
        At += N;
      }
      if (Stats)
        printTierStats(TC);
    }
    std::printf("fleet simulation (%u instances, %u instants, seed %llu, "
                "%u thread(s)):\n",
                Fleet, Simulate, static_cast<unsigned long long>(Seed),
                Exec.threads());
    for (unsigned J = 0; J < Fleet; ++J)
      std::printf("instance %u:\n%s", J,
                  formatEvents(Owned[J]->outputs()).c_str());
    if (Stats)
      printStats("fleet", Simulate * Fleet, Exec.executed(),
                 Exec.guardTests());
    return 0;
  }

  if (Simulate) {
    if (Batch > 1 && Mode != EngineMode::Vm)
      std::fprintf(stderr, "signalc: warning: --batch needs the vm engine; "
                           "running unbatched\n");
    if (Tier.Mode != NativeMode::Off && Mode != EngineMode::Vm)
      std::fprintf(stderr, "signalc: warning: --native needs the vm engine; "
                           "running interpreted\n");
    RandomEnvironment Env(Seed);
    uint64_t Executed = 0, GuardTests = 0;
    if (Mode == EngineMode::Vm && Tier.Mode != NativeMode::Off) {
      // Tiered scalar run: the VM carries the session until the cache
      // hit / background compile is ready, then the session hot-swaps
      // onto the native step at a batch boundary (a pure state copy —
      // the emitted C maintains the counters VM-exactly).
      TierController TC(C->Compiled, Tier);
      if (!TC.start()) {
        std::fprintf(stderr, "signalc: --native force failed: %s\n",
                     TC.error().c_str());
        return 1;
      }
      VmExecutor Vm(C->Compiled);
      std::unique_ptr<NativeExecutor> NX;
      unsigned Window = Batch > 1 ? Batch : 8;
      for (unsigned At = 0; At < Simulate;) {
        if (!NX && TC.shouldPromote(At)) {
          NX = std::make_unique<NativeExecutor>(C->Compiled, *TC.module());
          NX->importState(Vm.stateSlots(), Vm.guardTests(), Vm.executed());
        }
        unsigned N = std::min(Window, Simulate - At);
        if (NX) {
          NX->stepN(Env, At, N);
          TC.noteNativeInstants(N);
        } else {
          Vm.stepN(Env, At, N);
          TC.noteVmInstants(N);
        }
        At += N;
      }
      Executed = NX ? NX->executed() : Vm.executed();
      GuardTests = NX ? NX->guardTests() : Vm.guardTests();
      if (Stats)
        printTierStats(TC);
    } else if (Mode == EngineMode::Vm) {
      VmExecutor Exec(C->Compiled);
      if (Batch > 1)
        Exec.runBatched(Env, Simulate, Batch);
      else
        Exec.run(Env, Simulate);
      Executed = Exec.executed();
      GuardTests = Exec.guardTests();
    } else {
      StepExecutor Exec(*C->Kernel, C->Step);
      Exec.run(Env, Simulate,
               Mode == EngineMode::Flat ? ExecMode::Flat : ExecMode::Nested);
      Executed = Exec.executed();
      GuardTests = Exec.guardTests();
    }
    std::printf("simulation (%u instants, seed %llu):\n%s", Simulate,
                static_cast<unsigned long long>(Seed),
                formatEvents(Env.outputs()).c_str());
    if (Stats)
      printStats(ModeName, Simulate, Executed, GuardTests);
  }
  return 0;
}
