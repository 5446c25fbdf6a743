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
///                      parallel) and link them by clock interface; the
///                      fused system then runs like one process named
///                      linked_sys (not with --mode flat or --serve)
///   --dump-kernel      print the flattened kernel equations
///   --dump-clocks      print the extracted boolean equation system
///   --dump-tree        print the resolved clock forest
///   --dump-graph       print the scheduled dependency actions
///   --dump-step        print the CompiledStep bytecode in the lowering
///                      --mode picks (the single lowered IR both the VM
///                      and the C emitter consume)
///   --dump-interface   print the process's separate-compilation
///                      interface (every unit's, in --link mode)
///   --dump-link        print the linked-system summary (--link mode)
///   --emit-c           print generated C lowered from that bytecode (under
///                      --mode flat, code b of Figure 9); in --link
///                      mode, the fused linked system's
///   --with-driver      add a main() to the generated C
///   --simulate N       run N instants with a random environment
///   --seed S           PRNG seed for --simulate
///   --batch B          run --simulate in stepN windows of B instants
///                      (default 8; the bulk environment exchange);
///                      the output does not depend on it
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
///                      scalar executor
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
///                      process (instance j is the scalar run of seed
///                      S + j)
///   --threads T        shard the fleet's instances across T threads
///   --mode M           guard lowering the VM runs for --simulate,
///                      --record, --replay and --serve, and that --stats,
///                      --dump-step and --emit-c describe: vm (default;
///                      guards nested along the clock tree) or flat
///                      (every instruction tests its own guard, code b
///                      of Figure 9; not with --native)
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
///                      wall time, clock-calculus work, VM decode
///                      coverage and slot-file size) to stderr and,
///                      after --simulate, per-run instruction and
///                      guard-test counters (and the per-tier instant
///                      split when --native is on, plus the size of the
///                      emitted C and the host cc time on a cache miss)
///
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "driver/Driver.h"
#include "driver/Simulation.h"
#include "interp/VmExecutor.h"
#include "io/Server.h"
#include "io/TraceEnvironment.h"
#include "link/Linker.h"
#include "native/TierController.h"
#include "programs/Programs.h"

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
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
               "         --mode vm|flat --stats\n"
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

/// The --stats vm line: how the VM decodes \p Step (instructions
/// decoded, fused clock-literal/skip pairs, and the bytes of its 8-byte
/// slots).
void printVmStats(const CompiledStep &Step) {
  VmDecodeStats V = VmExecutor(Step).decodeStats();
  std::fprintf(stderr, "stats: vm decoded=%u fused=%u slot_bytes=%zu\n",
               V.Decoded, V.Fused, V.SlotBytes);
}

/// The --stats compile report: the shape of the generated guard
/// structure (Figure 9 wants few, shallow, distinct guards), the wall
/// time of each stage, the work of the clock calculus, and the vm line,
/// all of the lowering \p Step the run executes. Everything but the
/// stage times is deterministic.
void printCompileStats(const Compilation &C, const CompiledStep &Step) {
  GuardShape G = Step.guardShape();
  std::fprintf(stderr,
               "stats: compile step_instrs=%zu guards=%u distinct_guards=%u "
               "max_guard_depth=%u\n",
               C.Step.Groups.size(), G.Guards, G.DistinctGuards, G.MaxDepth);
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
/// the cache outcome the run observed and, when the run compiled the
/// module itself, what the compile cost.
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
  if (S.Compiled)
    std::fprintf(stderr, "stats: native c_lines=%zu c_bytes=%zu cc_ms=%.3f\n",
                 S.Build.CLines, S.Build.CBytes, S.Build.CcMs);
}

/// Writes a simulation's streamed output text to stdout.
void putText(const std::string &Text) {
  std::fwrite(Text.data(), 1, Text.size(), stdout);
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

  // The flags that take a string operand, and where it goes.
  const std::pair<const char *, std::string *> StringFlags[] = {
      {"--builtin", &Builtin},   {"--process", &ProcessName},
      {"--link", &LinkList},     {"--record", &RecordFile},
      {"--replay", &ReplayFile}, {"--serve", &ServeSock},
      {"--mode", &ModeName},     {"--cache-dir", &Tier.CacheDir}};

  // Every flag given, by name (a --flag=value form counts as --flag).
  std::set<std::string> Given;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) == 0)
      Given.insert(Arg.substr(0, Arg.find('=')));
    auto next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    std::string *StringOperand = nullptr;
    for (const auto &[Flag, Dest] : StringFlags)
      if (Arg == Flag)
        StringOperand = Dest;
    if (StringOperand) {
      // A missing operand is diagnosed, like parseCliUnsigned's; so is a
      // flag in its place (a file named like one can be given as ./--x).
      const char *V = next();
      if (!V || std::string(V).rfind("--", 0) == 0) {
        std::fprintf(stderr, "signalc: missing value for %s\n", Arg.c_str());
        return 2;
      }
      *StringOperand = V;
      std::string Diag;
      if (Arg == "--mode" && !parseEngineMode(ModeName, Mode, Diag)) {
        std::fprintf(stderr, "signalc: %s\n", Diag.c_str());
        return 2;
      }
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
                   "argument; it prints the lowering --mode picks\n");
      return 2;
    } else if (Arg == "--with-driver") {
      WithDriver = true;
    } else if (Arg == "--replay-buffered") {
      ReplayBuffered = true;
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
      else if (Arg == "--frame") {
        FrameInstants = static_cast<unsigned>(V);
      } else if (Arg == "--max-sessions")
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
    } else if (Arg.rfind("--cache-dir=", 0) == 0) {
      Tier.CacheDir = Arg.substr(std::string("--cache-dir=").size());
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

  // A flag that only qualifies another one is an error without it, not
  // silently ignored.
  const std::pair<const char *, const char *> Qualifiers[] = {
      {"--with-driver", "--emit-c"},   {"--frame", "--record"},
      {"--replay-buffered", "--replay"}, {"--tier-after", "--native"},
      {"--cache-dir", "--native"},     {"--threads", "--fleet"},
      {"--max-sessions", "--serve"},   {"--serve-limit", "--serve"},
      {"--resume", "--serve"},         {"--batch-budget", "--serve"},
      {"--idle-timeout", "--serve"},   {"--write-timeout", "--serve"},
      {"--drain-grace", "--serve"},    {"--sndbuf", "--serve"}};
  for (const auto &[Flag, Needs] : Qualifiers)
    if (Given.count(Flag) && !Given.count(Needs)) {
      std::fprintf(stderr, "signalc: %s requires %s\n", Flag, Needs);
      return 2;
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

  // The step every run executes and --dump-step/--emit-c print (Step,
  // below: the lowering --mode picked), the nested step the native tier
  // compiles, and the name the C and the traces use.
  // A linked system is its fused step, which runs like any process.
  std::unique_ptr<Compilation> C;
  std::unique_ptr<LinkedSystem> Linked;
  const CompiledStep *Nested = nullptr;
  std::string ProcName;
  CompiledStep FlatStep;

  if (!LinkList.empty()) {
    //===------------------------------------------------------------------===//
    // Link mode: separate compilation of N processes, then interface link.
    //===------------------------------------------------------------------===//
    // The fused step exists only in the nested lowering, and the serve
    // protocol has no frame for a failed channel check.
    if (Mode != EngineMode::Vm) {
      std::fprintf(stderr,
                   "signalc: --mode %s cannot run a linked system (the "
                   "fused step is nested code only)\n",
                   ModeName.c_str());
      return 2;
    }
    if (!ServeSock.empty()) {
      std::fprintf(stderr, "signalc: --serve cannot serve a linked system\n");
      return 2;
    }
    // Flags that only make sense for a single compilation are not
    // silently swallowed.
    if (DumpKernel || DumpClocks || DumpTree || DumpTreeDot || DumpGraph ||
        DumpStep || !ProcessName.empty())
      std::fprintf(stderr,
                   "signalc: warning: --process and the per-stage --dump-* "
                   "flags are ignored in --link mode (use --dump-interface "
                   "/ --dump-link)\n");
    LinkResult R = compileAndLink(BufferName, Source, splitCommas(LinkList));
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
    if (Stats)
      printVmStats(*Nested);

    if (DumpInterface)
      for (const LinkUnit &U : Linked->Units)
        std::fputs(U.Iface.dump().c_str(), stdout);
    if (DumpLink) {
      std::fputs(Linked->dump().c_str(), stdout);
      std::fputs("fused schedule:\n", stdout);
      std::fputs(Nested->dump().c_str(), stdout);
    }
  } else {
    CompileOptions Options;
    Options.ProcessName = ProcessName;
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
    if (Mode == EngineMode::Flat) {
      FlatStep = CompiledStep::build(C->Step, GuardLowering::Flat);
      if (Tier.Mode != NativeMode::Off) {
        std::fprintf(stderr, "signalc: warning: --native needs the vm "
                             "engine; running interpreted\n");
        Tier.Mode = NativeMode::Off;
      }
    }
    const CompiledStep &Picked = Mode == EngineMode::Flat ? FlatStep : *Nested;
    if (Stats)
      printCompileStats(*C, Picked);

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
                  C->Graph.dump(*C->Kernel, Names, *C->Forest, C->Clocks)
                      .c_str());
    if (DumpStep)
      std::printf("step bytecode:\n%s", Picked.dump().c_str());
    if (DumpInterface)
      std::fputs(extractInterface(*C).dump().c_str(), stdout);
  }
  const CompiledStep &Step = Mode == EngineMode::Flat ? FlatStep : *Nested;
  // Only a linked system's fused step carries clock checks; a run that a
  // failed check stopped is reported and exits 1.
  const char *RunKind = Linked ? "linked " : "";
  auto stopped = [&](const SimulationTotals &T) {
    for (const auto &[J, F] : T.Stops)
      std::fprintf(stderr, "signalc: linked simulation stopped: %s%s\n",
                   Fleet ? ("instance " + std::to_string(J) + ": ").c_str()
                         : "",
                   Linked->mismatchMessage(F).c_str());
    return !T.Stops.empty();
  };

  if (EmitC) {
    CEmitOptions EO;
    EO.WithDriver = WithDriver;
    std::fputs(emitC(Step, ProcName, EO).c_str(), stdout);
  }

  if (!ServeSock.empty()) {
    // Serving front end: each client connection is a trace-stream
    // session on its own scalar executor.
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
    return runTraceServer(Step, ProcName, SO);
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
    if (!Reader.readHeader() || !Reader.matchesStep(Step)) {
      std::fprintf(stderr, "signalc: %s: %s\n", ReplayFile.c_str(),
                   Reader.error().str().c_str());
      return 2;
    }
    TraceEnvironment Env(Reader);
    Env.setVerifyOutputs(true);
    VmExecutor Exec(Step);
    unsigned Window = Batch > 1 ? Batch : Reader.spec().FrameInstants;
    unsigned At = 0;
    for (;;) {
      unsigned N = Env.prepare(At, Window);
      if (N == 0)
        break;
      At += Exec.stepN(Env, At, N);
      if (Exec.checkFailure())
        break;
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
    if (const ClockCheckFailure &F = Exec.checkFailure()) {
      std::fprintf(stderr, "signalc: linked simulation stopped: %s\n",
                   Linked->mismatchMessage(F).c_str());
      return 1;
    }
    std::printf("replay (%u instants, %s): %llu output(s) match the trace\n",
                At, ReplayBuffered ? "buffered" : "mmap",
                static_cast<unsigned long long>(Env.outputCount()));
    if (Stats && At)
      printStats(ModeName, At, Exec.executed(), Exec.guardTests());
    return 0;
  }

  if (Simulate && !RecordFile.empty() && !Fleet) {
    // Record: a normal random simulation whose exchanged windows are
    // mirrored into a trace file (the same trace under either lowering).
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
                       TraceSpec::fromStep(Step, ProcName, FrameInstants));
    TextEnvironment Rnd(Seed);
    RecordingEnvironment Env(Rnd, Writer);
    SimulationTotals T =
        simulateFleet(Step, {&Env}, Simulate, Batch, /*Threads=*/1);
    const unsigned Ran =
        T.Stops.empty() ? Simulate : T.Stops[0].second.Instant + 1;
    if (!Writer.finish(Ran)) {
      // The sink latched the first failure with its byte position.
      std::fprintf(stderr, "signalc: write failed on '%s' %s\n",
                   RecordFile.c_str(), Sink.errorDetail().c_str());
      return 2;
    }
    std::fprintf(stderr, "recorded %u instant(s) to %s\n", Ran,
                 RecordFile.c_str());
    std::printf("%ssimulation (%u instants, seed %llu):\n", RunKind,
                Simulate, static_cast<unsigned long long>(Seed));
    putText(Rnd.text());
    if (stopped(T))
      return 1;
    if (Stats)
      printStats(ModeName, Simulate, T.Executed, T.GuardTests);
    return 0;
  }
  if (!RecordFile.empty())
    std::fprintf(stderr, "signalc: warning: --record needs --simulate N "
                         "(and no --fleet); nothing recorded\n");

  if (Simulate) {
    // A fleet simulation is N instances of the compiled process, each
    // with its own deterministic environment (seed S + j) and each run
    // exactly like a scalar simulation of that seed, sharded over
    // --threads workers. Traces print per instance in instance order;
    // counters are sums over the instances.
    unsigned Instances = Fleet ? Fleet : 1;
    unsigned Threads = Fleet && FleetThreads ? FleetThreads : 1;
    std::vector<std::unique_ptr<TextEnvironment>> Owned;
    std::vector<Environment *> Envs;
    for (unsigned J = 0; J < Instances; ++J) {
      Owned.push_back(std::make_unique<TextEnvironment>(Seed + J));
      Envs.push_back(Owned.back().get());
    }
    // Tiered run: each instance starts on the VM and attaches the native
    // step at a batch boundary once the cache hit or background compile
    // is ready. Nothing is copied: the native step runs on the VM's own
    // state block and maintains the counters VM-exactly.
    std::unique_ptr<TierController> TC;
    if (Tier.Mode != NativeMode::Off) {
      TC = std::make_unique<TierController>(*Nested, Tier);
      if (!TC->start()) {
        std::fprintf(stderr, "signalc: --native force failed: %s\n",
                     TC->error().c_str());
        return 1;
      }
    }
    SimulationTotals T =
        simulateFleet(Step, Envs, Simulate, Batch, Threads, TC.get());
    if (TC) {
      TC->noteVmInstants(T.VmInstants);
      TC->noteNativeInstants(T.NativeInstants);
      if (Stats)
        printTierStats(*TC);
    }
    if (!Fleet) {
      std::printf("%ssimulation (%u instants, seed %llu):\n", RunKind,
                  Simulate, static_cast<unsigned long long>(Seed));
      putText(Owned[0]->text());
      if (stopped(T))
        return 1;
      if (Stats)
        printStats(ModeName, Simulate, T.Executed, T.GuardTests);
      return 0;
    }
    std::printf("%sfleet simulation (%u instances, %u instants, seed %llu, "
                "%u thread(s)):\n",
                RunKind, Fleet, Simulate,
                static_cast<unsigned long long>(Seed), Threads);
    for (unsigned J = 0; J < Fleet; ++J) {
      std::printf("instance %u:\n", J);
      putText(Owned[J]->text());
    }
    if (stopped(T))
      return 1;
    if (Stats)
      printStats("fleet", Simulate * Fleet, T.Executed, T.GuardTests);
  }
  return 0;
}
