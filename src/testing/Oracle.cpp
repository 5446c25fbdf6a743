//===--- Oracle.cpp -------------------------------------------------------===//

#include "testing/Oracle.h"

#include "codegen/CEmitter.h"
#include "driver/Driver.h"
#include "interp/Environment.h"
#include "interp/KernelInterp.h"
#include "interp/VmExecutor.h"
#include "io/TraceEnvironment.h"
#include "native/NativeCache.h"
#include "native/StepHash.h"
#include "testing/TraceCompare.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include <unistd.h>

using namespace sigc;

namespace {

/// Formats one failure report: header, diff, then the full source so the
/// failure reproduces from the log alone.
std::string failure(const std::string &Name, const std::string &What,
                    const std::string &Detail, const std::string &Source) {
  std::string Out = "[" + Name + "] " + What + "\n";
  if (!Detail.empty())
    Out += Detail;
  Out += "--- program ---\n" + Source;
  return Out;
}

/// The host compiler command, probed once ("" = none found).
const std::string &hostCC() {
  static const std::string CC = [] {
    for (const char *Cand : {"cc", "gcc", "clang"}) {
      std::string Probe =
          std::string("command -v ") + Cand + " >/dev/null 2>&1";
      if (std::system(Probe.c_str()) == 0)
        return std::string(Cand);
    }
    return std::string();
  }();
  return CC;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Renders a C literal for input slot \p S of type \p T that round-trips
/// exactly.
std::string cInputLiteral(VmSlot S, TypeKind T) {
  switch (T) {
  case TypeKind::Boolean:
  case TypeKind::Event:
    return S.I ? "1" : "0";
  case TypeKind::Integer:
    return std::to_string(S.I) + "L";
  case TypeKind::Real: {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", S.R);
    return Buf;
  }
  case TypeKind::Unknown:
    break;
  }
  return "0";
}

/// Builds the scripted-replay harness appended to the emitted step code:
/// every free-clock tick and input value of every instant is precomputed
/// from the same RandomEnvironment the in-process paths used (its answers
/// are pure functions of seed, name and instant) and baked into arrays.
/// Instants run through the batched entry point over input/output
/// arrays, exercising the same boundary the VM's stepN amortizes; the
/// rows of the instants it ran print, then the generated counters as one
/// trailing #counters line.
std::string buildHarness(const CompiledStep &Step, const std::string &Proc,
                         const OracleOptions &Options) {
  RandomEnvironment Env(Options.EnvSeed, Options.TickPermille);
  unsigned N = Options.Instants;

  std::string Out = "\n#include <stdio.h>\n\n";

  std::vector<unsigned char> Ticks(N);
  for (const auto &CI : Step.ClockInputs) {
    Env.clockTicks(Env.resolveClock(CI.Name), 0, N, Ticks.data());
    Out += "static const int tick_" + sanitizeIdent(CI.Name) + "_v[" +
           std::to_string(N) + "] = {";
    for (unsigned I = 0; I < N; ++I)
      Out += Ticks[I] ? "1," : "0,";
    Out += "};\n";
  }
  std::vector<VmSlot> Vals(N);
  for (const auto &SI : Step.Inputs) {
    Env.inputValues(Env.resolveInput(SI.Name, SI.Type), 0, N, Vals.data());
    const char *CType = SI.Type == TypeKind::Integer  ? "long"
                        : SI.Type == TypeKind::Real ? "double"
                                                      : "int";
    Out += std::string("static const ") + CType + " in_" +
           sanitizeIdent(SI.Name) + "_v[" + std::to_string(N) + "] = {";
    for (unsigned I = 0; I < N; ++I)
      Out += cInputLiteral(Vals[I], SI.Type) + ",";
    Out += "};\n";
  }

  Out += "\nstatic " + Proc + "_in_t in_v[" + std::to_string(N) + "];\n";
  Out += "static " + Proc + "_out_t out_v[" + std::to_string(N) + "];\n";
  Out += "\nint main(void) {\n";
  Out += "  " + Proc + "_state_t st;\n";
  Out += "  unsigned i, n;\n";
  Out += "  " + Proc + "_init(&st);\n";
  Out += "  for (i = 0; i < " + std::to_string(N) + "; ++i) {\n";
  for (const auto &CI : Step.ClockInputs) {
    std::string Id = sanitizeIdent(CI.Name);
    Out += "    in_v[i].tick_" + Id + " = tick_" + Id + "_v[i];\n";
  }
  for (const auto &SI : Step.Inputs) {
    std::string Id = sanitizeIdent(SI.Name);
    Out += "    in_v[i]." + Id + " = in_" + Id + "_v[i];\n";
  }
  Out += "  }\n";
  Out += "  n = " + Proc + "_step_batch(&st, in_v, out_v, " +
         std::to_string(N) + ");\n";
  Out += "  for (i = 0; i < n; ++i) {\n";
  for (const auto &SO : Step.Outputs) {
    std::string Id = sanitizeIdent(SO.Name);
    const char *Fmt = SO.Type == TypeKind::Integer  ? "%ld"
                      : SO.Type == TypeKind::Real ? "%.17g"
                                                    : "%d";
    Out += "    if (out_v[i]." + Id + "_present) printf(\"%u " + Id + "=" +
           Fmt + "\\n\", i, out_v[i]." + Id + ");\n";
  }
  Out += "  }\n";
  Out += "  printf(\"#counters guards=%llu executed=%llu\\n\", "
         "st.guard_tests, st.executed);\n";
  Out += "  return 0;\n}\n";
  return Out;
}

/// One classified line of a harness' stdout: a trailing "#counters
/// guards=G executed=E" line or an "INSTANT IDENT=VALUE" event line.
struct HarnessLine {
  bool IsCounters = false;
  unsigned Instant = 0;
  std::string Ident;
  std::string Val;
};

/// Classifies and splits one harness stdout line, filling the counter
/// outputs for #counters lines. \returns false with \p Error set on an
/// unparseable line.
bool splitHarnessLine(const std::string &Line, HarnessLine &Out,
                      uint64_t &CGuards, uint64_t &CExecuted,
                      std::string &Error) {
  if (Line[0] == '#') {
    unsigned long long G = 0, E = 0;
    if (std::sscanf(Line.c_str(), "#counters guards=%llu executed=%llu", &G,
                    &E) != 2) {
      Error = "unparseable harness comment line: '" + Line + "'";
      return false;
    }
    CGuards = G;
    CExecuted = E;
    Out.IsCounters = true;
    return true;
  }
  size_t Sp = Line.find(' ');
  size_t Eq = Line.find('=', Sp);
  if (Sp == std::string::npos || Eq == std::string::npos) {
    Error = "unparseable harness output line: '" + Line + "'";
    return false;
  }
  Out.IsCounters = false;
  Out.Instant =
      static_cast<unsigned>(std::strtoul(Line.c_str(), nullptr, 10));
  Out.Ident = Line.substr(Sp + 1, Eq - Sp - 1);
  Out.Val = Line.substr(Eq + 1);
  return true;
}

/// Parses one printed output value back into a Value of \p Type.
/// \returns false for unknown-typed outputs.
bool parseTypedValue(TypeKind Type, const std::string &Text, Value &V) {
  switch (Type) {
  case TypeKind::Boolean:
    V = Value::makeBool(std::strtol(Text.c_str(), nullptr, 10) != 0);
    return true;
  case TypeKind::Event:
    V = Value::makeEvent();
    return true;
  case TypeKind::Integer:
    V = Value::makeInt(std::strtoll(Text.c_str(), nullptr, 10));
    return true;
  case TypeKind::Real:
    V = Value::makeReal(std::strtod(Text.c_str(), nullptr));
    return true;
  case TypeKind::Unknown:
    break;
  }
  return false;
}

/// Parses the harness' stdout back into output events plus the generated
/// program's own guard/executed counters.
bool parseHarnessTrace(const std::string &Text, const CompiledStep &Step,
                       std::vector<OutputEvent> &Events, uint64_t &CGuards,
                       uint64_t &CExecuted, std::string &Error) {
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    HarnessLine HL;
    if (!splitHarnessLine(Line, HL, CGuards, CExecuted, Error))
      return false;
    if (HL.IsCounters)
      continue;

    const StepProgram::SignalIODesc *Desc = nullptr;
    for (const auto &SO : Step.Outputs)
      if (sanitizeIdent(SO.Name) == HL.Ident)
        Desc = &SO;
    if (!Desc) {
      Error = "harness printed unknown output '" + HL.Ident + "'";
      return false;
    }

    Value V;
    if (!parseTypedValue(Desc->Type, HL.Val, V)) {
      Error = "output '" + HL.Ident + "' has unknown type";
      return false;
    }
    Events.push_back({HL.Instant, Desc->Name, V});
  }
  return true;
}

/// The compile command of every C round-trip: the emitted code must be
/// warning-free strict C99 (CI's "every oracle-emitted C file compiles
/// -std=c99 -Wall -Werror" gate runs right here, on every oracle run).
std::string ccCommand(const std::string &Bin, const std::string &CPath,
                      const std::string &LogPath) {
  return hostCC() + " -std=c99 -Wall -Werror -O1 -o " + Bin + " " + CPath +
         " > " + LogPath + " 2>&1";
}

} // namespace

bool sigc::runCRoundTrip(const CompiledStep &Step, const std::string &ProcName,
                         const OracleOptions &Options,
                         std::vector<OutputEvent> &Events, uint64_t &CGuards,
                         uint64_t &CExecuted, std::string &Error) {
  const std::string &CC = hostCC();
  if (CC.empty()) {
    Error = "no host C compiler";
    return false;
  }

  char Template[] = "/tmp/sigc-oracle-XXXXXX";
  char *Dir = mkdtemp(Template);
  if (!Dir) {
    Error = "mkdtemp failed";
    return false;
  }
  std::string D = Dir;
  std::string CPath = D + "/prog.c", Bin = D + "/prog";
  std::string OutPath = D + "/out.txt", LogPath = D + "/cc.log";

  CEmitOptions EO;
  EO.WithDriver = false;
  std::string Proc = sanitizeIdent(ProcName);
  std::string CSource = emitC(Step, Proc, EO);
  CSource += buildHarness(Step, Proc, Options);

  bool Ok = false;
  {
    std::ofstream OutFile(CPath);
    OutFile << CSource;
  }
  if (std::system(ccCommand(Bin, CPath, LogPath).c_str()) != 0) {
    Error = "host C compilation failed:\n" + readFile(LogPath) +
            "--- emitted C ---\n" + CSource;
  } else if (std::system((Bin + " > " + OutPath + " 2>/dev/null").c_str()) !=
             0) {
    Error = "emitted program exited non-zero:\n" + readFile(OutPath);
  } else {
    Ok = parseHarnessTrace(readFile(OutPath), Step, Events, CGuards,
                           CExecuted, Error);
  }

  for (const std::string &F : {CPath, Bin, OutPath, LogPath})
    std::remove(F.c_str());
  rmdir(D.c_str());
  return Ok;
}

bool sigc::hostCCompilerAvailable() { return !hostCC().empty(); }

const std::string &sigc::hostCCompilerCommand() { return hostCC(); }

OracleReport sigc::checkDifferential(const std::string &Name,
                                     const std::string &Source,
                                     const OracleOptions &Options) {
  OracleReport R;

  auto C = compileSource("<oracle:" + Name + ">", Source);
  if (!C->Ok) {
    R.Error = failure(Name, "compilation failed during " +
                          std::string(C->failedStageName()),
                      C->Diags.render(), Source);
    return R;
  }

  // Path 1: reference fixpoint interpreter.
  RandomEnvironment EnvRef(Options.EnvSeed, Options.TickPermille);
  KernelInterp Ref(*C->Kernel, C->Clocks, *C->Forest, C->names());
  if (!Ref.run(EnvRef, Options.Instants)) {
    R.Error = failure(Name, "reference interpreter got stuck", "", Source);
    return R;
  }

  // Path 2: the step program's nested lowering on the VM (the
  // Compilation's single lowered IR), unbatched: one step() — a
  // one-instant window — per instant.
  RandomEnvironment EnvVm(Options.EnvSeed, Options.TickPermille);
  VmExecutor ExecVm(C->Compiled);
  for (unsigned I = 0; I < Options.Instants; ++I)
    ExecVm.step(EnvVm, I);
  R.GuardTestsNested = ExecVm.guardTests();
  R.ExecutedNested = ExecVm.executed();

  // Path 3: the flat lowering of the same step program on the same VM.
  RandomEnvironment EnvFlat(Options.EnvSeed, Options.TickPermille);
  CompiledStep Flat = CompiledStep::build(C->Step, GuardLowering::Flat);
  VmExecutor ExecFlat(Flat);
  ExecFlat.run(EnvFlat, Options.Instants);
  R.GuardTestsFlat = ExecFlat.guardTests();
  R.ExecutedFlat = ExecFlat.executed();

  // Path 2b: the nested VM batched — stepN windows over the bulk
  // environment exchange must reproduce the unbatched run bit for bit,
  // counters included.
  RandomEnvironment EnvVmB(Options.EnvSeed, Options.TickPermille);
  VmExecutor ExecVmB(C->Compiled);
  ExecVmB.runBatched(EnvVmB, Options.Instants,
                     Options.BatchSize ? Options.BatchSize : 1);
  if (formatEvents(EnvVmB.outputs()) != formatEvents(EnvVm.outputs())) {
    TraceDiff BD = compareTraces("step-vm", EnvVm.outputs(), "step-vm-batch",
                                 EnvVmB.outputs());
    R.Error = failure(Name, "batched VM diverges from unbatched",
                      BD.Equal ? "same events, different order\n" : BD.Report,
                      Source);
    return R;
  }
  if (ExecVmB.guardTests() != R.GuardTestsNested ||
      ExecVmB.executed() != R.ExecutedNested) {
    R.Error = failure(
        Name, "batched VM counters diverge from unbatched",
        "vm:       guards=" + std::to_string(R.GuardTestsNested) +
            " executed=" + std::to_string(R.ExecutedNested) +
            "\nvm-batch: guards=" + std::to_string(ExecVmB.guardTests()) +
            " executed=" + std::to_string(ExecVmB.executed()) + "\n",
        Source);
    return R;
  }

  // Path 2t: record -> replay through the trace format. The batched VM
  // run is mirrored into an in-memory trace; replaying that trace as the
  // environment — at a *different* batch size — must reproduce the
  // events and counters of the live run, the replayed outputs must match
  // the recorded ones, and re-recording the replay through an echo
  // writer with the same frame capacity must reproduce the original
  // recording byte for byte (the writer owns the framing, so recorded
  // bytes are independent of execution batch size).
  {
    unsigned B = Options.BatchSize ? Options.BatchSize : 1;
    // A small frame capacity forces several frames even for short runs.
    TraceSpec Spec = TraceSpec::fromStep(C->Compiled, Name, /*FrameInstants=*/8);
    MemorySink Sink;
    TraceWriter Writer(Sink, Spec);
    RandomEnvironment RndRec(Options.EnvSeed, Options.TickPermille);
    RecordingEnvironment EnvRec(RndRec, Writer);
    VmExecutor ExecRec(C->Compiled);
    ExecRec.runBatched(EnvRec, Options.Instants, B);
    if (!Writer.finish(Options.Instants)) {
      R.Error = failure(Name, "trace writer failed", "", Source);
      return R;
    }
    if (formatEvents(RndRec.outputs()) != formatEvents(EnvVm.outputs())) {
      R.Error = failure(Name, "recording wrapper perturbed the run",
                        compareTraces("step-vm", EnvVm.outputs(), "recorded",
                                      RndRec.outputs())
                            .Report,
                        Source);
      return R;
    }

    TraceInput InT(Sink.bytes());
    TraceDecoder Dec(&C->Compiled);
    if (!InT.readHeader(Dec)) {
      R.Error = failure(Name, "recorded trace does not read back",
                        Dec.error().str() + "\n", Source);
      return R;
    }
    StreamEnvironment EnvTr(Dec.spec());
    EnvTr.setVerifyOutputs(true);
    EnvTr.setCollectOutputs(true);
    MemorySink EchoSink;
    TraceWriter Echo(EchoSink, Dec.spec());
    EnvTr.setEcho(&Echo);
    VmExecutor ExecTr(C->Compiled);
    // Deliberately a different window from the recording's batches.
    unsigned At = replayTrace(InT, Dec, EnvTr, ExecTr, B + 3);
    if (!Dec.error().ok() || At != Options.Instants) {
      R.Error = failure(Name, "trace replay stopped early",
                        "replayed " + std::to_string(At) + " of " +
                            std::to_string(Options.Instants) + " instants: " +
                            Dec.error().str() + "\n",
                        Source);
      return R;
    }
    Echo.finish(At);
    if (!EnvTr.divergence().empty()) {
      R.Error = failure(Name, "replay diverges from the recorded outputs",
                        EnvTr.divergence() + "\n", Source);
      return R;
    }
    if (formatEvents(EnvTr.outputs()) != formatEvents(EnvVm.outputs())) {
      R.Error = failure(Name, "replayed events diverge from the live run",
                        compareTraces("step-vm", EnvVm.outputs(), "replay",
                                      EnvTr.outputs())
                            .Report,
                        Source);
      return R;
    }
    if (ExecTr.guardTests() != R.GuardTestsNested ||
        ExecTr.executed() != R.ExecutedNested) {
      R.Error = failure(
          Name, "replay counters diverge from the live run",
          "vm:     guards=" + std::to_string(R.GuardTestsNested) +
              " executed=" + std::to_string(R.ExecutedNested) +
              "\nreplay: guards=" + std::to_string(ExecTr.guardTests()) +
              " executed=" + std::to_string(ExecTr.executed()) + "\n",
          Source);
      return R;
    }
    if (EchoSink.bytes() != Sink.bytes()) {
      R.Error = failure(Name,
                        "re-recorded replay is not byte-identical to the "
                        "original trace",
                        "original " + std::to_string(Sink.bytes().size()) +
                            " bytes, re-recorded " +
                            std::to_string(EchoSink.bytes().size()) +
                            " bytes\n",
                        Source);
      return R;
    }
  }

  TraceDiff D = compareTraces("interp", EnvRef.outputs(), "step-flat",
                              EnvFlat.outputs());
  if (!D.Equal) {
    R.Error = failure(Name, "interpreter vs flat step divergence", D.Report,
                      Source);
    return R;
  }
  D = compareTraces("step-flat", EnvFlat.outputs(), "step-vm",
                    EnvVm.outputs());
  if (!D.Equal) {
    R.Error =
        failure(Name, "flat vs nested step divergence", D.Report, Source);
    return R;
  }
  // The counters, checked against the lowerings' structure: both execute
  // the same instructions, the flat one tests each of its skips, all at
  // depth 1, once per instant, and nesting never tests more.
  const uint64_t Guarded = Flat.guardShape().Guards;
  if (R.ExecutedFlat != R.ExecutedNested ||
      R.GuardTestsFlat != Guarded * Options.Instants ||
      R.GuardTestsNested > R.GuardTestsFlat) {
    R.Error = failure(
        Name, "guard/instruction counters break the lowering invariants",
        "flat:   guards=" + std::to_string(R.GuardTestsFlat) +
            " executed=" + std::to_string(R.ExecutedFlat) +
            " (flat skips " + std::to_string(Guarded) + " x instants " +
            std::to_string(Options.Instants) + ")" +
            "\nnested: guards=" + std::to_string(R.GuardTestsNested) +
            " executed=" + std::to_string(R.ExecutedNested) + "\n",
        Source);
    return R;
  }

  // Path 4: the emitted C, through the host compiler. Same bytecode,
  // same trace, and the generated counters must land exactly on the
  // VM's.
  if (Options.EmitCRoundTrip && hostCCompilerAvailable()) {
    const StringInterner &Names = C->names();
    std::string ProcName(Names.spelling(C->Decl->Name));
    std::vector<OutputEvent> CEvents;
    std::string Error;
    if (!runCRoundTrip(C->Compiled, ProcName, Options, CEvents,
                       R.GuardTestsC, R.ExecutedC, Error)) {
      R.Error = failure(Name, "emitted-C round-trip failed", Error, Source);
      return R;
    }
    R.CRoundTripRan = true;
    D = compareTraces("step-vm", EnvVm.outputs(), "emitted-c",
                      CEvents);
    if (!D.Equal) {
      R.Error = failure(Name, "in-process vs emitted-C divergence", D.Report,
                        Source);
      return R;
    }
    if (R.GuardTestsC != R.GuardTestsNested ||
        R.ExecutedC != R.ExecutedNested) {
      R.Error = failure(
          Name, "emitted-C guard/instruction counters diverge from the VM",
          "vm: guards=" + std::to_string(R.GuardTestsNested) +
              " executed=" + std::to_string(R.ExecutedNested) +
              "\nc:  guards=" + std::to_string(R.GuardTestsC) +
              " executed=" + std::to_string(R.ExecutedC) + "\n",
          Source);
      return R;
    }
  }

  // Path 5: the native tier's hot swap, at every batch boundary k. One
  // artifact compiled through the production cache path (emit, host cc,
  // atomic publish, dlopen), then for each k: interpret k instants,
  // attach the native step function to the VM's state block, finish
  // native. Trace and final counters must be exactly the pure VM run's —
  // the promotion is execution-invisible.
  if (Options.NativeSwap && hostCCompilerAvailable()) {
    char Template[] = "/tmp/sigc-oracle-native-XXXXXX";
    char *Dir = mkdtemp(Template);
    if (!Dir) {
      R.Error = failure(Name, "native-swap leg: mkdtemp failed", "", Source);
      return R;
    }
    NativeCache Cache(Dir);
    std::string Hash = hashCompiledStep(C->Compiled);
    std::string SwapError;
    std::unique_ptr<NativeModule> Mod =
        Cache.compileAndPublish(C->Compiled, Hash, SwapError);
    if (Mod) {
      SwapError.clear();
      unsigned Step = Options.BatchSize ? Options.BatchSize : 1;
      for (unsigned K = 0; K < Options.Instants; K += Step) {
        RandomEnvironment Env(Options.EnvSeed, Options.TickPermille);
        VmExecutor Vm(C->Compiled);
        if (K)
          Vm.stepN(Env, 0, K);
        Vm.setNative(Mod.get());
        Vm.stepN(Env, K, Options.Instants - K);
        if (formatEvents(Env.outputs()) != formatEvents(EnvVm.outputs())) {
          TraceDiff SD = compareTraces("step-vm", EnvVm.outputs(),
                                       "swap-at-" + std::to_string(K),
                                       Env.outputs());
          SwapError = "VM -> native swap at instant " + std::to_string(K) +
                      " diverges from the pure VM run\n" + SD.Report;
          break;
        }
        if (Vm.guardTests() != R.GuardTestsNested ||
            Vm.executed() != R.ExecutedNested) {
          SwapError =
              "VM -> native swap at instant " + std::to_string(K) +
              ": counters diverge from the pure VM run\n"
              "vm:     guards=" + std::to_string(R.GuardTestsNested) +
              " executed=" + std::to_string(R.ExecutedNested) +
              "\nswapped: guards=" + std::to_string(Vm.guardTests()) +
              " executed=" + std::to_string(Vm.executed()) + "\n";
          break;
        }
      }
    }
    Mod.reset(); // dlclose before the artifact is unlinked
    std::remove(Cache.soPath(Hash).c_str());
    rmdir(Dir);
    if (!SwapError.empty()) {
      R.Error = failure(Name, "native hot-swap leg failed", SwapError,
                        Source);
      return R;
    }
    R.NativeSwapRan = true;
  }

  R.Ok = true;
  return R;
}

OracleReport sigc::checkRandomDifferential(
    uint64_t Seed, const RandomProgramOptions &GenOptions,
    const OracleOptions &Options) {
  std::string Name = "random-" + std::to_string(Seed);
  std::string Source = generateRandomProgram("RAND", Seed, GenOptions);
  return checkDifferential(Name, Source, Options);
}

//===----------------------------------------------------------------------===//
// Linked-system differential oracle
//===----------------------------------------------------------------------===//

namespace {

/// Signal names of the clock class behind clock input \p ClockInputIdx of
/// \p C. (Clock slots are assigned in forest DFS order, so the slot is
/// the node's DFS position.)
std::vector<std::string> clockInputClassSignals(Compilation &C,
                                                size_t ClockInputIdx) {
  std::vector<std::string> Names;
  int Slot = C.Step.ClockInputs[ClockInputIdx].Slot;
  std::vector<ForestNodeId> Dfs = C.Forest->dfsOrder();
  if (Slot < 0 || Slot >= static_cast<int>(Dfs.size()))
    return Names;
  ClockVarId Rep = C.Forest->rep(C.Forest->node(Dfs[Slot]).Rep);
  for (ClockVarId V = 0; V < C.Clocks.numVars(); ++V) {
    if (C.Forest->rep(V) != Rep ||
        C.Clocks.varInfo(V).Kind != ClockVarKind::SignalClock)
      continue;
    Names.push_back(std::string(
        C.names().spelling(C.Kernel->Signals[C.Clocks.varInfo(V).Signal]
                               .Name)));
  }
  return Names;
}

/// Separate compilation cannot promise that an anonymous master clock
/// keeps its *name* when the composed program is compiled monolithically:
/// a consumer equation over a channel joins the producer's clock class,
/// and the class representative — whose name the step program uses for
/// the environment tick query — may change. The clock *interface*
/// correspondence is still exact, so the oracle computes it: each mono
/// free clock maps to the unique unbound linked clock whose class shares
/// a signal with it. The mono run is then driven through this renaming,
/// and traces must match bit for bit.
bool monoToLinkedClockNames(Compilation &Mono, LinkedSystem &Sys,
                            std::map<std::string, std::string> &Map,
                            std::string &Error) {
  struct LinkedClock {
    std::string Name;
    std::vector<std::string> Signals;
  };
  std::vector<LinkedClock> Unbound;
  for (const LinkedRoot &R : Sys.Roots)
    Unbound.push_back(
        {R.Name, clockInputClassSignals(*Sys.Units[R.Unit].Comp,
                                        static_cast<size_t>(R.ClockInput))});

  for (size_t K = 0; K < Mono.Step.ClockInputs.size(); ++K) {
    const std::string &MonoName = Mono.Step.ClockInputs[K].Name;
    std::vector<std::string> MonoSigs = clockInputClassSignals(Mono, K);
    const LinkedClock *Match = nullptr;
    for (const LinkedClock &LC : Unbound)
      for (const std::string &S : LC.Signals)
        for (const std::string &M : MonoSigs)
          if (S == M) {
            if (Match && Match != &LC) {
              Error = "mono clock '" + MonoName +
                      "' maps to several linked clocks ('" + Match->Name +
                      "', '" + LC.Name + "')";
              return false;
            }
            Match = &LC;
          }
    if (!Match) {
      Error = "mono clock '" + MonoName + "' maps to no linked clock";
      return false;
    }
    Map[MonoName] = Match->Name;
  }
  return true;
}

/// Environment adapter renaming clock bindings through the mono-to-linked
/// interface correspondence; everything else passes through. The renaming
/// happens once at binding time (ids map to the inner environment's ids);
/// the hot path is pure id forwarding. Outputs record locally, so the
/// adapter's trace is comparable on its own.
class RenamedClockEnvironment : public Environment {
public:
  RenamedClockEnvironment(Environment &Inner,
                          const std::map<std::string, std::string> &Map)
      : Inner(Inner), Map(Map) {}

  EnvClockId resolveClock(std::string_view Name) override {
    EnvClockId Id = Environment::resolveClock(Name);
    auto It = Map.find(std::string(Name));
    if (Id >= InnerClock.size())
      InnerClock.resize(Id + 1, InvalidEnvId);
    InnerClock[Id] =
        Inner.resolveClock(It == Map.end() ? std::string(Name) : It->second);
    return Id;
  }
  EnvInputId resolveInput(std::string_view Name, TypeKind Type) override {
    EnvInputId Id = Environment::resolveInput(Name, Type);
    if (Id >= InnerInput.size())
      InnerInput.resize(Id + 1, InvalidEnvId);
    InnerInput[Id] = Inner.resolveInput(Name, Type);
    return Id;
  }

  void clockTicks(EnvClockId Clock, unsigned Start, unsigned Count,
                  unsigned char *Out) override {
    Inner.clockTicks(InnerClock[Clock], Start, Count, Out);
  }
  void inputValues(EnvInputId Input, unsigned Start, unsigned Count,
                   VmSlot *Out) override {
    Inner.inputValues(InnerInput[Input], Start, Count, Out);
  }

private:
  Environment &Inner;
  const std::map<std::string, std::string> &Map;
  std::vector<EnvClockId> InnerClock;
  std::vector<EnvInputId> InnerInput;
};

} // namespace

OracleReport sigc::checkLinkedDifferential(
    const std::string &Name, const std::vector<LinkInput> &Processes,
    const std::string &ComposedSource, const OracleOptions &Options) {
  OracleReport R;
  std::string AllSources;
  for (const LinkInput &P : Processes)
    AllSources += P.Source;
  AllSources += "--- composed ---\n" + ComposedSource;

  // Separate compilation + link.
  LinkResult Link = compileAndLinkSources(Processes);
  if (!Link.Sys) {
    R.Error = failure(Name, "link failed", Link.Error + "\n", AllSources);
    return R;
  }
  LinkedSystem &Sys = *Link.Sys;

  // Linking must not have re-resolved any unit.
  for (size_t U = 0; U < Sys.Units.size(); ++U)
    if (Sys.ForestNodesAtLink[U] != Sys.Units[U].Iface.ForestNodes) {
      R.Error = failure(Name, "link re-resolved a unit's forest",
                        "unit " + Sys.Units[U].Name + "\n", AllSources);
      return R;
    }

  // Monolithic compilation of the textual composition.
  auto Mono = compileSource("<linked-oracle:" + Name + ">", ComposedSource);
  if (!Mono->Ok) {
    R.Error = failure(Name,
                      "monolithic compilation failed during " +
                          std::string(Mono->failedStageName()),
                      Mono->Diags.render(), AllSources);
    return R;
  }

  // The clock-interface correspondence: mono master-clock names need not
  // survive separate compilation; structure must (see the helper above).
  std::map<std::string, std::string> ClockMap;
  std::string MapError;
  if (!monoToLinkedClockNames(*Mono, Sys, ClockMap, MapError)) {
    R.Error = failure(Name, "clock-interface correspondence failed",
                      MapError + "\n", AllSources);
    return R;
  }

  // Path 1a: monolithic fixpoint interpreter (reference).
  RandomEnvironment EnvRef(Options.EnvSeed, Options.TickPermille);
  RenamedClockEnvironment EnvRefRenamed(EnvRef, ClockMap);
  KernelInterp Ref(*Mono->Kernel, Mono->Clocks, *Mono->Forest,
                   Mono->names());
  if (!Ref.run(EnvRefRenamed, Options.Instants)) {
    R.Error = failure(Name, "monolithic interpreter got stuck", "",
                      AllSources);
    return R;
  }

  // Path 1b: the monolithic step program's flat lowering on the VM (a
  // structure independent of the units' nested code).
  RandomEnvironment EnvMono(Options.EnvSeed, Options.TickPermille);
  RenamedClockEnvironment EnvMonoRenamed(EnvMono, ClockMap);
  CompiledStep MonoFlat = CompiledStep::build(Mono->Step, GuardLowering::Flat);
  VmExecutor ExecMono(MonoFlat);
  ExecMono.run(EnvMonoRenamed, Options.Instants);
  R.GuardTestsMono = ExecMono.guardTests();

  TraceDiff D = compareTraces("mono-interp", EnvRefRenamed.outputs(),
                              "mono-step", EnvMonoRenamed.outputs());
  if (!D.Equal) {
    R.Error = failure(Name, "monolithic interp vs step divergence", D.Report,
                      AllSources);
    return R;
  }

  // Path 2: the linked system, its fused step on the VM, one step() per
  // instant.
  RandomEnvironment EnvLinked(Options.EnvSeed, Options.TickPermille);
  VmExecutor Linked(Sys.Fused);
  unsigned LinkedRan = 0;
  while (LinkedRan < Options.Instants && Linked.step(EnvLinked, LinkedRan))
    ++LinkedRan;
  if (LinkedRan != Options.Instants) {
    R.Error = failure(Name, "linked execution stopped",
                      Sys.mismatchMessage(Linked.checkFailure()) + "\n",
                      AllSources);
    return R;
  }
  R.GuardTestsLinked = Linked.guardTests();

  D = compareTraces("mono-step", EnvMonoRenamed.outputs(), "linked",
                    EnvLinked.outputs());
  if (!D.Equal) {
    R.Error = failure(Name, "monolithic vs linked divergence", D.Report,
                      AllSources);
    return R;
  }

  // Path 2b: the fused step batched — stepN windows must reproduce the
  // unbatched linked run bit for bit, counters included.
  RandomEnvironment EnvLinkedB(Options.EnvSeed, Options.TickPermille);
  VmExecutor LinkedB(Sys.Fused);
  if (LinkedB.runBatched(EnvLinkedB, Options.Instants,
                         Options.BatchSize ? Options.BatchSize : 1) !=
      Options.Instants) {
    R.Error = failure(Name, "batched linked execution stopped",
                      Sys.mismatchMessage(LinkedB.checkFailure()) + "\n",
                      AllSources);
    return R;
  }
  if (formatEvents(EnvLinkedB.outputs()) != formatEvents(EnvLinked.outputs())) {
    TraceDiff BD = compareTraces("linked", EnvLinked.outputs(),
                                 "linked-batch", EnvLinkedB.outputs());
    R.Error = failure(Name, "batched linked diverges from unbatched",
                      BD.Equal ? "same events, different order\n" : BD.Report,
                      AllSources);
    return R;
  }
  if (LinkedB.guardTests() != Linked.guardTests() ||
      LinkedB.executed() != Linked.executed()) {
    R.Error = failure(
        Name, "batched linked counters diverge from unbatched",
        "linked:       guards=" + std::to_string(Linked.guardTests()) +
            " executed=" + std::to_string(Linked.executed()) +
            "\nlinked-batch: guards=" + std::to_string(LinkedB.guardTests()) +
            " executed=" + std::to_string(LinkedB.executed()) + "\n",
        AllSources);
    return R;
  }

  // Path 3: the fused step's C, through the host compiler; its generated
  // counters must land on the linked VM's.
  if (Options.EmitCRoundTrip && hostCCompilerAvailable()) {
    std::vector<OutputEvent> CEvents;
    std::string Error;
    if (!runCRoundTrip(Sys.Fused, "linked_sys", Options, CEvents,
                       R.GuardTestsC, R.ExecutedC, Error)) {
      R.Error = failure(Name, "linked-C round-trip failed", Error,
                        AllSources);
      return R;
    }
    R.CRoundTripRan = true;
    D = compareTraces("linked", EnvLinked.outputs(), "linked-c", CEvents);
    if (!D.Equal) {
      R.Error = failure(Name, "linked interp vs linked-C divergence",
                        D.Report, AllSources);
      return R;
    }
    if (R.GuardTestsC != Linked.guardTests() ||
        R.ExecutedC != Linked.executed()) {
      R.Error = failure(
          Name, "linked-C counters diverge from the linked VM",
          "linked: guards=" + std::to_string(Linked.guardTests()) +
              " executed=" + std::to_string(Linked.executed()) +
              "\nc:      guards=" + std::to_string(R.GuardTestsC) +
              " executed=" + std::to_string(R.ExecutedC) + "\n",
          AllSources);
      return R;
    }
  }

  R.Ok = true;
  return R;
}

OracleReport sigc::checkRandomPairDifferential(
    uint64_t Seed, const ProcessPairOptions &GenOptions,
    const OracleOptions &Options) {
  GeneratedPair Pair = generateProcessPair(Seed, GenOptions);
  std::vector<LinkInput> Processes = {{Pair.ProducerName, Pair.ProducerSource},
                                      {Pair.ConsumerName,
                                       Pair.ConsumerSource}};
  return checkLinkedDifferential("random-pair-" + std::to_string(Seed),
                                 Processes, Pair.ComposedSource, Options);
}
