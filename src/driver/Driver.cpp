//===--- Driver.cpp -------------------------------------------------------===//

#include "driver/Driver.h"

#include "codegen/StepCompiler.h"
#include "native/TierController.h"
#include "sema/Sema.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>

using namespace sigc;

const char *sigc::to_string(CompileStage Stage) {
  switch (Stage) {
  case CompileStage::None:
    return "none";
  case CompileStage::Parse:
    return "parse";
  case CompileStage::Select:
    return "select";
  case CompileStage::Sema:
    return "sema";
  case CompileStage::ClockCalculus:
    return "clock-calculus";
  case CompileStage::Graph:
    return "graph";
  }
  return "none";
}

const char *sigc::engineModeList() { return "vm, nested, flat"; }

bool sigc::parseEngineMode(const std::string &Name, EngineMode &Mode,
                           std::string &Diag) {
  if (Name == "vm") {
    Mode = EngineMode::Vm;
  } else if (Name == "nested") {
    Mode = EngineMode::Nested;
  } else if (Name == "flat") {
    Mode = EngineMode::Flat;
  } else {
    Diag = "unknown --mode '" + Name +
           "'; valid modes: " + engineModeList();
    return false;
  }
  return true;
}

const char *sigc::nativeModeList() { return "off, auto, force"; }

bool sigc::parseNativeMode(const std::string &Name, NativeMode &Mode,
                           std::string &Diag) {
  if (Name == "off") {
    Mode = NativeMode::Off;
  } else if (Name == "auto") {
    Mode = NativeMode::Auto;
  } else if (Name == "force") {
    Mode = NativeMode::Force;
  } else {
    Diag = "unknown --native '" + Name +
           "'; valid modes: " + nativeModeList();
    return false;
  }
  return true;
}

bool sigc::parseCliUnsigned(const std::string &Flag, const char *Text,
                            uint64_t Max, uint64_t &Out, std::string &Diag) {
  if (!Text) {
    Diag = "missing value for " + Flag;
    return false;
  }
  std::string S(Text);
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos) {
    Diag = "invalid value '" + S + "' for " + Flag +
           ": expected an unsigned integer";
    return false;
  }
  // All-digits input can still overflow; strtoull saturates and sets
  // errno, so both the 2^64 overflow and the caller's own ceiling become
  // the same out-of-range diagnostic.
  errno = 0;
  uint64_t V = std::strtoull(S.c_str(), nullptr, 10);
  if (errno == ERANGE || V > Max) {
    Diag = "value '" + S + "' for " + Flag + " is out of range (max " +
           std::to_string(Max) + ")";
    return false;
  }
  Out = V;
  return true;
}

namespace {

/// Bounded Levenshtein distance (insert/delete/substitute, unit cost).
unsigned editDistance(const std::string &A, const std::string &B) {
  std::vector<unsigned> Row(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Row[J] = static_cast<unsigned>(J);
  for (size_t I = 1; I <= A.size(); ++I) {
    unsigned Diag = Row[0];
    Row[0] = static_cast<unsigned>(I);
    for (size_t J = 1; J <= B.size(); ++J) {
      unsigned Sub = Diag + (A[I - 1] != B[J - 1]);
      Diag = Row[J];
      Row[J] = std::min({Row[J] + 1, Row[J - 1] + 1, Sub});
    }
  }
  return Row[B.size()];
}

} // namespace

std::string sigc::suggestNearestFlag(const std::string &Arg,
                                     const std::vector<std::string> &Known) {
  std::string Best;
  unsigned BestDist = ~0u;
  for (const std::string &K : Known) {
    unsigned D = editDistance(Arg, K);
    if (D < BestDist) {
      BestDist = D;
      Best = K;
    }
  }
  // A suggestion is only useful when the typo is plausibly the flag:
  // within a third of its length (and never for wildly short inputs).
  if (Best.empty() || BestDist > std::max<size_t>(1, Best.size() / 3))
    return std::string();
  return Best;
}

std::unique_ptr<Compilation> sigc::compileSource(std::string BufferName,
                                                 std::string Source,
                                                 const CompileOptions &Options) {
  auto C = std::make_unique<Compilation>();
  // Lap() returns the milliseconds since the previous lap (or since here).
  using Clock = std::chrono::steady_clock;
  Clock::time_point LapStart = Clock::now();
  auto Lap = [&LapStart] {
    Clock::time_point Now = Clock::now();
    double Ms = std::chrono::duration<double, std::milli>(Now - LapStart)
                    .count();
    LapStart = Now;
    return Ms;
  };
  SourceLoc Start = C->SM.addBuffer(BufferName, Source);
  std::string_view Text = C->SM.bufferText(Start);

  // Parse.
  Parser P(Text, Start, C->Ctx, C->Diags);
  C->Ast = P.parseProgram();
  C->Times.ParseMs = Lap();
  if (!C->Ast || C->Diags.hasErrors()) {
    C->FailedStage = CompileStage::Parse;
    return C;
  }

  // Select the process.
  if (Options.ProcessName.empty()) {
    C->Decl = C->Ast->Processes.front();
  } else {
    Symbol Name = C->Ctx.interner().lookup(Options.ProcessName);
    C->Decl = Name.isValid() ? C->Ast->findProcess(Name) : nullptr;
    if (!C->Decl) {
      std::string Declared;
      for (const ProcessDecl *D : C->Ast->Processes) {
        if (!Declared.empty())
          Declared += ", ";
        Declared += C->Ctx.interner().spelling(D->Name);
      }
      C->Diags.error("no process named '" + Options.ProcessName +
                     "' in this file; declared processes: " + Declared);
      C->FailedStage = CompileStage::Select;
      return C;
    }
  }

  // Sema + kernel lowering.
  Sema S(C->Ctx, C->Diags);
  C->Kernel = S.analyze(*C->Decl);
  C->Times.SemaMs = Lap();
  if (!C->Kernel || C->Diags.hasErrors()) {
    C->FailedStage = CompileStage::Sema;
    return C;
  }

  // Clock calculus.
  C->Clocks = extractClockSystem(*C->Kernel);
  C->ForestBudget = Options.Limits;
  C->ForestBudget.start();
  C->Bdds.setBudget(&C->ForestBudget);
  C->Forest = std::make_unique<ClockForest>(C->Bdds);
  bool ForestOk =
      C->Forest->build(C->Clocks, *C->Kernel, C->Ctx.interner(), C->Diags);
  C->Times.ClockMs = Lap();
  if (!ForestOk) {
    C->FailedStage = CompileStage::ClockCalculus;
    return C;
  }

  // Dependency graph + schedule.
  bool GraphOk = C->Graph.build(*C->Kernel, C->Clocks, *C->Forest,
                                C->Ctx.interner(), C->Diags);
  C->Times.GraphMs = Lap();
  if (!GraphOk) {
    C->FailedStage = CompileStage::Graph;
    return C;
  }

  // Step program, then the slot-resolved bytecode — the one lowered form
  // both the VM executor and the C emitter consume.
  C->Step = compileStep(*C->Kernel, C->Clocks, *C->Forest, C->Graph,
                        C->Ctx.interner());
  C->Compiled = CompiledStep::build(*C->Kernel, C->Step);
  C->Times.StepMs = Lap();
  C->Ok = true;
  return C;
}
