//===--- Driver.cpp -------------------------------------------------------===//

#include "driver/Driver.h"

#include "codegen/StepCompiler.h"
#include "sema/Sema.h"

#include <chrono>

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

  // Guard-tagged step bytecode, then its nested layout — the one lowered
  // form both the VM executor and the C emitter consume.
  C->Step = compileStep(*C->Kernel, C->Clocks, *C->Forest, C->Graph,
                        C->Ctx.interner());
  C->Compiled = CompiledStep::build(C->Step);
  C->Times.StepMs = Lap();
  C->Ok = true;
  return C;
}
