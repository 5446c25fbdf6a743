//===--- bench_pipeline.cpp - Per-phase compile cost on the suite ---------===//
///
/// Breaks the end-to-end compilation of each Figure-13 program into its
/// phases (parse+sema, clock extraction, arborescent resolution, graph +
/// schedule, step emission) and reports wall time and sizes per phase.
/// The paper's claim that the tree method makes "fast compilation of
/// commonly encountered systems" practical shows up here as resolution
/// staying a small fraction of total compile time even at 1300 variables.
///
//===----------------------------------------------------------------------===//

#include "codegen/StepCompiler.h"
#include "driver/Driver.h"
#include "parser/Parser.h"
#include "programs/Programs.h"
#include "sema/Sema.h"

#include <chrono>
#include <cstdio>

using namespace sigc;

namespace {

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

int main() {
  std::printf("Per-phase compilation cost (ms) on the Figure-13 suite\n\n");
  std::printf("%-11s %6s %9s %9s %9s %9s %9s %8s %8s\n", "program", "vars",
              "frontend", "extract", "forest", "graph", "step", "nodes",
              "instrs");

  for (const Figure13Program &P : figure13Suite()) {
    auto T0 = std::chrono::steady_clock::now();

    SourceManager SM;
    DiagnosticEngine Diags(&SM);
    AstContext Ctx;
    SourceLoc Start = SM.addBuffer(P.Name, P.Source);
    Parser Psr(SM.bufferText(Start), Start, Ctx, Diags);
    Program *Ast = Psr.parseProgram();
    if (!Ast) {
      std::printf("%-11s parse error\n", P.Name.c_str());
      continue;
    }
    Sema S(Ctx, Diags);
    auto Kernel = S.analyze(*Ast->Processes.front());
    if (!Kernel) {
      std::printf("%-11s sema error\n", P.Name.c_str());
      continue;
    }
    double FrontendMs = msSince(T0);

    T0 = std::chrono::steady_clock::now();
    ClockSystem Sys = extractClockSystem(*Kernel);
    double ExtractMs = msSince(T0);

    T0 = std::chrono::steady_clock::now();
    BddManager Mgr;
    ClockForest Forest(Mgr);
    if (!Forest.build(Sys, *Kernel, Ctx.interner(), Diags)) {
      std::printf("%-11s clock calculus failed\n", P.Name.c_str());
      continue;
    }
    double ForestMs = msSince(T0);

    T0 = std::chrono::steady_clock::now();
    CondDepGraph Graph;
    if (!Graph.build(*Kernel, Sys, Forest, Ctx.interner(), Diags)) {
      std::printf("%-11s graph failed\n", P.Name.c_str());
      continue;
    }
    double GraphMs = msSince(T0);

    T0 = std::chrono::steady_clock::now();
    StepProgram Step = compileStep(*Kernel, Sys, Forest, Graph,
                                   Ctx.interner());
    double StepMs = msSince(T0);

    std::printf("%-11s %6u %9.2f %9.2f %9.2f %9.2f %9.2f %8llu %8zu\n",
                P.Name.c_str(), Sys.numVars(), FrontendMs, ExtractMs,
                ForestMs, GraphMs, StepMs,
                static_cast<unsigned long long>(Mgr.numNodes()),
                Step.Groups.size());
  }
  return 0;
}
