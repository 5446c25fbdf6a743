//===--- StepCompiler.h - Schedule to step-program lowering -----*- C++-*-===//
///
/// \file
/// Turns a scheduled conditional dependency graph into a StepProgram:
/// assigns clock/value/state slots and lowers each action straight to VM
/// bytecode (Func trees flattened over scratch slots, constant subtrees
/// and statically absent clock operands folded), tagged with the clock
/// path that guards it. The path follows the clock tree (the
/// if-then-else nesting of Section 3.4 "Code optimization"); CompiledStep
/// lays it out as skips.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_CODEGEN_STEPCOMPILER_H
#define SIGNALC_CODEGEN_STEPCOMPILER_H

#include "codegen/StepProgram.h"
#include "graph/CondDepGraph.h"

namespace sigc {

/// Compiles \p Graph's schedule for \p Prog into a step program.
/// Requires a successfully built forest and graph.
StepProgram compileStep(const KernelProgram &Prog, const ClockSystem &Sys,
                        ClockForest &Forest, const CondDepGraph &Graph,
                        const StringInterner &Names);

} // namespace sigc

#endif // SIGNALC_CODEGEN_STEPCOMPILER_H
