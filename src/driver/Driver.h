//===--- Driver.h - End-to-end compilation pipeline -------------*- C++-*-===//
///
/// \file
/// The public entry point of the library: source text in, compiled
/// process out. The pipeline is the paper's (Sections 2 and 3):
///
///   parse → sema/lowering → clock extraction (Table 1) → arborescent
///   resolution (Section 3.4) → conditional dependency graph (Table 2) →
///   scheduling → step program (+ optional C emission).
///
/// A Compilation owns every intermediate artifact so callers (tests,
/// examples, benchmarks, the CLI) can inspect any stage.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_DRIVER_DRIVER_H
#define SIGNALC_DRIVER_DRIVER_H

#include "ast/Ast.h"
#include "bdd/Bdd.h"
#include "clock/ClockSystem.h"
#include "codegen/StepProgram.h"
#include "forest/ClockForest.h"
#include "interp/CompiledStep.h"
#include "graph/CondDepGraph.h"
#include "parser/Parser.h"
#include "sema/Kernel.h"
#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace sigc {

/// Compilation options.
struct CompileOptions {
  /// Resource limits for the clock calculus (default: unlimited).
  Budget Limits;
  /// Process to compile when the file declares several; empty = first.
  std::string ProcessName;
};

/// The pipeline stage a failed compilation stopped in. Kept as an enum so
/// the driver, the tests and the linker all spell stage names identically.
enum class CompileStage {
  None,          ///< No failure: the compilation completed.
  Parse,
  Select,        ///< Process selection (--process / ProcessName).
  Sema,
  ClockCalculus,
  Graph,
};

/// \returns the canonical lowercase name ("parse", "clock-calculus", ...).
const char *to_string(CompileStage Stage);

/// Execution engines selectable with `signalc --mode`.
enum class EngineMode { Vm, Nested, Flat };

/// The canonical valid-mode list ("vm, nested, flat") for diagnostics.
const char *engineModeList();

/// Parses a --mode spelling. On an unknown mode returns false and fills
/// \p Diag with a diagnostic naming every valid mode — the same shape as
/// the --process typo diagnostic, so a typo never sends the user to the
/// sources.
bool parseEngineMode(const std::string &Name, EngineMode &Mode,
                     std::string &Diag);

enum class NativeMode : uint8_t; // native/TierController.h

/// The canonical valid --native list ("off, auto, force") for diagnostics.
const char *nativeModeList();

/// Parses a --native spelling, with the parseEngineMode contract: an
/// unknown mode returns false and \p Diag names every valid one.
bool parseNativeMode(const std::string &Name, NativeMode &Mode,
                     std::string &Diag);

/// Parses the numeric operand of CLI flag \p Flag into \p Out. \p Text
/// may be null (flag given as the last argument): every failure — a
/// missing operand, a non-numeric spelling, or a value above \p Max —
/// returns false and fills \p Diag with a diagnostic naming the flag, so
/// `--batch abc` and `--seed 99999999999999999999` are exit-code-2
/// diagnoses instead of uncaught std::stoul exceptions.
bool parseCliUnsigned(const std::string &Flag, const char *Text, uint64_t Max,
                      uint64_t &Out, std::string &Diag);

/// \returns the element of \p Known nearest to \p Arg by edit distance,
/// or empty when nothing is plausibly close (distance > 1/3 of the
/// flag's length, so `--simulte` suggests `--simulate` but line noise
/// suggests nothing). Extends the --process/--mode typo idiom to the
/// driver's own flag table: an unknown top-level flag names its nearest
/// neighbour instead of sending the user to --help.
std::string suggestNearestFlag(const std::string &Arg,
                               const std::vector<std::string> &Known);

/// Wall time of each pipeline stage, in milliseconds (the `--stats` stage
/// report). A stage that did not run stays at 0.
struct CompileStageTimes {
  double ParseMs = 0;
  double SemaMs = 0;  ///< Process selection, sema and kernel lowering.
  double ClockMs = 0; ///< Clock extraction and arborescent resolution.
  double GraphMs = 0; ///< Conditional dependency graph and schedule.
  double StepMs = 0;  ///< Step program and its bytecode.
};

/// Every artifact of one compilation, stage by stage.
class Compilation {
public:
  SourceManager SM;
  DiagnosticEngine Diags{&SM};
  AstContext Ctx;

  const Program *Ast = nullptr;
  const ProcessDecl *Decl = nullptr;
  std::optional<KernelProgram> Kernel;
  ClockSystem Clocks;
  Budget ForestBudget;
  BddManager Bdds;
  std::unique_ptr<ClockForest> Forest;
  CondDepGraph Graph;
  StepProgram Step;
  /// The single lowered IR: slot-resolved bytecode built once from Step
  /// and consumed by both the VM executor and the C emitter.
  CompiledStep Compiled;

  /// True when every stage completed.
  bool Ok = false;
  /// The stage that failed; CompileStage::None when Ok.
  CompileStage FailedStage = CompileStage::None;
  /// Per-stage wall time of this compilation.
  CompileStageTimes Times;

  /// The canonical name of the failed stage ("parse", "sema", ...).
  const char *failedStageName() const { return to_string(FailedStage); }

  /// The interner used for all names.
  StringInterner &names() { return Ctx.interner(); }
};

/// Compiles \p Source (registered under \p BufferName).
/// Always returns a Compilation; check ->Ok and ->Diags.
std::unique_ptr<Compilation> compileSource(std::string BufferName,
                                           std::string Source,
                                           const CompileOptions &Options = {});

} // namespace sigc

#endif // SIGNALC_DRIVER_DRIVER_H
