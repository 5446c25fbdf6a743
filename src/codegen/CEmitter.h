//===--- CEmitter.h - Sequential C code generation --------------*- C++-*-===//
///
/// \file
/// Renders a CompiledStep — the slot-resolved bytecode that is this
/// compiler's single lowered IR — as a self-contained C source file
/// implementing the single-loop code generation scheme of Section 2.6.
/// The emitter walks the same instruction stream the VM executes, so the
/// two backends cannot drift:
///
///   * every `SkipIfAbsent` becomes a structured `if` over the guard's
///     clock local (layOutGuards nests the skip offsets properly, so the
///     stream reconstructs as pure if-nesting — code a of Figure 9 for
///     the nested lowering, code b for the flat one),
///   * each value or scratch slot the code touches becomes one C local
///     of its SlotType, and a ToReal a `(double)` cast (integer
///     arithmetic is emitted with the VM's two's-complement wrapping
///     semantics, orderings with its compare-through-double semantics),
///   * constants the build-time folds produced are inlined as literals,
///     and constant divisors fold their zero/minus-one guards away,
///   * descriptor indices are pre-resolved, so struct field references
///     are computed at emission time with no run-time table scans.
///
/// The generated state struct carries `guard_tests`/`executed` counters
/// maintained exactly as the VM maintains its own (one guard test per
/// `if`, executed instructions summed per straight-line region), so a C
/// run is pinned number-for-number against a VM run of the same trace.
///
/// Contract of the generated code: the caller fills the input struct with
/// the free-clock ticks and the value of every input signal it may need
/// this instant; the step reads an input value only when the corresponding
/// clock is present, and sets <name>_present flags on outputs. It returns
/// 0, or, when a clock check (a linked system's dynamic channel check)
/// fails, the check's nonzero ClockCheckFailure::code, having completed
/// the instant up to the check. A `<proc>_step_batch` entry point runs N
/// instants over input/output arrays in one call — the C mirror of
/// `VmExecutor::stepN` — and returns the instants it ran, stopping after
/// a failed check. The `--with-driver` main() reports a failed check's
/// instant on stderr and exits 1.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_CODEGEN_CEMITTER_H
#define SIGNALC_CODEGEN_CEMITTER_H

#include "interp/CompiledStep.h"

#include <string>

namespace sigc {

/// Options for C emission.
struct CEmitOptions {
  bool WithDriver = false;///< Also emit a main() exercising the step with a
                          ///< deterministic pseudo-random environment.
  unsigned DriverSteps = 32;
};

/// Emits C for \p Step. \p ProcName names the generated symbols.
std::string emitC(const CompiledStep &Step, const std::string &ProcName,
                  const CEmitOptions &Options);

/// Makes an arbitrary string a valid C identifier fragment.
std::string sanitizeIdent(const std::string &Name);

/// The member of the emitted slot union (`union { long i; double d; }`,
/// the C twin of VmSlot) that holds a value of kind \p K: reals in `d`,
/// everything else (booleans and events as 0/1) in `i`.
inline const char *slotMember(TypeKind K) {
  return K == TypeKind::Real ? "d" : "i";
}

} // namespace sigc

#endif // SIGNALC_CODEGEN_CEMITTER_H
