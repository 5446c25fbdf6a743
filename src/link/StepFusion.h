//===--- StepFusion.h - Cross-unit CompiledStep fusion ----------*- C++-*-===//
///
/// \file
/// Fuses the units of a link into ONE CompiledStep: every unit's bytecode
/// is rebased into a shared slot space (clock, value, scratch, state and
/// constant pools concatenated/deduplicated) and interleaved along the
/// cross-process dependence order at *instruction* granularity. Channels
/// disappear into the bytecode:
///
///   * a consumer's ReadClockInput whose clock a channel binds becomes a
///     CopyClock from the producer's export clock slot,
///   * a consumer's ReadSignal of an imported signal becomes a CopyValue
///     from the producer's export value slot,
///   * a producer's WriteOutput of a channel-consumed export is dropped
///     (only external outputs reach the environment),
///   * dynamic channels (consumer derives the clock itself) get a
///     typed-zero prelude on the producer's export slot, so a mismatch
///     instant reads a type-correct zero rather than stale garbage, plus
///     an unguarded CheckClockEq of the consumer's clock against the
///     producer's at the end of the step (Aux = the channel index), so
///     every engine that runs the fused step stops on a mismatch.
///
/// Scheduling works on per-unit instruction queues: intra-unit order is
/// preserved wholesale, and the only cross-unit edges are the rewired
/// copies (consumer copy after the producer's last write of the source
/// slot). Units take turns emitting their maximal ready prefix, so a
/// feedback pair legally interleaves whenever the instruction-level
/// graph is acyclic — a true cycle is diagnosed with the channel path
/// around it. Each instruction keeps the guard path of its group in its
/// unit's StepProgram, and the interleaved stream is laid out by
/// layOutGuards, the function that lays out every unit's nested step, so
/// the fused skips are properly nested and chain-free like any other.
///
/// Rebasing and the dependence order read the operand table
/// (vmOperands): a field is rebased and ordered by the space it indexes.
///
/// Fusion reads each unit's guard-tagged StepProgram (its Code, and the
/// guard path of each instruction's group), never its optimized step:
/// alone, a unit's exports look dead or forwardable to the optimizer.
/// The fused step is optimized once, whole (optimize).
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_LINK_STEPFUSION_H
#define SIGNALC_LINK_STEPFUSION_H

#include "link/Linker.h"

namespace sigc {

/// Outcome of fusing a linked system's units.
struct FusionResult {
  bool Ok = false;
  std::string Error; ///< Cycle diagnostic (names the channel path).
  CompiledStep Fused;
  /// The fused code without skips and its groups (one per instruction,
  /// then the trailing unguarded group of clock checks), as optimize left
  /// them: Fused.Code is their nested layout (layOutGuards).
  std::vector<VmInstr> Code;
  std::vector<StepGroup> Groups;
  /// Units ordered by first fused instruction (equals the unit-level
  /// topological order whenever one exists).
  std::vector<unsigned> Order;
};

/// Fuses \p Sys's units. Requires Units, Channels (descriptor indices
/// resolved) and External{Inputs,Outputs} to be final; reads nothing
/// else of \p Sys, so calling it again on a linked system fuses it anew.
FusionResult fuseLinkedSteps(const LinkedSystem &Sys);

} // namespace sigc

#endif // SIGNALC_LINK_STEPFUSION_H
