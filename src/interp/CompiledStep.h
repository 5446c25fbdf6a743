//===--- CompiledStep.h - Slot-resolved step bytecode -----------*- C++-*-===//
///
/// \file
/// The execution-ready form of a StepProgram, built once per compilation
/// and designed so the per-instant loop does *no* work the paper's
/// generated code would not do (Section 4, Figure 9). The step compiler
/// already resolved descriptor indices, flattened Func trees into
/// three-address bytecode over scratch slots (constant subtrees folded)
/// and folded statically absent clock operands; what build adds is the
/// control structure. Its guard-tagged groups are laid out into one
/// instruction stream with skip-offsets: an absent clock advances the PC
/// past the code it guards in O(1).
///
/// layOutGuards is the one function that places a SkipIfAbsent. It
/// follows one of Figure 9's two control structures (GuardLowering):
///   * nested (code a, the default): groups share the skips of their
///     common clock-path prefix, and a skip whose only content is another
///     skip is dropped (the chain collapse), so each block tests its
///     clock once; instructions inside run unguarded,
///   * flat (code b): the groups in schedule order, each guarded one
///     under its own SkipIfAbsent.
/// A linked system's fused step (StepFusion) is laid out nested by the
/// same function. Every instruction that runs counts once in
/// VmExecutor's Executed counter, except skips and clock checks, and both
/// lowerings hold the same instructions, so Executed is the same under
/// both and GuardTests measures the difference: per instant, flat tests
/// every guarded group once, nested one guard per block it enters. The
/// oracle checks both counts, and that nested never tests more.
///
/// Types are static: each value and scratch slot holds its SlotType
/// entry, each constant and delay memory its Value's kind, for the whole
/// run. The C emitter types its locals by SlotType, and VmExecutor
/// decodes each instruction into a handler specialized by its operand
/// types and lays its 8-byte untagged slots out without tags.
///
/// One optimizer pass, optimize, runs on the skip-free groups before
/// their layout: build runs it ahead of either lowering, and StepFusion
/// on the fused groups of the units' StepPrograms. It deletes clock and
/// value definitions nothing reads and forwards single-definition copies
/// and delay loads into their readers. A group whose code all died gets
/// no skip, so the VM, the C emitter, StepHash and native code all get
/// the smaller step and count only what it runs.
///
/// A delay memory is a value operand: operand NumValueSlots +
/// NumTempSlots + k (valueEnd() + k) names delay memory k, which the VM's
/// single slot file and the emitted state struct both hold. A delay's
/// load and store are plain copies out of and into it, so forwarding a
/// load leaves its readers reading the memory itself.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_INTERP_COMPILEDSTEP_H
#define SIGNALC_INTERP_COMPILEDSTEP_H

#include "codegen/StepProgram.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sigc {

/// A failed CheckClockEq: the instant it failed in, its Aux, and which
/// side's clock was the present one.
struct ClockCheckFailure {
  unsigned Instant = 0;
  int32_t Check = -1;    ///< The op's Aux; -1 when no check failed.
  bool APresent = false; ///< clock[A] was present, clock[B] absent.

  explicit operator bool() const { return Check >= 0; }

  /// The code a step reports a failure of check \p Check with when
  /// \p APresent: 0 means no failure, +(Check + 1) a present A and
  /// -(Check + 1) a present B. The VM and the emitted `<proc>_step`
  /// share it.
  static int32_t code(int32_t Check, bool APresent) {
    return APresent ? Check + 1 : -(Check + 1);
  }
  /// The failure reported by the nonzero \p Code at \p Instant.
  static ClockCheckFailure fromCode(int32_t Code, unsigned Instant) {
    ClockCheckFailure F;
    F.Instant = Instant;
    F.APresent = Code > 0;
    F.Check = (Code > 0 ? Code : -Code) - 1;
    return F;
  }
};

/// Shape of a step's guard structure (the --stats compile report).
struct GuardShape {
  unsigned Guards = 0;         ///< SkipIfAbsent instructions.
  unsigned DistinctGuards = 0; ///< Distinct clock slots they test.
  unsigned MaxDepth = 0;       ///< Deepest SkipIfAbsent nesting.
};

/// Where a lowering puts the guards (Figure 9; see the file comment).
enum class GuardLowering : uint8_t {
  Nested, ///< One skip per block of the clock tree.
  Flat,   ///< One skip per guarded group.
};

/// Lays out \p Code, partitioned by \p Groups, with the SkipIfAbsent
/// guards of lowering \p L; an empty group gets none. The result's skips
/// are properly nested: a skip's target lies inside the range of every
/// skip enclosing it.
std::vector<VmInstr> layOutGuards(const std::vector<VmInstr> &Code,
                                  const std::vector<StepGroup> &Groups,
                                  GuardLowering L);

struct CompiledStep;

/// The optimizer pass (see the file comment) over skip-free \p Code,
/// partitioned by \p Groups; \p Slots gives the slot layout and types
/// (its own Code is not read). Keeps every clock check, output and delay
/// store and the group order; a group may be left empty. Never raises the
/// executed or guard-test count of a run. Idempotent. \returns the
/// instructions deleted.
unsigned optimize(const CompiledStep &Slots, std::vector<VmInstr> &Code,
                  std::vector<StepGroup> &Groups);

/// A slot-resolved, allocation-free compiled reactive step.
struct CompiledStep {
  unsigned NumClockSlots = 0;
  unsigned NumValueSlots = 0; ///< Signal value slots (scratch excluded).
  unsigned NumTempSlots = 0;  ///< Scratch slots appended after the values.
  std::vector<Value> StateInit;

  std::vector<VmInstr> Code; ///< Laid out by layOutGuards.
  std::vector<Value> Consts; ///< Constant pool.

  /// Environment-facing descriptors, copied from the StepProgram so a
  /// CompiledStep is self-contained (a linked system's fused step has no
  /// StepProgram of its own).
  std::vector<StepProgram::ClockInputDesc> ClockInputs;
  std::vector<StepProgram::SignalIODesc> Inputs;
  std::vector<StepProgram::SignalIODesc> Outputs;

  /// Per-signal clock slot (-1 when empty); StepFusion's dynamic channel
  /// checks (CheckClockEq) read it.
  std::vector<int> SignalClockSlot;

  /// The type of each value, then each scratch slot (StepProgram's).
  std::vector<TypeKind> SlotType;

  /// Output descriptor indices in the order their WriteOutput
  /// instructions appear in Code. Batched execution buffers a whole
  /// batch of outputs and flushes them instant by instant in this order,
  /// reproducing exactly the event sequence an unbatched run records.
  std::vector<int32_t> OutputFlushOrder;

  /// Instructions optimize deleted (the --stats vm dropped= field).
  unsigned Dropped = 0;

  /// Optimizes \p Step's groups, lays out their guards by \p L and
  /// derives the output flush order.
  static CompiledStep build(const StepProgram &Step,
                            GuardLowering L = GuardLowering::Nested);
  /// build without optimize: the reference the optimizer is tested
  /// against.
  static CompiledStep layOut(const StepProgram &Step,
                             GuardLowering L = GuardLowering::Nested);

  /// Sets OutputFlushOrder from Code and Outputs.
  void orderOutputFlush();

  /// Renders the instruction listing (tests, --dump-vm).
  std::string dump() const;

  /// Counts the guards of Code and measures their nesting.
  GuardShape guardShape() const;

  /// One past the last value and scratch slot: a value operand from
  /// here on names a delay state (see the file comment).
  int32_t valueEnd() const {
    return static_cast<int32_t>(NumValueSlots + NumTempSlots);
  }

  /// The type of operand \p I of space \p S (a field of an instruction,
  /// see vmOperands): a constant's or a delay memory's kind, or a slot's
  /// SlotType.
  TypeKind operandType(OperandSpace S, int32_t I) const {
    if (S == OperandSpace::Const)
      return Consts[I].Kind;
    return I < valueEnd() ? SlotType[I] : StateInit[I - valueEnd()].Kind;
  }
};

} // namespace sigc

#endif // SIGNALC_INTERP_COMPILEDSTEP_H
