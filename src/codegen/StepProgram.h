//===--- StepProgram.h - Single-loop step intermediate form -----*- C++-*-===//
///
/// \file
/// The compiled form of one SIGNAL process: a "single-loop" reactive step
/// (Section 2.6 / Section 4 of the paper). One execution of the step is one
/// reaction (one instant). The step consists of guarded instructions over
///
///   * clock slots  — booleans holding this instant's presence per clock,
///   * value slots  — the current value of each signal,
///   * state slots  — the memories of the "$" delays, surviving instants.
///
/// The same instruction list carries two control structures, which
/// CompiledStep lowers for the one VM (GuardLowering):
///   * flat:   every instruction tests its own guard (code b of Figure 9),
///   * nested: instructions are grouped into blocks that follow the clock
///     tree, so an absent clock skips its whole subtree (code a of
///     Figure 9 — the optimization the clock hierarchy enables). Each
///     block tests its clock once: a block holding nothing but a
///     sub-block is collapsed into its innermost descendant.
/// Both execute identically. The nested one tests far fewer guards on
/// every builtin (STOPWATCH: ~175 per instant against flat's 1,461).
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_CODEGEN_STEPPROGRAM_H
#define SIGNALC_CODEGEN_STEPPROGRAM_H

#include "ast/Value.h"
#include "clock/ClockSystem.h"
#include "sema/Kernel.h"

#include <string>
#include <vector>

namespace sigc {

/// Opcode of one step instruction.
enum class StepOp {
  ReadClockInput,   ///< clock[Target] := environment tick
  EvalClockLiteral, ///< clock[Target] := value[A] == Positive
  EvalClockOp,      ///< clock[Target] := clock[A] <COp> clock[B]
  ReadSignal,       ///< value[Target] := environment input
  EvalFunc,         ///< value[Target] := f(args of equation EqIndex)
  EvalWhen,         ///< value[Target] := value[A] (or the constant)
  EvalDefault,      ///< value[Target] := clock[PresA] ? value[A] : value[B]
  LoadDelay,        ///< value[Target] := state[A]
  StoreDelay,       ///< state[Target] := value[A]
  WriteOutput,      ///< environment output := value[A]
};

/// One guarded instruction.
struct StepInstr {
  StepOp Op = StepOp::EvalFunc;
  /// Clock slot that must be present for the instruction to run; -1 runs
  /// always. In nested mode the enclosing block guarantees the guard.
  int Guard = -1;
  int Target = -1;
  int A = -1;
  int B = -1;
  int PresA = -1;         ///< EvalDefault: presence slot of the preferred arm.
  bool Positive = true;   ///< EvalClockLiteral polarity.
  ClockOp COp = ClockOp::Inter;
  int EqIndex = -1;       ///< Kernel equation driving EvalFunc/EvalWhen.
  SignalId Sig = InvalidSignal;
  /// Pre-resolved descriptor index: into ClockInputs for ReadClockInput,
  /// Inputs for ReadSignal, Outputs for WriteOutput; -1 otherwise. Lets
  /// executors reach the environment binding in O(1) instead of scanning
  /// the descriptor tables per instruction per instant.
  int Desc = -1;
};

/// One nested block: a guard plus an ordered mix of instructions and
/// sub-blocks.
struct StepBlock {
  int GuardSlot = -1; ///< -1 for the root block.
  struct Item {
    bool IsBlock = false;
    int Index = 0; ///< Into StepProgram::Instrs or StepProgram::Blocks.
  };
  std::vector<Item> Items;
};

/// A compiled reactive step.
struct StepProgram {
  unsigned NumClockSlots = 0;
  unsigned NumValueSlots = 0;
  std::vector<Value> StateInit; ///< One entry per delay state slot.

  std::vector<StepInstr> Instrs; ///< In schedule order (the flat program).
  std::vector<StepBlock> Blocks; ///< Nested structure over the same instrs.
  int RootBlock = -1;

  /// Environment-facing descriptors.
  struct ClockInputDesc {
    int Slot = -1;
    std::string Name; ///< Derived from the class representative.
  };
  struct SignalIODesc {
    SignalId Sig = InvalidSignal;
    int ValueSlot = -1;
    int ClockSlot = -1;
    TypeKind Type = TypeKind::Unknown;
    std::string Name;
  };
  std::vector<ClockInputDesc> ClockInputs;
  std::vector<SignalIODesc> Inputs;  ///< Input signals (and free locals).
  std::vector<SignalIODesc> Outputs;

  /// Per-signal value slot (-1 when the signal's clock is empty).
  std::vector<int> SignalValueSlot;
  /// Per-signal clock slot (-1 when empty).
  std::vector<int> SignalClockSlot;
  /// Declared type of each value slot, index-aligned with the slot space.
  /// Lowerings that materialize slots as typed storage (the C emitter's
  /// locals) read this instead of re-scanning the kernel signal table.
  std::vector<TypeKind> ValueSlotType;
};

} // namespace sigc

#endif // SIGNALC_CODEGEN_STEPPROGRAM_H
