//===--- StepProgram.h - Guard-tagged step bytecode -------------*- C++-*-===//
///
/// \file
/// The compiled form of one SIGNAL process: a "single-loop" reactive step
/// (Section 2.6 / Section 4 of the paper). One execution of the step is one
/// reaction (one instant). The step is VM bytecode (VmInstr) over
///
///   * clock slots  — booleans holding this instant's presence per clock,
///   * value slots  — the current value of each signal, then the scratch
///     slots of flattened expressions, then the memories of the "$"
///     delays, which survive instants: value operand NumValueSlots +
///     NumTempSlots + k is delay memory k. A delay's load and store are
///     plain copies out of and into its memory.
///
/// Each value and scratch slot has one type for the whole run (SlotType),
/// and each delay memory the type of its initial value, so every operand
/// of every instruction has a static type.
///
/// A StepProgram holds that bytecode in schedule order without any skip:
/// each scheduled action's instructions form one StepGroup tagged with
/// the clock path that guards it. CompiledStep deletes what nothing reads
/// (optimize), then lays the groups out for the one VM in either of
/// Figure 9's control structures (GuardLowering), a group left empty
/// without a skip:
///   * flat:   every guarded group tests its own guard (code b),
///   * nested: groups share the skips of the clock path they have in
///     common, so an absent clock skips its whole subtree (code a, the
///     optimization the clock hierarchy enables), and a skip whose only
///     content is another skip is dropped, so each block tests its clock
///     once.
/// Both execute the same instructions identically. The nested one tests
/// far fewer guards on every builtin (STOPWATCH: ~146 per instant
/// against flat's 787).
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_CODEGEN_STEPPROGRAM_H
#define SIGNALC_CODEGEN_STEPPROGRAM_H

#include "ast/Value.h"
#include "clock/ClockSystem.h"
#include "sema/Kernel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sigc {

/// What an instruction field indexes (see SIGC_VM_OPCODES).
enum class OperandSpace : uint8_t {
  None,       ///< Unused.
  Imm,        ///< An immediate: an operator code or a polarity.
  Jump,       ///< A program counter in the laid-out code.
  Clock,      ///< A clock slot.
  Value,      ///< A value, scratch or delay memory slot.
  Const,      ///< A constant-pool entry.
  ClockInput, ///< A ClockInputs descriptor.
  Input,      ///< An Inputs descriptor.
  Output,     ///< An Outputs descriptor.
  Check,      ///< A linked system's channel index.
};

/// The VM opcodes, one per line: X(Name, "listing text", Target, A, B,
/// Aux), each operand column naming the OperandSpace of that field.
// clang-format off
#define SIGC_VM_OPCODES(X)                                                     \
  /* if (!clock[A]) pc = Aux: a block guard (counted in guard tests). */     \
  X(SkipIfAbsent,     "skip-if-absent", None,  Clock, None,  Jump)             \
  /* clock[Target] := env tick of clock-input desc Aux. */                     \
  X(ReadClockInput,   "read-clock",     Clock, None,  None,  ClockInput)       \
  /* clock[Target] := value[A] == (Aux != 0). */                               \
  X(EvalClockLiteral, "clock-literal",  Clock, Value, None,  Imm)              \
  /* clock[Target] := clock[A] && / || / && ! clock[B]. */                     \
  X(EvalClockAnd,     "clock-and",      Clock, Clock, Clock, None)             \
  X(EvalClockOr,      "clock-or",       Clock, Clock, Clock, None)             \
  X(EvalClockDiff,    "clock-diff",     Clock, Clock, Clock, None)             \
  /* clock[Target] := clock[A]. */                                             \
  X(CopyClock,        "copy-clock",     Clock, Clock, None,  None)             \
  /* clock[Target] := false (statically absent operand). */                    \
  X(SetClockFalse,    "clock-false",    Clock, None,  None,  None)             \
  /* value[Target] := env input of input desc Aux. */                          \
  X(ReadSignal,       "read-signal",    Value, None,  None,  Input)            \
  /* Expression bytecode: value[Target] := UnaryOp(Aux)(value[A]) and   */    \
  /* BinaryOp(Aux) over two value slots, a slot and a constant, or a     */    \
  /* constant and a slot. Interior results land in scratch slots.        */    \
  X(UnarySlot,        "unary",          Value, Value, None,  Imm)              \
  X(BinarySS,         "binary-ss",      Value, Value, Value, Imm)              \
  X(BinarySC,         "binary-sc",      Value, Value, Const, Imm)              \
  X(BinaryCS,         "binary-cs",      Value, Const, Value, Imm)              \
  /* value[Target] := value[A]; := consts[Aux]. A delay's load and */          \
  /* store copy out of and into its memory (a value operand). */               \
  X(CopyValue,        "copy",           Value, Value, None,  None)             \
  X(LoadConst,        "const",          Value, None,  None,  Const)            \
  /* value[Target] := clock[Aux] ? value[A] : value[B]. */                     \
  X(Select,           "select",         Value, Value, Value, Clock)            \
  /* env output of output desc Aux := value[A]. */                             \
  X(WriteOutput,      "write",          None,  Value, None,  Output)           \
  /* Unless clock[A] == clock[B], the instant ends here and the step     */    \
  /* reports check Aux (a negative slot reads as absent). A linked       */    \
  /* system's dynamic channel check; not an executed instruction.      */    \
  X(CheckClockEq,     "check-clock-eq", None,  Clock, Clock, Check)
// clang-format on

/// Opcode of one VM instruction.
enum class VmOp : uint8_t {
#define SIGC_VM_OP_ENUM(Name, Text, T, A, B, Aux) Name,
  SIGC_VM_OPCODES(SIGC_VM_OP_ENUM)
#undef SIGC_VM_OP_ENUM
};

/// The spaces an opcode's four fields index.
struct VmOperands {
  OperandSpace Target, A, B, Aux;
};

/// The listing text of \p Op (--dump-step).
inline const char *vmOpName(VmOp Op) {
  static constexpr const char *Names[] = {
#define SIGC_VM_OP_NAME(Name, Text, T, A, B, Aux) Text,
      SIGC_VM_OPCODES(SIGC_VM_OP_NAME)
#undef SIGC_VM_OP_NAME
  };
  return Names[static_cast<unsigned>(Op)];
}

/// The operand spaces of \p Op.
inline VmOperands vmOperands(VmOp Op) {
  static constexpr VmOperands Table[] = {
#define SIGC_VM_OP_OPERANDS(Name, Text, T, A, B, Aux)                          \
  {OperandSpace::T, OperandSpace::A, OperandSpace::B, OperandSpace::Aux},
      SIGC_VM_OPCODES(SIGC_VM_OP_OPERANDS)
#undef SIGC_VM_OP_OPERANDS
  };
  return Table[static_cast<unsigned>(Op)];
}

/// One VM instruction; the fields index the spaces vmOperands names.
/// Every instruction that runs counts once in the executed counter,
/// except SkipIfAbsent (a guard test) and CheckClockEq.
struct VmInstr {
  VmOp Op = VmOp::SetClockFalse;
  int32_t Target = -1;
  int32_t A = -1;
  int32_t B = -1;
  int32_t Aux = -1;
};

/// The index of \p V in the constant pool \p Pool, appending it if new.
inline int32_t internConst(std::vector<Value> &Pool, const Value &V) {
  for (size_t I = 0; I < Pool.size(); ++I)
    if (Pool[I].Kind == V.Kind && Pool[I] == V)
      return static_cast<int32_t>(I);
  Pool.push_back(V);
  return static_cast<int32_t>(Pool.size()) - 1;
}

/// The instructions of one scheduled action (one step instruction) and
/// the clock path that guards them.
struct StepGroup {
  /// Clock slots, outermost first, ending in the action's own guard;
  /// empty when the action runs unguarded. Only clocks the schedule has
  /// already computed appear above the action's own guard.
  std::vector<int32_t> Guards;
  uint32_t End = 0; ///< One past the group's last instruction in Code.
};

/// A compiled reactive step.
struct StepProgram {
  unsigned NumClockSlots = 0;
  unsigned NumValueSlots = 0; ///< Signal value slots (scratch excluded).
  unsigned NumTempSlots = 0;  ///< Scratch slots appended after the values,
                              ///< one per (tree depth, result type).
  std::vector<Value> StateInit; ///< One entry per delay memory.
  std::vector<Value> Consts;    ///< Constant pool.

  /// The step's bytecode in schedule order, without skips.
  std::vector<VmInstr> Code;
  /// One group per scheduled action, partitioning Code in order.
  std::vector<StepGroup> Groups;

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
  /// The type of each value slot (its signal's declared type), then of
  /// each scratch slot. A slot always holds its type: lowering made every
  /// integer-to-real conversion an explicit ToReal, so no operator mixes
  /// types and no definition changes one.
  std::vector<TypeKind> SlotType;
};

} // namespace sigc

#endif // SIGNALC_CODEGEN_STEPPROGRAM_H
