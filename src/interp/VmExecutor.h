//===--- VmExecutor.h - CompiledStep execution ------------------*- C++-*-===//
///
/// \file
/// Executes a CompiledStep window by window against an Environment.
/// The per-instant loop is a flat PC walk over the VM instruction stream:
/// absent clocks skip their subtree via SkipIfAbsent offsets, expressions
/// run three-address over preallocated scratch slots, and every
/// environment query uses the slot ids bound once per (executor,
/// environment) pair. In the steady state one instant performs zero heap
/// allocations (pinned by the counting-allocator test).
///
/// Slot file. Values, scratch results, constants, the two counters and
/// the delay states are 8-byte untagged VmSlots (interp/Slot.h):
/// integers in I, reals in R, booleans and events as 0/1 in I. One slot
/// file holds them all, `[values | scratch | consts | counters |
/// states]`, so every operand of every instruction (a constant, or a
/// delay memory, a value operand past the scratch slots, see
/// CompiledStep.h) is a slot index, and a copy or constant load is one
/// Copy. A slot always holds its type (CompiledStep::SlotType):
/// inputs arrive as slots of their declared types, WriteOutput hands out
/// the output's slot as it stands, and the one conversion, integer to
/// real, is an explicit ToReal instruction that lowering placed. No
/// tagged Value crosses the environment boundary.
///
/// State block. The counters and delay states end the slot file: the
/// guard/executed counters, then one slot per delay. That is byte for
/// byte the emitted C's `<proc>_state_t`, so the step's native twin
/// (setNative) runs in place on the block inside the slot file, and a
/// tier swap or a checkpoint is a copy of slots, never a conversion.
///
/// Decode. The constructor decodes CompiledStep::Code once into the
/// executor's own instruction array, index for index, so skip offsets
/// carry over unchanged. Each unary/binary instruction is quickened to a
/// handler specialized by operator and operand types (AddI, AddR, LtI,
/// EqB, NotB, ToRealI, ...). Operands of one instruction always share a
/// class, so every instruction has such a handler.
/// An EvalClockLiteral directly followed by a SkipIfAbsent (on the clock
/// it writes or on another one) decodes to one fused instruction that
/// writes the clock, tests the skip's clock, counts both instructions
/// and jumps; the original skip stays in the array for any skip offset
/// that lands on it. A run of back-to-back clock and/or instructions,
/// default selects or copies executes in one dispatch. A Halt sentinel
/// ends the array, so the dispatch needs no bounds test.
///
/// stepN() runs a window of instants with one environment crossing per
/// descriptor: free-clock ticks and input slots are fetched up front
/// through the environment's exchange into one pair of batch buffers
/// (tick and input columns, presence and value rows), outputs are
/// buffered and flushed once at window end, instant by instant in code
/// order. It is the only way into the interpreter: step() is a window of
/// one instant, run() runs windows of UnbatchedWindow. Traces and
/// counters do not depend on how a run is cut into windows.
///
/// Clock checks. A CheckClockEq that fails (a linked system's dynamic
/// channel check) ends its instant; stepN then stops after that instant,
/// flushes the rows up to and including it, reports it through
/// checkFailure() and returns how many instants it ran, so a batched
/// run stops exactly where an unbatched one does.
///
/// The guard/instruction counters count what the step's lowering asks
/// for: one guard test per SkipIfAbsent reached, one executed
/// instruction per other instruction run, clock checks excluded. Both
/// lowerings hold the same instructions, so running the nested and the
/// flat lowering (GuardLowering) of one step on the same trace measures
/// Figure 9's guard economics on one engine.
///
/// Native mode. With a NativeModule attached, stepN keeps its prefetch,
/// binding and flush but runs the module's compiled step on the state
/// block instead of the interpreter loop. The module reads the same input
/// columns and fills the same flush rows the interpreter would, and stops
/// after the same failed clock check, so both tiers share one batch
/// buffer pair and the environment receives the same declared-type slots
/// from either. Traces and counters are the
/// interpreter's, so attaching or detaching at any batch boundary is
/// invisible, down to the text of every output.
///
/// Dispatch is direct-threaded: computed goto over GNU labels-as-values,
/// which every supported compiler (gcc, clang) has.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_INTERP_VMEXECUTOR_H
#define SIGNALC_INTERP_VMEXECUTOR_H

#include "interp/CompiledStep.h"
#include "interp/Environment.h"

#include <vector>

namespace sigc {

class NativeModule;

/// The stepN window of a run that names no batch size (VmExecutor::run,
/// an unbatched --simulate). A window amortizes the environment
/// crossing of a one-instant stepN; 8 instants keep it near the cost of
/// one instant's PC walk without holding outputs back noticeably.
constexpr unsigned UnbatchedWindow = 8;

/// Operand class a typed handler is specialized for.
enum class VmKind : uint8_t {
  Int,  ///< Integer.
  Real, ///< Real.
  Bool, ///< Boolean or event (any pair of them).
};

/// One entry of the typed handler table: the handler's name and the
/// operator and operand class it implements. Both operands of a binary
/// handler share the class.
struct VmTypedHandler {
  const char *Name;
  bool Unary;
  uint8_t Op; ///< A UnaryOp when Unary, else a BinaryOp.
  VmKind Kind;
};

/// Decode summary (the --stats vm line).
struct VmDecodeStats {
  unsigned Decoded = 0; ///< Instructions decoded (CompiledStep::Code).
  unsigned Fused = 0;   ///< Clock-literal/skip pairs fused.
  unsigned Dropped = 0; ///< Instructions optimize deleted.
  size_t SlotBytes = 0; ///< The slot file (values to delay states).
};

/// Interprets a CompiledStep.
class VmExecutor {
public:
  explicit VmExecutor(const CompiledStep &CS);

  /// The typed unary/binary handlers decode can select.
  static const std::vector<VmTypedHandler> &typedHandlers();

  /// How the constructor decoded the step.
  const VmDecodeStats &decodeStats() const { return Stats; }
  /// Name of the handler instruction \p PC of the step decoded to.
  const char *decodedOpName(size_t PC) const;

  /// Re-initializes the delay states.
  void reset();

  /// Resolves the environment binding now (otherwise done lazily on the
  /// first step with a new environment).
  void bind(Environment &Env);

  /// Attaches the step's native twin \p M (null detaches it). The module
  /// must stay loaded while attached. Copies no state and allocates
  /// nothing: both tiers run on the same state block.
  void setNative(const NativeModule *M);
  /// The attached native module, or null.
  const NativeModule *native() const { return Native; }

  /// Runs one reaction, stepN(Env, Instant, 1). \returns false when a
  /// clock check failed (see checkFailure()).
  bool step(Environment &Env, unsigned Instant);

  /// Runs \p Count reactions starting at instant \p Start, crossing the
  /// environment boundary once per descriptor per window (tick and input
  /// prefetch, one output flush). Trace and counters equal \p Count
  /// calls of step(). Allocation-free once the batch buffers exist (see
  /// reserveBatch). \returns the instants run: \p Count, or fewer when a
  /// clock check failed (see the file comment).
  unsigned stepN(Environment &Env, unsigned Start, unsigned Count);

  /// Runs \p Count reactions starting at instant 0 in stepN windows of
  /// UnbatchedWindow. \returns the instants run (fewer than \p Count
  /// after a failed clock check).
  unsigned run(Environment &Env, unsigned Count);

  /// Runs \p Count reactions starting at instant 0, stepN-batched in
  /// windows of \p BatchSize. \returns the instants run.
  unsigned runBatched(Environment &Env, unsigned Count, unsigned BatchSize);

  /// The clock check that failed in the last step() or stepN(); false
  /// when none did.
  const ClockCheckFailure &checkFailure() const { return Failure; }

  /// Preallocates the batch buffers for batches of up to \p MaxCount
  /// instants; stepN grows them on demand otherwise (a one-time
  /// allocation, after which stepN is allocation-free).
  void reserveBatch(unsigned MaxCount);

  /// Guard tests performed so far (one per SkipIfAbsent reached).
  uint64_t guardTests() const {
    return static_cast<uint64_t>(Slots[BlockBase].I);
  }
  /// Instructions executed so far (skips and clock checks excluded).
  uint64_t executed() const {
    return static_cast<uint64_t>(Slots[BlockBase + 1].I);
  }
  void resetCounters() {
    Slots[BlockBase].I = 0;
    Slots[BlockBase + 1].I = 0;
  }


  //===--- State exchange (checkpoints, tests) ----------------------------===//

  /// The delay-state slots as they stand now. Taken at a batch boundary
  /// this is the complete execution state beyond the stimulus itself.
  std::vector<VmSlot> stateSlots() const {
    return std::vector<VmSlot>(Slots.begin() + BlockBase + CounterSlots,
                               Slots.end());
  }

  /// Restores delay state captured by stateSlots() (a checkpoint
  /// restore); the counters are kept. Sizes must match the compiled step.
  void setStateSlots(const std::vector<VmSlot> &S);

private:
  /// The batch buffers as one instant of a window sees them.
  struct BatchPort;

  /// One instant's PC walk; \p P supplies ticks/inputs and receives
  /// outputs out of and into the batch buffers. \returns 0, or the
  /// ClockCheckFailure::code of the check that ended the instant.
  int32_t execInstant(BatchPort &P);

  /// Fills Code from CS.Code (see the file comment).
  void decode();

  /// One decoded instruction. Fields keep their VmInstr meanings, except
  /// that value, constant and state operands are indices into the slot
  /// file.
  struct Instr {
    uint8_t Op = 0;    ///< Handler, in SIGC_VM_OPS order.
    int8_t Count = 0; ///< Added to Executed: 1, a run head's run length,
                      ///< or 0 for a skip and a clock check.
    int32_t Target = -1;
    int32_t A = -1;
    int32_t B = -1;
    int32_t Aux = -1;
  };

  /// Slots ahead of the delays in the state block: guard tests, then
  /// executed instructions.
  static constexpr size_t CounterSlots = 2;

  const CompiledStep &CS;
  std::vector<Instr> Code; ///< Decoded CS.Code plus a Halt sentinel.
  VmDecodeStats Stats;
  uint64_t BoundIdentity = 0; ///< identity() of the bound environment.
  StepBindings Bind;
  std::vector<char> ClockSlots; ///< The step's, then one always absent.
  /// Values, scratch, constants, then the state block (see the file
  /// comment), which starts at BlockBase.
  std::vector<VmSlot> Slots;
  size_t BlockBase = 0;
  const NativeModule *Native = nullptr;
  ClockCheckFailure Failure;

  //===--- Batch state (shared by both tiers) ----------------------------===//
  unsigned BatchCap = 0;               ///< Capacity of all batch buffers.
  std::vector<unsigned char> TickBuf;  ///< [clock desc][instant].
  std::vector<VmSlot> InSlots;         ///< [input desc][instant].
  std::vector<unsigned char> OutPresent; ///< [instant][flush position].
  std::vector<VmSlot> OutSlots;          ///< [instant][flush position].
  std::vector<int32_t> FlushPos;       ///< Output desc -> flush position.
  std::vector<EnvOutputId> FlushIds;   ///< Flush position -> bound env id.
};

} // namespace sigc

#endif // SIGNALC_INTERP_VMEXECUTOR_H
