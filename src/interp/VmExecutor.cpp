//===--- VmExecutor.cpp ---------------------------------------------------===//
//
// The interpreter loop expands one set of op bodies (the SIGC_VM_OPS
// X-macro) into a direct-threaded computed-goto loop (GNU
// labels-as-values, which gcc and clang, the supported compilers, both
// have). One `goto *` per op body, instead of a switch's single shared
// indirect branch, lets the predictor learn each opcode's actual
// successor distribution — the classic direct-threading win, which
// matters here because serve lanes and cache-miss tiers keep this loop
// hot. Measured after quickening, goto ran at 1.03–1.26x a switch loop
// over the same bodies.
//
// The op list is the quickened instruction set (Brunthaler, "Efficient
// interpretation using quickening", DLS 2010): decode() rewrites each
// CompiledStep instruction once into a handler specialized by its static
// operand types (CompiledStep::SlotType), plus one superinstruction
// (clock literal + skip). Every operator has one handler per operand
// class it accepts; there is no fallback on tagged Values.
//
// Each decoded instruction carries the count it adds to Executed: 1, a
// run head's run length, or 0 for a skip and a clock check (a skip adds
// a guard test instead). So Executed counts the CompiledStep
// instructions that run, one add per dispatch.
//
//===----------------------------------------------------------------------===//

#include "interp/VmExecutor.h"

#include "native/NativeModule.h"
#include "native/TierController.h"
#include "sema/Kernel.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#ifndef __GNUC__
#error "the VM's dispatch loop needs GNU labels-as-values (gcc or clang)"
#endif

using namespace sigc;

//===--- The op bodies, shared by both dispatchers ------------------------===//
//
// Every body runs after `In = Code[PC++]` and `Exec += In.Count`, in a
// scope that also sees the slot file S, the state block Block inside it,
// the clock slots Clock, the port P, the guard counter Guards and the
// failed-check code Failed. Jumps assign PC. Bodies may contain commas —
// the macro is variadic. The handler ids are positional in this list.
//
// The typed handlers come from two tables, X(Y, Name, Operator, operand
// class, result field, expression over the operand slots a and b). Each
// computes exactly what evalUnaryValue/evalBinaryValue compute for its
// types, including integer orderings compared through double and the
// wrapping Div/Mod/Neg escapes; vm_test checks every entry against them.

#define SIGC_VM_UNARY_OPS(Y, X)                                                \
  Y(X, NotB, Not, Bool, I, a.I == 0)                                           \
  Y(X, NegI, Neg, Int, I, wrapNeg(a.I))                                        \
  Y(X, NegR, Neg, Real, R, -a.R)                                               \
  Y(X, ToRealI, ToReal, Int, R, static_cast<double>(a.I))

#define SIGC_VM_BINARY_OPS(Y, X)                                               \
  Y(X, AddI, Add, Int, I, wrapAdd(a.I, b.I))                                   \
  Y(X, AddR, Add, Real, R, a.R + b.R)                                          \
  Y(X, SubI, Sub, Int, I, wrapSub(a.I, b.I))                                   \
  Y(X, SubR, Sub, Real, R, a.R - b.R)                                          \
  Y(X, MulI, Mul, Int, I, wrapMul(a.I, b.I))                                   \
  Y(X, MulR, Mul, Real, R, a.R * b.R)                                          \
  Y(X, DivI, Div, Int, I,                                                      \
    b.I == 0 ? 0 : b.I == -1 ? wrapNeg(a.I) : a.I / b.I)                       \
  Y(X, DivR, Div, Real, R, b.R == 0.0 ? 0.0 : a.R / b.R)                       \
  Y(X, ModI, Mod, Int, I,                                                      \
    (b.I == 0 || b.I == -1) ? 0 : ((a.I % b.I) + b.I) % b.I)                   \
  Y(X, AndB, And, Bool, I, (a.I != 0) && (b.I != 0))                           \
  Y(X, OrB, Or, Bool, I, (a.I != 0) || (b.I != 0))                             \
  Y(X, XorB, Xor, Bool, I, (a.I != 0) != (b.I != 0))                           \
  Y(X, EqI, Eq, Int, I, a.I == b.I)                                            \
  Y(X, EqR, Eq, Real, I, a.R == b.R)                                           \
  Y(X, EqB, Eq, Bool, I, (a.I != 0) == (b.I != 0))                             \
  Y(X, NeI, Ne, Int, I, a.I != b.I)                                            \
  Y(X, NeR, Ne, Real, I, !(a.R == b.R))                                        \
  Y(X, NeB, Ne, Bool, I, (a.I != 0) != (b.I != 0))                             \
  Y(X, LtI, Lt, Int, I, static_cast<double>(a.I) < static_cast<double>(b.I))   \
  Y(X, LtR, Lt, Real, I, a.R < b.R)                                            \
  Y(X, LeI, Le, Int, I, static_cast<double>(a.I) <= static_cast<double>(b.I))  \
  Y(X, LeR, Le, Real, I, a.R <= b.R)                                           \
  Y(X, GtI, Gt, Int, I, static_cast<double>(a.I) > static_cast<double>(b.I))   \
  Y(X, GtR, Gt, Real, I, a.R > b.R)                                            \
  Y(X, GeI, Ge, Int, I, static_cast<double>(a.I) >= static_cast<double>(b.I))  \
  Y(X, GeR, Ge, Real, I, a.R >= b.R)

// The ops that often repeat back to back, Y(X, Name, statement over the
// instruction R). Each gets a single handler and a run handler. A run
// head's Count is its run length (each element counts 1), and the run
// handler executes the whole run in one dispatch; decode makes every
// element the head of its own suffix, so a jump into a run still works.
#define SIGC_VM_RUN_OPS(Y, X)                                                  \
  Y(X, EvalClockAnd, Clock[R->Target] = Clock[R->A] & Clock[R->B];)            \
  Y(X, EvalClockOr, Clock[R->Target] = Clock[R->A] | Clock[R->B];)             \
  Y(X, Select, S[R->Target] = Clock[R->Aux] ? S[R->A] : S[R->B];)              \
  Y(X, Copy, S[R->Target] = S[R->A];)

#define SIGC_VM_RUN_BODIES(X, Name, Stmt)                                      \
  X(Name, const Instr *R = &In; Stmt)                                          \
  X(Name##Run, const Instr *R = &In;                                           \
    for (const Instr *E = R + In.Count; R != E; ++R) { Stmt }                  \
    PC += In.Count - 1;)

#define SIGC_VM_UNARY_BODY(X, Name, Op, Class, F, Expr)                        \
  X(Name, const VmSlot &a = S[In.A]; S[In.Target].F = (Expr);)
#define SIGC_VM_BINARY_BODY(X, Name, Op, Class, F, Expr)                       \
  X(Name, const VmSlot &a = S[In.A]; const VmSlot &b = S[In.B];               \
    S[In.Target].F = (Expr);)

#define SIGC_VM_OPS(X)                                                         \
  X(Halt, Block[0].I = static_cast<int64_t>(Guards);                          \
    Block[1].I = static_cast<int64_t>(Exec); return Failed;)                   \
  X(SkipIfAbsent, ++Guards; if (!Clock[In.A]) PC = In.Aux;)                    \
  X(ClockLiteralT, Clock[In.Target] = S[In.A].I != 0;)                         \
  X(ClockLiteralF, Clock[In.Target] = S[In.A].I == 0;)                         \
  X(ClockLiteralSkipT, ++Guards; Clock[In.Target] = S[In.A].I != 0;          \
    PC = Clock[In.B] ? PC + 1 : In.Aux;)                                       \
  X(ClockLiteralSkipF, ++Guards; Clock[In.Target] = S[In.A].I == 0;          \
    PC = Clock[In.B] ? PC + 1 : In.Aux;)                                       \
  X(ReadClockInput, Clock[In.Target] = P.tick(In.Aux) ? 1 : 0;)                \
  X(EvalClockDiff,                                                             \
    Clock[In.Target] = static_cast<char>(Clock[In.A] & (Clock[In.B] ^ 1));)    \
  X(CopyClock, Clock[In.Target] = Clock[In.A];)                                \
  X(SetClockFalse, Clock[In.Target] = 0;)                                      \
  X(ReadSignal, S[In.Target] = P.input(In.Aux);)                              \
  X(WriteOutput, P.output(In.Aux, S[In.A]);)                                  \
  X(CheckClockEq, if (Clock[In.A] != Clock[In.B]) {                            \
    Failed = ClockCheckFailure::code(In.Aux, Clock[In.A] != 0);                \
    PC = In.Target;                                                            \
  })                                                                           \
  SIGC_VM_RUN_OPS(SIGC_VM_RUN_BODIES, X)                                       \
  SIGC_VM_UNARY_OPS(SIGC_VM_UNARY_BODY, X)                                     \
  SIGC_VM_BINARY_OPS(SIGC_VM_BINARY_BODY, X)

namespace {

/// Handler ids, positional in SIGC_VM_OPS.
enum Handler : uint8_t {
#define SIGC_VM_ENUM(Name, ...) H_##Name,
  SIGC_VM_OPS(SIGC_VM_ENUM)
#undef SIGC_VM_ENUM
};

static_assert(H_Halt == 0, "a default Instr must be the Halt sentinel");

const char *const HandlerNames[] = {
#define SIGC_VM_NAME(Name, ...) #Name,
    SIGC_VM_OPS(SIGC_VM_NAME)
#undef SIGC_VM_NAME
};

/// The operand class \p K is specialized as, if any.
bool vmKindOf(TypeKind K, VmKind &Out) {
  switch (K) {
  case TypeKind::Integer:
    Out = VmKind::Int;
    return true;
  case TypeKind::Real:
    Out = VmKind::Real;
    return true;
  case TypeKind::Boolean:
  case TypeKind::Event:
    Out = VmKind::Bool;
    return true;
  case TypeKind::Unknown:
    break;
  }
  return false;
}

/// Decode met an operator without a typed handler for its operand types.
/// Lowering converts every mixed operand and sema rejects every other
/// combination, so this is a compiler bug.
[[noreturn]] void noHandler(const char *Op) {
  std::fprintf(stderr, "signalc: internal error: no VM handler for '%s' on "
                       "these operand types\n", Op);
  std::abort();
}

/// The typed handler of \p Op on an operand of type \p A.
Handler unaryHandler(UnaryOp Op, TypeKind A) {
  VmKind K;
  if (vmKindOf(A, K)) {
#define SIGC_VM_PICK(X, Name, O, C, F, Expr)                                   \
  if (Op == UnaryOp::O && K == VmKind::C)                                      \
    return H_##Name;
    SIGC_VM_UNARY_OPS(SIGC_VM_PICK, _)
#undef SIGC_VM_PICK
  }
  noHandler(unaryOpName(Op));
}

/// The typed handler of \p Op on operands of types \p L and \p R. Any
/// boolean/event pair shares the Bool class.
Handler binaryHandler(BinaryOp Op, TypeKind L, TypeKind R) {
  VmKind KL, KR;
  if (vmKindOf(L, KL) && vmKindOf(R, KR) && KL == KR) {
#define SIGC_VM_PICK(X, Name, O, C, F, Expr)                                   \
  if (Op == BinaryOp::O && KL == VmKind::C)                                    \
    return H_##Name;
    SIGC_VM_BINARY_OPS(SIGC_VM_PICK, _)
#undef SIGC_VM_PICK
  }
  noHandler(binaryOpName(Op));
}

/// The run handler of \p H, or \p H when it has none.
uint8_t runHandler(uint8_t H) {
  switch (H) {
#define SIGC_VM_RUN_OF(X, Name, Stmt)                                          \
  case H_##Name:                                                               \
    return H_##Name##Run;
    SIGC_VM_RUN_OPS(SIGC_VM_RUN_OF, _)
#undef SIGC_VM_RUN_OF
  default:
    return H;
  }
}

} // namespace

const std::vector<VmTypedHandler> &VmExecutor::typedHandlers() {
  static const std::vector<VmTypedHandler> Table = {
#define SIGC_VM_ROW_UNARY(X, Name, O, C, F, Expr)                              \
  {#Name, true, static_cast<uint8_t>(UnaryOp::O), VmKind::C},
#define SIGC_VM_ROW_BINARY(X, Name, O, C, F, Expr)                             \
  {#Name, false, static_cast<uint8_t>(BinaryOp::O), VmKind::C},
      SIGC_VM_UNARY_OPS(SIGC_VM_ROW_UNARY, _)
      SIGC_VM_BINARY_OPS(SIGC_VM_ROW_BINARY, _)
#undef SIGC_VM_ROW_UNARY
#undef SIGC_VM_ROW_BINARY
  };
  return Table;
}

/// The interpreter's side of the window: ticks and inputs come out of
/// the prefetched columns, outputs land in the flush rows; no environment
/// crossing at all. The slots already have the declared types, so both
/// directions are copies.
struct VmExecutor::BatchPort {
  const unsigned char *Ticks; ///< [desc * Cap + I]
  const VmSlot *Ins;          ///< [desc * Cap + I]
  unsigned Cap = 0;
  unsigned I = 0; ///< Batch-relative instant.
  unsigned char *OutPresent;  ///< [I * NumOut + flush pos]
  VmSlot *Outs;               ///< [I * NumOut + flush pos]
  const int32_t *FlushPos; ///< Output desc -> flush position.
  unsigned NumOut = 0;

  bool tick(int32_t Desc) const {
    return Ticks[static_cast<size_t>(Desc) * Cap + I] != 0;
  }
  VmSlot input(int32_t Desc) const {
    return Ins[static_cast<size_t>(Desc) * Cap + I];
  }
  void output(int32_t Desc, VmSlot V) {
    size_t At = static_cast<size_t>(I) * NumOut + FlushPos[Desc];
    OutPresent[At] = 1;
    Outs[At] = V;
  }
};

VmExecutor::VmExecutor(const CompiledStep &CS) : CS(CS) {
  decode();
  reset();
}

const char *VmExecutor::decodedOpName(size_t PC) const {
  return HandlerNames[Code[PC].Op];
}

void VmExecutor::decode() {
  // The slot file: values and scratch, constants, then the state block
  // (counters, delay states). Every slot operand becomes an index into it.
  const int32_t ValueEnd = CS.valueEnd();
  const int32_t ConstBase = ValueEnd;
  BlockBase = static_cast<size_t>(ConstBase) + CS.Consts.size();
  const int32_t StateBase = static_cast<int32_t>(BlockBase + CounterSlots);
  auto slot = [&](OperandSpace Space, int32_t V) {
    switch (Space) {
    case OperandSpace::Value:
      return V < ValueEnd ? V : StateBase + (V - ValueEnd);
    case OperandSpace::Const:
      return ConstBase + V;
    default:
      return V;
    }
  };
  const int32_t AbsentClock = static_cast<int32_t>(CS.NumClockSlots);
  const size_t N = CS.Code.size();
  Stats = VmDecodeStats();
  Code.assign(N + 1, Instr()); // The last entry stays the Halt sentinel.
  for (size_t PC = 0; PC < N; ++PC) {
    const VmInstr &V = CS.Code[PC];
    const VmOperands Ops = vmOperands(V.Op);
    Instr &D = Code[PC];
    D.Count = V.Op == VmOp::SkipIfAbsent || V.Op == VmOp::CheckClockEq ? 0 : 1;
    D.Target = slot(Ops.Target, V.Target);
    D.A = slot(Ops.A, V.A);
    D.B = slot(Ops.B, V.B);
    D.Aux = slot(Ops.Aux, V.Aux);
    switch (V.Op) {
    case VmOp::SkipIfAbsent:
      D.Op = H_SkipIfAbsent;
      break;
    case VmOp::EvalClockLiteral: {
      bool Positive = V.Aux != 0;
      if (PC + 1 < N && CS.Code[PC + 1].Op == VmOp::SkipIfAbsent) {
        // The superinstruction takes over the skip's clock and target
        // (the skip may test the clock just written or another one); the
        // skip itself stays in place for jumps that land on it.
        D.Op = Positive ? H_ClockLiteralSkipT : H_ClockLiteralSkipF;
        D.B = CS.Code[PC + 1].A;
        D.Aux = CS.Code[PC + 1].Aux;
        ++Stats.Fused;
      } else {
        D.Op = Positive ? H_ClockLiteralT : H_ClockLiteralF;
      }
      break;
    }
    case VmOp::ReadClockInput:
      D.Op = H_ReadClockInput;
      break;
    case VmOp::EvalClockAnd:
      D.Op = H_EvalClockAnd;
      break;
    case VmOp::EvalClockOr:
      D.Op = H_EvalClockOr;
      break;
    case VmOp::EvalClockDiff:
      D.Op = H_EvalClockDiff;
      break;
    case VmOp::CopyClock:
      D.Op = H_CopyClock;
      break;
    case VmOp::SetClockFalse:
      D.Op = H_SetClockFalse;
      break;
    case VmOp::ReadSignal:
      D.Op = H_ReadSignal;
      break;
    case VmOp::UnarySlot:
      D.Op = unaryHandler(static_cast<UnaryOp>(V.Aux),
                          CS.operandType(Ops.A, V.A));
      break;
    case VmOp::BinarySS:
    case VmOp::BinarySC:
    case VmOp::BinaryCS:
      // Constants live in the slot file: all three forms become one.
      D.Op = binaryHandler(static_cast<BinaryOp>(V.Aux),
                           CS.operandType(Ops.A, V.A),
                           CS.operandType(Ops.B, V.B));
      break;
    case VmOp::LoadConst:
      // Constants are slots too: a constant load is a copy.
      D.A = D.Aux;
      D.Op = H_Copy;
      break;
    case VmOp::CopyValue:
      D.Op = H_Copy;
      break;
    case VmOp::Select:
      D.Op = H_Select;
      break;
    case VmOp::WriteOutput:
      D.Op = H_WriteOutput;
      break;
    case VmOp::CheckClockEq:
      // A negative slot reads the clock slot past the step's own, which
      // nothing writes; a failure jumps to the Halt sentinel.
      D.Op = H_CheckClockEq;
      D.A = V.A >= 0 ? V.A : AbsentClock;
      D.B = V.B >= 0 ? V.B : AbsentClock;
      D.Target = static_cast<int32_t>(N);
      break;
    }
  }
  // Runs of one runnable handler, found back to front so each element
  // heads its own suffix; a head's count becomes the run length.
  for (size_t PC = N; PC-- > 0;) {
    Instr &D = Code[PC];
    uint8_t Run = runHandler(D.Op);
    if (Run == D.Op)
      continue;
    const Instr &Next = Code[PC + 1];
    if (Next.Op == Run && Next.Count < INT8_MAX) {
      D.Op = Run;
      D.Count = static_cast<int8_t>(Next.Count + 1);
    } else if (Next.Op == D.Op) {
      D.Op = Run;
      D.Count = 2;
    }
  }
  Stats.Decoded = static_cast<unsigned>(N);
  Stats.Dropped = CS.Dropped;
  Stats.SlotBytes =
      sizeof(VmSlot) * (BlockBase + CounterSlots + CS.StateInit.size());
}

void VmExecutor::reset() {
  // One slot past the step's clocks stays absent (see decode).
  ClockSlots.assign(CS.NumClockSlots + 1, 0);
  // The counters survive a reset (resetCounters clears them).
  VmSlot Guards{0}, Exec{0};
  if (!Slots.empty()) {
    Guards = Slots[BlockBase];
    Exec = Slots[BlockBase + 1];
  }
  Slots.assign(BlockBase + CounterSlots + CS.StateInit.size(), VmSlot{0});
  const size_t ConstBase = CS.valueEnd();
  for (size_t I = 0; I < CS.Consts.size(); ++I)
    Slots[ConstBase + I] = toSlot(CS.Consts[I], CS.Consts[I].Kind);
  Slots[BlockBase] = Guards;
  Slots[BlockBase + 1] = Exec;
  VmSlot *States = Slots.data() + BlockBase + CounterSlots;
  for (size_t I = 0; I < CS.StateInit.size(); ++I)
    States[I] = toSlot(CS.StateInit[I], CS.StateInit[I].Kind);
}

void VmExecutor::setStateSlots(const std::vector<VmSlot> &S) {
  assert(S.size() == CS.StateInit.size() &&
         "state snapshot does not match the compiled step");
  std::copy(S.begin(), S.end(), Slots.begin() + BlockBase + CounterSlots);
}

void VmExecutor::setNative(const NativeModule *M) {
  assert((!M || M->numStateSlots() == CS.StateInit.size()) &&
         "native module does not match the compiled step");
  Native = M;
}

void VmExecutor::bind(Environment &Env) {
  Bind = resolveBindings(Env, CS.ClockInputs, CS.Inputs, CS.Outputs);
  BoundIdentity = Env.identity();
  // The flush table maps each output descriptor to its batch-flush
  // position (code order of the WriteOutput instructions) and each
  // position to the environment id just bound.
  FlushPos.assign(CS.Outputs.size(), 0);
  FlushIds.assign(CS.OutputFlushOrder.size(), InvalidEnvId);
  for (size_t Pos = 0; Pos < CS.OutputFlushOrder.size(); ++Pos) {
    FlushPos[CS.OutputFlushOrder[Pos]] = static_cast<int32_t>(Pos);
    FlushIds[Pos] = Bind.Outputs[CS.OutputFlushOrder[Pos]];
  }
}

int32_t VmExecutor::execInstant(BatchPort &P) {
  // Presence is recomputed from scratch each instant.
  std::fill(ClockSlots.begin(), ClockSlots.end(), 0);

  const Instr *Code = this->Code.data();
  char *Clock = ClockSlots.data();
  VmSlot *S = Slots.data();
  VmSlot *Block = S + BlockBase;
  uint64_t Guards = static_cast<uint64_t>(Block[0].I);
  uint64_t Exec = static_cast<uint64_t>(Block[1].I);
  int32_t Failed = 0;

  // No bounds test: the stream ends in the Halt sentinel.
  int32_t PC = 0;
  // Positional dispatch table: one label per handler, in SIGC_VM_OPS
  // order.
#define SIGC_VM_TABLE_ENTRY(Name, ...) &&L_##Name,
  static const void *const Table[] = {SIGC_VM_OPS(SIGC_VM_TABLE_ENTRY)};
#undef SIGC_VM_TABLE_ENTRY
#define SIGC_VM_DISPATCH() goto *Table[Code[PC].Op]

  SIGC_VM_DISPATCH();

#define SIGC_VM_LABEL(Name, ...)                                               \
  L_##Name: {                                                                  \
    const Instr &In = Code[PC++];                                              \
    Exec += In.Count;                                                          \
    __VA_ARGS__                                                                \
    SIGC_VM_DISPATCH();                                                        \
  }
  SIGC_VM_OPS(SIGC_VM_LABEL)
#undef SIGC_VM_LABEL
#undef SIGC_VM_DISPATCH
}

bool VmExecutor::step(Environment &Env, unsigned Instant) {
  stepN(Env, Instant, 1);
  return !Failure;
}

void VmExecutor::reserveBatch(unsigned MaxCount) {
  if (MaxCount <= BatchCap)
    return;
  BatchCap = MaxCount;
  TickBuf.assign(CS.ClockInputs.size() * static_cast<size_t>(BatchCap), 0);
  InSlots.assign(CS.Inputs.size() * static_cast<size_t>(BatchCap), VmSlot{0});
  OutPresent.assign(static_cast<size_t>(BatchCap) * CS.Outputs.size(), 0);
  OutSlots.assign(static_cast<size_t>(BatchCap) * CS.Outputs.size(),
                  VmSlot{0});
}

unsigned VmExecutor::stepN(Environment &Env, unsigned Start,
                           unsigned Count) {
  Failure = ClockCheckFailure();
  if (Count == 0)
    return 0;
  if (Env.identity() != BoundIdentity)
    bind(Env);
  reserveBatch(Count);

  const unsigned NumOut = static_cast<unsigned>(CS.Outputs.size());

  // One boundary crossing per descriptor: prefetch the whole window
  // straight into the slot columns both tiers read.
  for (size_t D = 0; D < CS.ClockInputs.size(); ++D)
    Env.clockTicks(Bind.Clocks[D], Start, Count, &TickBuf[D * BatchCap]);
  for (size_t D = 0; D < CS.Inputs.size(); ++D)
    Env.inputValues(Bind.Inputs[D], Start, Count, &InSlots[D * BatchCap]);
  std::fill(OutPresent.begin(),
            OutPresent.begin() + static_cast<size_t>(Count) * NumOut, 0);

  // A failed check ends the window after its instant.
  unsigned Ran = Count;
  int32_t Code = 0;
  if (Native) {
    // The native step runs on the state block itself and fills the same
    // flush rows the interpreter would.
    Ran = Native->run(Slots.data() + BlockBase, TickBuf.data(), BatchCap,
                      InSlots.data(), BatchCap, OutPresent.data(),
                      OutSlots.data(), Count, Code);
  } else {
    BatchPort P;
    P.Ticks = TickBuf.data();
    P.Ins = InSlots.data();
    P.Cap = BatchCap;
    P.OutPresent = OutPresent.data();
    P.Outs = OutSlots.data();
    P.FlushPos = FlushPos.data();
    P.NumOut = NumOut;

    for (unsigned I = 0; I < Count; ++I) {
      P.I = I;
      if ((Code = execInstant(P))) {
        Ran = I + 1;
        break;
      }
    }
  }
  if (Code)
    Failure = ClockCheckFailure::fromCode(Code, Start + Ran - 1);

  // One crossing back: flush the window's outputs instant by instant, up
  // to and including a failed check's instant.
  Env.exchangeOutputs(Start, Ran, NumOut, FlushIds.data(), OutPresent.data(),
                      OutSlots.data());
  return Ran;
}

unsigned VmExecutor::run(Environment &Env, unsigned Count) {
  return runWindows(*this, Env, 0, Count, UnbatchedWindow);
}

unsigned sigc::runWindows(VmExecutor &Exec, Environment &Env, unsigned At,
                          unsigned Count, unsigned Window,
                          TierController *Tier) {
  Window = std::max(Window, 1u);
  unsigned Ran = 0;
  while (Ran < Count) {
    if (Tier && !Exec.native() && Tier->shouldPromote())
      Exec.setNative(Tier->module());
    unsigned N = Exec.stepN(Env, At + Ran, std::min(Window, Count - Ran));
    Ran += N;
    if (Tier) {
      if (Exec.native())
        Tier->noteNativeInstants(N);
      else
        Tier->noteVmInstants(N);
    }
    if (Exec.checkFailure())
      break;
  }
  return Ran;
}
