//===--- Kernel.h - Flattened kernel-SIGNAL programs ------------*- C++-*-===//
///
/// \file
/// The kernel program form every later phase works on: each derived
/// operator has been rewritten away and every equation is one of the four
/// kernel statements of the paper's Section 2.2 (Table 1):
///
///   Func     Y := f(A1, ..., An)     pointwise function over synchronous
///                                    operands (f may be an operator tree,
///                                    but all signal operands share ŷ)
///   Delay    Y := X $ 1 init v      previous value, ŷ = x̂
///   When     Y := A when C          downsampling, ŷ = â ∧ [C]
///   Default  Y := A default B       merge, ŷ = â ∨ b̂
///
/// plus clock-equality constraints contributed by "synchro"/"^=".
///
/// Operands are atoms: either a signal reference or a literal constant
/// (constants adapt to the context clock and impose no clock constraint).
/// Nested expressions are flattened by Lowering.cpp, which introduces fresh
/// signals for intermediate results.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_SEMA_KERNEL_H
#define SIGNALC_SEMA_KERNEL_H

#include "ast/Ast.h"

#include <string>
#include <vector>

namespace sigc {

/// Index of a signal inside a KernelProgram.
using SignalId = uint32_t;
constexpr SignalId InvalidSignal = 0xFFFFFFFFu;

/// An operand of a kernel equation: a signal or a literal.
struct Atom {
  bool IsConst = false;
  SignalId Sig = InvalidSignal;
  Value Const;

  static Atom signal(SignalId S) {
    Atom A;
    A.Sig = S;
    return A;
  }
  static Atom constant(Value V) {
    Atom A;
    A.IsConst = true;
    A.Const = V;
    return A;
  }

  bool isSignal() const { return !IsConst; }
};

/// Pointwise operator tree for Func equations. Leaves are indices into the
/// equation's operand list (for signals) or inline constants; inner nodes
/// are the instantaneous functions of the host language.
struct FuncNode {
  enum class Kind { Arg, Const, Unary, Binary } Kind = Kind::Const;
  unsigned ArgIndex = 0; ///< For Kind::Arg: index into KernelEq::Args.
  Value Const;           ///< For Kind::Const.
  UnaryOp UOp = UnaryOp::Not;
  BinaryOp BOp = BinaryOp::Add;
  int Lhs = -1; ///< Child indices into KernelEq::Nodes; -1 = none.
  int Rhs = -1;
};

/// The four kernel statement forms.
enum class KernelEqKind {
  Func,    ///< Y := f(A1..An)
  Delay,   ///< Y := X $ 1 init v
  When,    ///< Y := A when C
  Default, ///< Y := A default B
};

/// One flattened kernel equation defining signal Target.
struct KernelEq {
  KernelEqKind Kind = KernelEqKind::Func;
  SignalId Target = InvalidSignal;
  SourceLoc Loc;

  // --- Func ---
  std::vector<SignalId> Args; ///< Signal operands (all synchronous with Y).
  std::vector<FuncNode> Nodes; ///< Operator tree; Nodes.back() is the root.

  // --- Delay ---
  SignalId DelaySource = InvalidSignal;
  Value DelayInit;

  // --- When ---
  Atom WhenValue;
  SignalId WhenCond = InvalidSignal;
  /// False for "when not C": the clock is [¬C] instead of [C]
  /// (Section 2.3 identifies "when (not C)" with the negative literal).
  bool WhenPositive = true;

  // --- Default ---
  SignalId DefaultPreferred = InvalidSignal;
  SignalId DefaultAlternative = InvalidSignal;
};

/// A signal of the flattened program.
struct KernelSignal {
  Symbol Name;
  TypeKind Type = TypeKind::Unknown;
  SignalDir Dir = SignalDir::Local;
  bool IsFresh = false; ///< Introduced by flattening (no user declaration).
  SourceLoc Loc;
};

/// A clock-equality constraint between two signals ("synchro", "^=",
/// or implied by the expansion of a derived operator).
struct ClockConstraint {
  SignalId First = InvalidSignal;
  SignalId Second = InvalidSignal;
  SourceLoc Loc;
};

/// A whole process in kernel form.
struct KernelProgram {
  Symbol Name;
  std::vector<KernelSignal> Signals;
  std::vector<KernelEq> Equations;
  std::vector<ClockConstraint> Constraints;

  /// Index of the defining equation for each signal; -1 for inputs and
  /// other free signals.
  std::vector<int> DefiningEq;

  const KernelSignal &signal(SignalId Id) const { return Signals[Id]; }
  unsigned numSignals() const { return static_cast<unsigned>(Signals.size()); }

  /// \returns the ids of all input signals, in declaration order.
  std::vector<SignalId> inputs() const;
  /// \returns the ids of all output signals, in declaration order.
  std::vector<SignalId> outputs() const;

  /// \returns the defining equation of \p Id, or nullptr for free signals.
  const KernelEq *definition(SignalId Id) const {
    if (Id >= DefiningEq.size() || DefiningEq[Id] < 0)
      return nullptr;
    return &Equations[DefiningEq[Id]];
  }

  /// Counts the boolean "variables" of the clock system in the paper's
  /// sense: one clock variable per signal plus two condition literals per
  /// boolean signal.
  unsigned countClockVariables() const;

  /// Renders the kernel program as readable text (for tests and -dump).
  std::string dump(const StringInterner &Names) const;
};

//===----------------------------------------------------------------------===//
// Scalar operator semantics
//===----------------------------------------------------------------------===//
//
// The single definition of what the host-language operators mean on
// Values, shared by the tree evaluator below and the step-VM's postfix
// bytecode (CompiledStep) so the two can never diverge. Inline: both
// evaluators run these per instruction per instant.

/// Two's-complement wrapping arithmetic: SIGNAL "integer" values wrap on
/// overflow (runaway accumulators are a legal program, not UB). Computing
/// through uint64_t keeps the C++ defined and matches what the emitted C
/// produces on the targets we run on.
inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
inline int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

/// Evaluates unary operator \p Op on \p V.
inline Value evalUnaryValue(UnaryOp Op, const Value &V) {
  if (Op == UnaryOp::Not)
    return Value::makeBool(!V.asBool());
  if (Op == UnaryOp::ToReal)
    return Value::makeReal(V.asReal());
  if (V.Kind == TypeKind::Integer)
    return Value::makeInt(wrapNeg(V.Int));
  return Value::makeReal(-V.asReal());
}

/// Result type of \p Op on an operand of type \p A (evalUnaryValue).
inline TypeKind unaryResultKind(UnaryOp Op, TypeKind A) {
  if (Op == UnaryOp::Not)
    return TypeKind::Boolean;
  return Op == UnaryOp::Neg && A == TypeKind::Integer ? TypeKind::Integer
                                                      : TypeKind::Real;
}

/// Result type of \p Op on operands of types \p L and \p R, as
/// evalBinaryValue computes it.
inline TypeKind binaryResultKind(BinaryOp Op, TypeKind L, TypeKind R) {
  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Mul:
  case BinaryOp::Div:
    return L == TypeKind::Integer && R == TypeKind::Integer ? TypeKind::Integer
                                                            : TypeKind::Real;
  case BinaryOp::Mod:
    return TypeKind::Integer;
  default:
    return TypeKind::Boolean;
  }
}

/// Evaluates binary operator \p Op on \p L and \p R.
inline Value evalBinaryValue(BinaryOp Op, const Value &L, const Value &R) {
  bool BothInt = L.Kind == TypeKind::Integer && R.Kind == TypeKind::Integer;
  switch (Op) {
  case BinaryOp::Add:
    return BothInt ? Value::makeInt(wrapAdd(L.Int, R.Int))
                   : Value::makeReal(L.asReal() + R.asReal());
  case BinaryOp::Sub:
    return BothInt ? Value::makeInt(wrapSub(L.Int, R.Int))
                   : Value::makeReal(L.asReal() - R.asReal());
  case BinaryOp::Mul:
    return BothInt ? Value::makeInt(wrapMul(L.Int, R.Int))
                   : Value::makeReal(L.asReal() * R.asReal());
  case BinaryOp::Div:
    // R == -1 is handled as negation: INT64_MIN / -1 overflows.
    if (BothInt)
      return Value::makeInt(R.Int == 0    ? 0
                            : R.Int == -1 ? wrapNeg(L.Int)
                                          : L.Int / R.Int);
    return Value::makeReal(R.asReal() == 0.0 ? 0.0 : L.asReal() / R.asReal());
  case BinaryOp::Mod:
    // x mod -1 = 0; also sidesteps the INT64_MIN % -1 overflow.
    return Value::makeInt((R.Int == 0 || R.Int == -1)
                              ? 0
                              : ((L.Int % R.Int) + R.Int) % R.Int);
  case BinaryOp::And:
    return Value::makeBool(L.asBool() && R.asBool());
  case BinaryOp::Or:
    return Value::makeBool(L.asBool() || R.asBool());
  case BinaryOp::Xor:
    return Value::makeBool(L.asBool() != R.asBool());
  case BinaryOp::Eq:
  case BinaryOp::Ne: {
    // Boolish operands compare by truth: sema accepts `=` between any
    // boolean/event pair, an event being an always-true boolean.
    // Value::operator== would call a boolean and an event unequal.
    bool Equal = L.isBoolish() && R.isBoolish() ? L.asBool() == R.asBool()
                                                : L == R;
    return Value::makeBool(Op == BinaryOp::Eq ? Equal : !Equal);
  }
  case BinaryOp::Lt:
    return Value::makeBool(L.asReal() < R.asReal());
  case BinaryOp::Le:
    return Value::makeBool(L.asReal() <= R.asReal());
  case BinaryOp::Gt:
    return Value::makeBool(L.asReal() > R.asReal());
  case BinaryOp::Ge:
    return Value::makeBool(L.asReal() >= R.asReal());
  }
  return Value::makeInt(0);
}

/// Evaluates a Func operator tree given the values of its signal operands.
/// Used by the fixpoint interpreter, the legacy step executor and constant
/// folding; the slot-VM flattens the same tree to postfix bytecode instead.
Value evalFuncTree(const KernelEq &Eq, const std::vector<Value> &ArgValues);

} // namespace sigc

#endif // SIGNALC_SEMA_KERNEL_H
