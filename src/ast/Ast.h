//===--- Ast.h - SIGNAL abstract syntax -------------------------*- C++-*-===//
///
/// \file
/// AST for the implemented SIGNAL subset: the kernel of the paper's
/// Section 2.2 (functional expressions, delay "$", "when", "default",
/// composition "|") plus the derived operators of Section 2.3 ("event",
/// unary "when", "synchro", "cell", clock equality "^=").
///
/// Nodes are allocated in an AstContext arena and referenced by raw
/// pointers; the arena owns everything. Dynamic dispatch uses an explicit
/// Kind enum (no RTTI, per the coding standard).
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_AST_AST_H
#define SIGNALC_AST_AST_H

#include "ast/Value.h"
#include "support/SourceLoc.h"
#include "support/StringInterner.h"

#include <cassert>
#include <memory>
#include <vector>

namespace sigc {

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Discriminator for Expr subclasses.
enum class ExprKind {
  Name,      ///< Reference to a signal.
  Const,     ///< Literal constant.
  Unary,     ///< not E, -E
  Binary,    ///< E1 op E2 for pointwise functions f(X1..Xn)
  Delay,     ///< X $ 1 init v      (kernel: reference to the past)
  When,      ///< E when C          (kernel: downsampling)
  Default,   ///< E default F       (kernel: deterministic merge)
  Event,     ///< event X           (derived: the clock of X as a signal)
  UnaryWhen, ///< when C            (derived: C when C)
  Cell,      ///< X cell C init v   (derived: memorizing latch)
};

/// Operators for UnaryExpr. ToReal is kernel-only: lowering inserts it
/// wherever an integer meets a real (see Lowering.cpp); the parser never
/// produces it.
enum class UnaryOp { Not, Neg, ToReal };

/// Operators for BinaryExpr (the pointwise instantaneous functions).
enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  And,
  Or,
  Xor,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
};

/// \returns the SIGNAL spelling of \p Op ("+", "and", "/=", ...).
const char *unaryOpName(UnaryOp Op);
const char *binaryOpName(BinaryOp Op);
/// \returns true if \p Op always yields a boolean.
bool isPredicateOp(BinaryOp Op);
/// \returns true if \p Op requires boolean operands.
bool isLogicalOp(BinaryOp Op);

/// Base class of all expression nodes.
class Expr {
public:
  ExprKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

  /// The type assigned by sema; Unknown before type checking.
  TypeKind type() const { return Ty; }
  void setType(TypeKind T) { Ty = T; }

protected:
  Expr(ExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}
  ~Expr() = default;

private:
  ExprKind Kind;
  SourceLoc Loc;
  TypeKind Ty = TypeKind::Unknown;
};

/// Reference to a named signal.
class NameExpr : public Expr {
public:
  NameExpr(Symbol Name, SourceLoc Loc) : Expr(ExprKind::Name, Loc), Name(Name) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Name; }

  Symbol name() const { return Name; }

private:
  Symbol Name;
};

/// Literal constant.
class ConstExpr : public Expr {
public:
  ConstExpr(Value V, SourceLoc Loc) : Expr(ExprKind::Const, Loc), Val(V) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Const; }

  const Value &value() const { return Val; }

private:
  Value Val;
};

/// Unary pointwise function.
class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, Expr *Operand, SourceLoc Loc)
      : Expr(ExprKind::Unary, Loc), Op(Op), Operand(Operand) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Unary; }

  UnaryOp op() const { return Op; }
  Expr *operand() const { return Operand; }

private:
  UnaryOp Op;
  Expr *Operand;
};

/// Binary pointwise function; all operands share one clock (Table 1 row 1).
class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, Expr *LHS, Expr *RHS, SourceLoc Loc)
      : Expr(ExprKind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Binary; }

  BinaryOp op() const { return Op; }
  Expr *lhs() const { return LHS; }
  Expr *rhs() const { return RHS; }

private:
  BinaryOp Op;
  Expr *LHS;
  Expr *RHS;
};

/// "X $ 1 init v": the previous value of X, with initial value v.
/// Kernel restricts the depth to 1; deeper delays are desugared by sema.
class DelayExpr : public Expr {
public:
  DelayExpr(Expr *Operand, unsigned Depth, Value Init, SourceLoc Loc)
      : Expr(ExprKind::Delay, Loc), Operand(Operand), Depth(Depth),
        Init(Init) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Delay; }

  Expr *operand() const { return Operand; }
  unsigned depth() const { return Depth; }
  const Value &init() const { return Init; }

private:
  Expr *Operand;
  unsigned Depth;
  Value Init;
};

/// "E when C": downsampling (Table 1 row 4).
class WhenExpr : public Expr {
public:
  WhenExpr(Expr *Val, Expr *Cond, SourceLoc Loc)
      : Expr(ExprKind::When, Loc), Val(Val), Cond(Cond) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::When; }

  Expr *value() const { return Val; }
  Expr *condition() const { return Cond; }

private:
  Expr *Val;
  Expr *Cond;
};

/// "E default F": deterministic merge with priority to E (Table 1 row 3).
class DefaultExpr : public Expr {
public:
  DefaultExpr(Expr *Preferred, Expr *Alternative, SourceLoc Loc)
      : Expr(ExprKind::Default, Loc), Preferred(Preferred),
        Alternative(Alternative) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Default; }

  Expr *preferred() const { return Preferred; }
  Expr *alternative() const { return Alternative; }

private:
  Expr *Preferred;
  Expr *Alternative;
};

/// "event X": the clock of X reified as an always-true signal.
/// Derived: event X = (X = X).
class EventExpr : public Expr {
public:
  EventExpr(Expr *Operand, SourceLoc Loc)
      : Expr(ExprKind::Event, Loc), Operand(Operand) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Event; }

  Expr *operand() const { return Operand; }

private:
  Expr *Operand;
};

/// Unary "when C": derived, equals "C when C"; identified with the clock [C].
class UnaryWhenExpr : public Expr {
public:
  UnaryWhenExpr(Expr *Cond, SourceLoc Loc)
      : Expr(ExprKind::UnaryWhen, Loc), Cond(Cond) {}
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::UnaryWhen;
  }

  Expr *condition() const { return Cond; }

private:
  Expr *Cond;
};

/// "X cell C init v": X's value when X is present, otherwise the last value,
/// at the clock x̂ ∨ [C]. Derived operator, desugared by sema.
class CellExpr : public Expr {
public:
  CellExpr(Expr *Val, Expr *Cond, Value Init, SourceLoc Loc)
      : Expr(ExprKind::Cell, Loc), Val(Val), Cond(Cond), Init(Init) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Cell; }

  Expr *value() const { return Val; }
  Expr *condition() const { return Cond; }
  const Value &init() const { return Init; }

private:
  Expr *Val;
  Expr *Cond;
  Value Init;
};

//===----------------------------------------------------------------------===//
// Processes
//===----------------------------------------------------------------------===//

/// Discriminator for Process subclasses.
enum class ProcessKind {
  Equation,    ///< X := E
  Composition, ///< (| P1 | P2 | ... |)
  Synchro,     ///< synchro {E1, ..., En}: clock equality constraint
  ClockEq,     ///< E1 ^= E2: binary clock equality constraint
};

/// Base class of process (statement) nodes.
class Process {
public:
  ProcessKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

protected:
  Process(ProcessKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}
  ~Process() = default;

private:
  ProcessKind Kind;
  SourceLoc Loc;
};

/// A defining equation "X := E".
class EquationProc : public Process {
public:
  EquationProc(Symbol Target, Expr *RHS, SourceLoc Loc)
      : Process(ProcessKind::Equation, Loc), Target(Target), RHS(RHS) {}
  static bool classof(const Process *P) {
    return P->kind() == ProcessKind::Equation;
  }

  Symbol target() const { return Target; }
  Expr *rhs() const { return RHS; }

private:
  Symbol Target;
  Expr *RHS;
};

/// Parallel composition "(| P1 | ... | Pn |)": union of equation systems.
class CompositionProc : public Process {
public:
  CompositionProc(std::vector<Process *> Children, SourceLoc Loc)
      : Process(ProcessKind::Composition, Loc), Children(std::move(Children)) {}
  static bool classof(const Process *P) {
    return P->kind() == ProcessKind::Composition;
  }

  const std::vector<Process *> &children() const { return Children; }

private:
  std::vector<Process *> Children;
};

/// "synchro {E1, ..., En}": constrains all operand clocks to be equal.
class SynchroProc : public Process {
public:
  SynchroProc(std::vector<Expr *> Operands, SourceLoc Loc)
      : Process(ProcessKind::Synchro, Loc), Operands(std::move(Operands)) {}
  static bool classof(const Process *P) {
    return P->kind() == ProcessKind::Synchro;
  }

  const std::vector<Expr *> &operands() const { return Operands; }

private:
  std::vector<Expr *> Operands;
};

/// "E1 ^= E2": clock equality between two expressions.
class ClockEqProc : public Process {
public:
  ClockEqProc(Expr *LHS, Expr *RHS, SourceLoc Loc)
      : Process(ProcessKind::ClockEq, Loc), LHS(LHS), RHS(RHS) {}
  static bool classof(const Process *P) {
    return P->kind() == ProcessKind::ClockEq;
  }

  Expr *lhs() const { return LHS; }
  Expr *rhs() const { return RHS; }

private:
  Expr *LHS;
  Expr *RHS;
};

//===----------------------------------------------------------------------===//
// Declarations and programs
//===----------------------------------------------------------------------===//

/// Signal role in the process interface.
enum class SignalDir { Input, Output, Local };

/// Declaration of one signal.
struct SignalDecl {
  Symbol Name;
  TypeKind Type = TypeKind::Unknown;
  SignalDir Dir = SignalDir::Local;
  SourceLoc Loc;
};

/// A complete "process NAME = (? inputs ! outputs) body where locals end".
struct ProcessDecl {
  Symbol Name;
  std::vector<SignalDecl> Signals;
  Process *Body = nullptr;
  SourceLoc Loc;

  /// \returns the declaration of \p S, or nullptr.
  const SignalDecl *findSignal(Symbol S) const {
    for (const SignalDecl &D : Signals)
      if (D.Name == S)
        return &D;
    return nullptr;
  }
};

/// A parsed source file: one or more process declarations.
struct Program {
  std::vector<ProcessDecl *> Processes;

  const ProcessDecl *findProcess(Symbol Name) const {
    for (const ProcessDecl *P : Processes)
      if (P->Name == Name)
        return P;
    return nullptr;
  }
};

//===----------------------------------------------------------------------===//
// Arena and cast helpers
//===----------------------------------------------------------------------===//

/// Owns every AST node of one compilation.
class AstContext {
public:
  template <typename T, typename... Args> T *create(Args &&...As) {
    auto Node = std::make_unique<Holder<T>>(std::forward<Args>(As)...);
    T *Ptr = &Node->Object;
    Allocations.push_back(std::move(Node));
    return Ptr;
  }

  StringInterner &interner() { return Interner; }
  const StringInterner &interner() const { return Interner; }

private:
  struct HolderBase {
    virtual ~HolderBase() = default;
  };
  template <typename T> struct Holder final : HolderBase {
    template <typename... Args>
    explicit Holder(Args &&...As) : Object(std::forward<Args>(As)...) {}
    T Object;
  };

  std::vector<std::unique_ptr<HolderBase>> Allocations;
  StringInterner Interner;
};

/// Minimal LLVM-style cast helpers driven by classof().
template <typename To, typename From> bool isa(const From *Node) {
  assert(Node && "isa<> on null node");
  return To::classof(Node);
}

template <typename To, typename From> To *cast(From *Node) {
  assert(isa<To>(Node) && "cast<> to incompatible type");
  return static_cast<To *>(Node);
}

template <typename To, typename From> const To *cast(const From *Node) {
  assert(isa<To>(Node) && "cast<> to incompatible type");
  return static_cast<const To *>(Node);
}

template <typename To, typename From> To *dyn_cast(From *Node) {
  return isa<To>(Node) ? static_cast<To *>(Node) : nullptr;
}

template <typename To, typename From> const To *dyn_cast(const From *Node) {
  return isa<To>(Node) ? static_cast<const To *>(Node) : nullptr;
}

} // namespace sigc

#endif // SIGNALC_AST_AST_H
