//===--- Sema.cpp - Name resolution and type checking ---------------------===//

#include "sema/Sema.h"

using namespace sigc;

bool Sema::typesCompatible(TypeKind Target, TypeKind Source) const {
  if (Target == Source)
    return true;
  // Integer widens to real.
  if (Target == TypeKind::Real && Source == TypeKind::Integer)
    return true;
  // An event is an always-true boolean.
  if (Target == TypeKind::Boolean && Source == TypeKind::Event)
    return true;
  return false;
}

static bool isBoolish(TypeKind T) {
  return T == TypeKind::Boolean || T == TypeKind::Event;
}

static bool isNumeric(TypeKind T) {
  return T == TypeKind::Integer || T == TypeKind::Real;
}

TypeKind Sema::checkExpr(const ProcessDecl &D, Expr *E) {
  TypeKind Result = TypeKind::Unknown;
  switch (E->kind()) {
  case ExprKind::Name: {
    auto *N = cast<NameExpr>(E);
    auto It = NameTypes.find(N->name());
    if (It == NameTypes.end()) {
      Diags.error(E->loc(), "use of undeclared signal '" +
                                std::string(Ctx.interner().spelling(
                                    N->name())) +
                                "'");
      return TypeKind::Unknown;
    }
    Result = It->second;
    break;
  }
  case ExprKind::Const:
    Result = cast<ConstExpr>(E)->value().Kind;
    break;
  case ExprKind::Unary: {
    auto *U = cast<UnaryExpr>(E);
    TypeKind T = checkExpr(D, U->operand());
    if (T == TypeKind::Unknown)
      return TypeKind::Unknown;
    if (U->op() == UnaryOp::Not) {
      if (!isBoolish(T)) {
        Diags.error(E->loc(), "'not' requires a boolean operand, got " +
                                  std::string(typeName(T)));
        return TypeKind::Unknown;
      }
      Result = TypeKind::Boolean;
    } else {
      if (!isNumeric(T)) {
        Diags.error(E->loc(), "unary '-' requires a numeric operand, got " +
                                  std::string(typeName(T)));
        return TypeKind::Unknown;
      }
      Result = T;
    }
    break;
  }
  case ExprKind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    TypeKind L = checkExpr(D, B->lhs());
    TypeKind R = checkExpr(D, B->rhs());
    if (L == TypeKind::Unknown || R == TypeKind::Unknown)
      return TypeKind::Unknown;
    if (isLogicalOp(B->op())) {
      if (!isBoolish(L) || !isBoolish(R)) {
        Diags.error(E->loc(), std::string("'") + binaryOpName(B->op()) +
                                  "' requires boolean operands");
        return TypeKind::Unknown;
      }
      Result = TypeKind::Boolean;
    } else if (isPredicateOp(B->op())) {
      bool Comparable = (isNumeric(L) && isNumeric(R)) ||
                        (isBoolish(L) && isBoolish(R));
      // Ordering comparisons need numbers.
      if (B->op() != BinaryOp::Eq && B->op() != BinaryOp::Ne)
        Comparable = isNumeric(L) && isNumeric(R);
      if (!Comparable) {
        Diags.error(E->loc(), std::string("operands of '") +
                                  binaryOpName(B->op()) +
                                  "' have incompatible types " + typeName(L) +
                                  " and " + typeName(R));
        return TypeKind::Unknown;
      }
      Result = TypeKind::Boolean;
    } else {
      // Arithmetic.
      if (B->op() == BinaryOp::Mod) {
        if (L != TypeKind::Integer || R != TypeKind::Integer) {
          Diags.error(E->loc(), "'mod' requires integer operands");
          return TypeKind::Unknown;
        }
        Result = TypeKind::Integer;
      } else {
        if (!isNumeric(L) || !isNumeric(R)) {
          Diags.error(E->loc(), std::string("'") + binaryOpName(B->op()) +
                                    "' requires numeric operands");
          return TypeKind::Unknown;
        }
        Result = (L == TypeKind::Real || R == TypeKind::Real)
                     ? TypeKind::Real
                     : TypeKind::Integer;
      }
    }
    break;
  }
  case ExprKind::Delay: {
    auto *Dl = cast<DelayExpr>(E);
    TypeKind T = checkExpr(D, Dl->operand());
    if (T == TypeKind::Unknown)
      return TypeKind::Unknown;
    if (!isa<NameExpr>(Dl->operand())) {
      // The kernel's "$" applies to a signal; lowering introduces fresh
      // signals for expressions, so anything but a constant is fine.
      if (isa<ConstExpr>(Dl->operand())) {
        Diags.error(E->loc(), "'$' cannot be applied to a constant");
        return TypeKind::Unknown;
      }
    }
    if (T == TypeKind::Event) {
      Diags.error(E->loc(), "'$' cannot be applied to an event signal");
      return TypeKind::Unknown;
    }
    // As for 'cell': the initial value must be one the signal can hold
    // (an integer for a real signal, not a real for an integer one).
    if (!typesCompatible(T, Dl->init().Kind)) {
      Diags.error(E->loc(),
                  std::string("'init' value type ") +
                      typeName(Dl->init().Kind) +
                      " does not match delayed signal type " + typeName(T));
      return TypeKind::Unknown;
    }
    Result = T;
    break;
  }
  case ExprKind::When: {
    auto *W = cast<WhenExpr>(E);
    TypeKind V = checkExpr(D, W->value());
    TypeKind C = checkExpr(D, W->condition());
    if (V == TypeKind::Unknown || C == TypeKind::Unknown)
      return TypeKind::Unknown;
    if (C != TypeKind::Boolean) {
      Diags.error(W->condition()->loc(),
                  std::string("condition of 'when' must be boolean, got ") +
                      typeName(C));
      return TypeKind::Unknown;
    }
    Result = V;
    break;
  }
  case ExprKind::Default: {
    auto *Df = cast<DefaultExpr>(E);
    TypeKind L = checkExpr(D, Df->preferred());
    TypeKind R = checkExpr(D, Df->alternative());
    if (L == TypeKind::Unknown || R == TypeKind::Unknown)
      return TypeKind::Unknown;
    if (isNumeric(L) && isNumeric(R)) {
      // No implicit integer/real promotion across the merge: the arms'
      // runtime kinds would then depend on which arm is present each
      // instant, which no static lowering (the C emitter's typed slot
      // locals in particular) can reproduce. SIGNAL's default requires
      // like-typed operands; enforce it.
      if (L != R) {
        Diags.error(E->loc(), std::string("operands of 'default' must have "
                                          "the same numeric type, got ") +
                                  typeName(L) + " and " + typeName(R));
        return TypeKind::Unknown;
      }
      Result = L;
    } else if (isBoolish(L) && isBoolish(R)) {
      Result = (L == TypeKind::Event && R == TypeKind::Event)
                   ? TypeKind::Event
                   : TypeKind::Boolean;
    } else {
      Diags.error(E->loc(), std::string("operands of 'default' have "
                                        "incompatible types ") +
                                typeName(L) + " and " + typeName(R));
      return TypeKind::Unknown;
    }
    break;
  }
  case ExprKind::Event: {
    TypeKind T = checkExpr(D, cast<EventExpr>(E)->operand());
    if (T == TypeKind::Unknown)
      return TypeKind::Unknown;
    Result = TypeKind::Event;
    break;
  }
  case ExprKind::UnaryWhen: {
    TypeKind C = checkExpr(D, cast<UnaryWhenExpr>(E)->condition());
    if (C == TypeKind::Unknown)
      return TypeKind::Unknown;
    if (C != TypeKind::Boolean) {
      Diags.error(E->loc(),
                  std::string("operand of unary 'when' must be boolean, "
                              "got ") +
                      typeName(C));
      return TypeKind::Unknown;
    }
    Result = TypeKind::Event;
    break;
  }
  case ExprKind::Cell: {
    auto *C = cast<CellExpr>(E);
    TypeKind V = checkExpr(D, C->value());
    TypeKind B = checkExpr(D, C->condition());
    if (V == TypeKind::Unknown || B == TypeKind::Unknown)
      return TypeKind::Unknown;
    if (B != TypeKind::Boolean) {
      Diags.error(C->condition()->loc(),
                  "condition of 'cell' must be boolean");
      return TypeKind::Unknown;
    }
    if (!typesCompatible(V, C->init().Kind)) {
      Diags.error(E->loc(), "'init' value of 'cell' does not match value "
                            "type");
      return TypeKind::Unknown;
    }
    Result = V;
    break;
  }
  }
  E->setType(Result);
  return Result;
}

bool Sema::checkProcess(const ProcessDecl &D, const Process *P) {
  switch (P->kind()) {
  case ProcessKind::Equation: {
    const auto *E = cast<EquationProc>(P);
    std::string TargetName(Ctx.interner().spelling(E->target()));
    auto TyIt = NameTypes.find(E->target());
    if (TyIt == NameTypes.end()) {
      Diags.error(P->loc(),
                  "equation defines undeclared signal '" + TargetName + "'");
      return false;
    }
    const SignalDecl *SD = D.findSignal(E->target());
    if (SD && SD->Dir == SignalDir::Input) {
      Diags.error(P->loc(),
                  "input signal '" + TargetName + "' cannot be defined");
      return false;
    }
    auto [It, Inserted] = Defined.emplace(E->target(), P->loc());
    (void)It;
    if (!Inserted) {
      Diags.error(P->loc(),
                  "signal '" + TargetName + "' is defined more than once");
      return false;
    }
    TypeKind RhsTy = checkExpr(D, E->rhs());
    if (RhsTy == TypeKind::Unknown)
      return false;
    if (!typesCompatible(TyIt->second, RhsTy)) {
      Diags.error(P->loc(), "cannot define " +
                                std::string(typeName(TyIt->second)) +
                                " signal '" + TargetName + "' with a " +
                                typeName(RhsTy) + " expression");
      return false;
    }
    return true;
  }
  case ProcessKind::Composition: {
    bool Ok = true;
    for (const Process *Child : cast<CompositionProc>(P)->children())
      Ok &= checkProcess(D, Child);
    return Ok;
  }
  case ProcessKind::Synchro: {
    bool Ok = true;
    for (Expr *Op : cast<SynchroProc>(P)->operands())
      Ok &= checkExpr(D, Op) != TypeKind::Unknown;
    return Ok;
  }
  case ProcessKind::ClockEq: {
    const auto *C = cast<ClockEqProc>(P);
    return checkExpr(D, C->lhs()) != TypeKind::Unknown &&
           checkExpr(D, C->rhs()) != TypeKind::Unknown;
  }
  }
  return false;
}
