//===--- Value.h - Runtime/constant values ----------------------*- C++-*-===//
///
/// \file
/// A small tagged value used both for constants in the AST and for signal
/// values in the interpreter. SIGNAL's basic types in this implementation
/// are event, boolean, integer and real.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_AST_VALUE_H
#define SIGNALC_AST_VALUE_H

#include <cassert>
#include <cstdint>
#include <string>

namespace sigc {

/// The scalar types of the implemented SIGNAL subset.
enum class TypeKind {
  Unknown, ///< Not yet inferred.
  Event,   ///< Always-true boolean; identified with its own clock.
  Boolean,
  Integer,
  Real,
};

/// \returns the SIGNAL spelling of \p K ("boolean", "integer", ...).
const char *typeName(TypeKind K);

/// A constant or runtime scalar.
struct Value {
  TypeKind Kind = TypeKind::Unknown;
  bool Bool = false;
  int64_t Int = 0;
  double Real = 0.0;

  Value() = default;

  static Value makeBool(bool B) {
    Value V;
    V.Kind = TypeKind::Boolean;
    V.Bool = B;
    return V;
  }
  static Value makeEvent() {
    Value V;
    V.Kind = TypeKind::Event;
    V.Bool = true;
    return V;
  }
  static Value makeInt(int64_t I) {
    Value V;
    V.Kind = TypeKind::Integer;
    V.Int = I;
    return V;
  }
  static Value makeReal(double R) {
    Value V;
    V.Kind = TypeKind::Real;
    V.Real = R;
    return V;
  }

  bool isBoolish() const {
    return Kind == TypeKind::Boolean || Kind == TypeKind::Event;
  }

  /// Truthiness for boolean/event values; asserts on other kinds.
  bool asBool() const {
    assert(isBoolish() && "asBool() on non-boolean value");
    return Bool;
  }

  /// Numeric view (integer widened to double for mixed arithmetic).
  double asReal() const {
    switch (Kind) {
    case TypeKind::Integer:
      return static_cast<double>(Int);
    case TypeKind::Real:
      return Real;
    default:
      assert(false && "asReal() on non-numeric value");
      return 0.0;
    }
  }

  /// Structural equality, used by traces and the constant pool: kinds
  /// must match, except that integers and reals compare numerically. The
  /// SIGNAL `=` operator compares a boolean and an event by truth instead
  /// (see evalBinaryValue).
  bool operator==(const Value &RHS) const {
    if (Kind != RHS.Kind) {
      // Allow numeric cross-kind comparison (integer vs real).
      if ((Kind == TypeKind::Integer || Kind == TypeKind::Real) &&
          (RHS.Kind == TypeKind::Integer || RHS.Kind == TypeKind::Real))
        return asReal() == RHS.asReal();
      return false;
    }
    switch (Kind) {
    case TypeKind::Unknown:
    case TypeKind::Event:
      return true;
    case TypeKind::Boolean:
      return Bool == RHS.Bool;
    case TypeKind::Integer:
      return Int == RHS.Int;
    case TypeKind::Real:
      return Real == RHS.Real;
    }
    return false;
  }
  bool operator!=(const Value &RHS) const { return !(*this == RHS); }

  /// Renders the value as SIGNAL literal text.
  std::string str() const;
};

} // namespace sigc

#endif // SIGNALC_AST_VALUE_H
