//===--- Slot.h - Untagged 8-byte value slots -------------------*- C++-*-===//
///
/// \file
/// The one runtime value representation shared by the VM, its native
/// twin, the environment's exchange and the trace codec: an untagged
/// 8-byte VmSlot whose type is static (a descriptor's declared type or a
/// step slot's SlotType). Tagged Values meet slots only at the edge of
/// what computes on Values (KernelInterp, recorded OutputEvents), and
/// toSlot/fromSlot are the one conversion in each direction.
///
/// The text of a slot (appendSlotText) is Value::str()'s for the Value of
/// that type, so an output line rendered from a slot and one rendered
/// from the recorded OutputEvent are the same bytes: appendOutputLine is
/// the one line formatter behind formatEvents and the CLI's streamed
/// --simulate text.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_INTERP_SLOT_H
#define SIGNALC_INTERP_SLOT_H

#include "ast/Value.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace sigc {

/// One untagged 8-byte value slot.
union VmSlot {
  int64_t I; ///< Integers; booleans and events as 0/1.
  double R;  ///< Reals.
};

/// The slot of a Value of type \p K. Numbers convert: an integer for a
/// real slot widens, a real for an integer slot truncates as the emitted
/// C's conversion does (out of range, x86's answer INT64_MIN, defined).
inline VmSlot toSlot(const Value &V, TypeKind K) {
  VmSlot S;
  if (K == TypeKind::Real) {
    S.R = V.Kind == TypeKind::Integer ? static_cast<double>(V.Int) : V.Real;
  } else if (V.Kind == TypeKind::Real) {
    bool InRange =
        V.Real >= -9223372036854775808.0 && V.Real < 9223372036854775808.0;
    S.I = InRange ? static_cast<int64_t>(V.Real) : INT64_MIN;
  } else {
    S.I = V.isBoolish() ? V.Bool : V.Int;
  }
  return S;
}

/// The Value a slot of type \p K holds.
inline Value fromSlot(VmSlot S, TypeKind K) {
  switch (K) {
  case TypeKind::Real:
    return Value::makeReal(S.R);
  case TypeKind::Boolean:
    return Value::makeBool(S.I != 0);
  case TypeKind::Event: {
    Value V = Value::makeEvent();
    V.Bool = S.I != 0;
    return V;
  }
  case TypeKind::Integer:
  case TypeKind::Unknown:
    break;
  }
  return Value::makeInt(S.I);
}

/// Appends the text of slot \p S read as type \p K: what Value::str()
/// prints for a Value of type K holding S, without the temporaries.
void appendSlotText(std::string &Out, VmSlot S, TypeKind K);

/// Appends the output line `<instant> <name>=<value>\n`, the value
/// rendered by \p K (appendSlotText).
void appendOutputLine(std::string &Out, unsigned Instant,
                      std::string_view Name, VmSlot S, TypeKind K);

} // namespace sigc

#endif // SIGNALC_INTERP_SLOT_H
