//===--- Slot.cpp ---------------------------------------------------------===//

#include "interp/Slot.h"

#include <charconv>

using namespace sigc;

void sigc::appendSlotText(std::string &Out, VmSlot S, TypeKind K) {
  // Wide enough for any double in fixed notation: 309 integer digits,
  // the sign, the point and six decimals.
  char Buf[328];
  std::to_chars_result R{Buf, std::errc()};
  switch (K) {
  case TypeKind::Unknown:
    Out += "<?>";
    return;
  case TypeKind::Event:
    Out += "tick";
    return;
  case TypeKind::Boolean:
    Out += S.I ? "true" : "false";
    return;
  case TypeKind::Integer:
    R = std::to_chars(Buf, Buf + sizeof Buf, S.I);
    break;
  case TypeKind::Real:
    // std::to_string's "%f": fixed, six decimals, printf's rounding.
    R = std::to_chars(Buf, Buf + sizeof Buf, S.R, std::chars_format::fixed, 6);
    break;
  }
  Out.append(Buf, R.ptr);
}

void sigc::appendOutputLine(std::string &Out, unsigned Instant,
                            std::string_view Name, VmSlot S, TypeKind K) {
  char Buf[16];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof Buf, Instant).ptr);
  Out += ' ';
  Out += Name;
  Out += '=';
  appendSlotText(Out, S, K);
  Out += '\n';
}
