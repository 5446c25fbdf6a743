//===--- CEmitter.cpp -----------------------------------------------------===//

#include "codegen/CEmitter.h"

#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>

using namespace sigc;

std::string sigc::sanitizeIdent(const std::string &Name) {
  std::string Out;
  for (char C : Name) {
    if ((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
        (C >= '0' && C <= '9') || C == '_') {
      Out += C;
      continue;
    }
    switch (C) {
    case '^':
      Out += "ck_";
      break;
    case '[':
      Out += "on_";
      break;
    case '~':
      Out += "not_";
      break;
    case ']':
      break;
    default:
      Out += '_';
      break;
    }
  }
  if (Out.empty() || (Out[0] >= '0' && Out[0] <= '9'))
    Out = "x" + Out;
  return Out;
}

namespace {

/// C storage class of a slot: the three distinct C types a Value can
/// materialize as. Boolean and Event share `int`.
enum class CClass { Int, Long, Double };

CClass classOf(TypeKind K) {
  switch (K) {
  case TypeKind::Integer:
    return CClass::Long;
  case TypeKind::Real:
    return CClass::Double;
  case TypeKind::Boolean:
  case TypeKind::Event:
  case TypeKind::Unknown:
    return CClass::Int;
  }
  return CClass::Int;
}

const char *cTypeOf(CClass C) {
  switch (C) {
  case CClass::Int:
    return "int";
  case CClass::Long:
    return "long";
  case CClass::Double:
    return "double";
  }
  return "int";
}

const char *cTypeOf(TypeKind T) { return cTypeOf(classOf(T)); }

unsigned classBit(CClass C) { return 1u << static_cast<unsigned>(C); }

std::string intLit(int64_t I) {
  // INT64_MIN has no literal spelling: -9223372036854775808 parses as
  // unary minus applied to an out-of-range constant.
  if (I == INT64_MIN)
    return "(-9223372036854775807L - 1L)";
  std::string S = std::to_string(I) + "L";
  return I < 0 ? "(" + S + ")" : S;
}

std::string realLit(double D) {
  // Build-time folds can produce non-finite constants (1e308 + 1e308);
  // %.17g would print them as the identifiers inf/nan, which are not C.
  if (D != D)
    return "(0.0 / 0.0)";
  if (D == HUGE_VAL)
    return "(1.0 / 0.0)";
  if (D == -HUGE_VAL)
    return "(-1.0 / 0.0)";
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", D);
  std::string S = Buf;
  // Force a floating literal when %.17g printed an integer form.
  if (S.find_first_of(".eE") == std::string::npos)
    S += ".0";
  return D < 0 ? "(" + S + ")" : S;
}

std::string cLiteral(const Value &V) {
  switch (V.Kind) {
  case TypeKind::Boolean:
  case TypeKind::Event:
    return V.Bool ? "1" : "0";
  case TypeKind::Integer:
    return intLit(V.Int);
  case TypeKind::Real:
    return realLit(V.Real);
  case TypeKind::Unknown:
    return "0";
  }
  return "0";
}

/// One expression operand: a slot (with its kind) or an inlined constant.
struct Operand {
  bool IsConst = false;
  int32_t Slot = -1;
  TypeKind Kind = TypeKind::Unknown;
  Value Const;
};

/// Renders one CompiledStep as C.
class Emitter {
public:
  Emitter(const CompiledStep &CS, std::string ProcName,
          const CEmitOptions &Options)
      : CS(CS), Proc(std::move(ProcName)), Options(Options) {}

  std::string run();

private:
  unsigned numSlots() const { return CS.NumValueSlots + CS.NumTempSlots; }

  /// Pass 1: take the per-instruction kinds from CompiledStep::kinds()
  /// (the kinds VmExecutor's typed handlers are chosen by, which is what
  /// makes the emitted C bit-compatible with the VM) and record which C
  /// classes each slot materializes as.
  void annotate();

  std::string clockVar(int32_t Slot) const {
    return "c" + std::to_string(Slot);
  }
  std::string valueVar(int32_t Slot, TypeKind K) const;
  /// The state block slot of delay \p Index, by its member.
  std::string stateSlot(int32_t Index) const {
    return "st->s[" + std::to_string(Index) + "]." +
           slotMember(CS.StateInit[Index].Kind);
  }

  Operand operandA(const VmInstr &In, const InstrKinds &IK) const;
  Operand operandB(const VmInstr &In, const InstrKinds &IK) const;
  std::string text(const Operand &O) const;
  std::string binaryExpr(BinaryOp Op, const Operand &L,
                         const Operand &R) const;
  std::string instrStmt(size_t PC) const;

  void emitBody(std::string &Out) const;
  void emitDriver(std::string &Out) const;

  const CompiledStep &CS;
  std::string Proc;
  CEmitOptions Options;

  std::vector<InstrKinds> Kinds;     ///< Per instruction, from annotate().
  std::vector<unsigned> SlotClasses; ///< Bitmask of CClass per slot.
};

void Emitter::annotate() {
  Kinds = CS.kinds();
  SlotClasses.assign(numSlots(), 0u);
  auto touch = [&](int32_t Slot, TypeKind K) {
    SlotClasses[Slot] |= classBit(classOf(K));
  };
  for (size_t PC = 0; PC < CS.Code.size(); ++PC) {
    const VmInstr &In = CS.Code[PC];
    const InstrKinds &IK = Kinds[PC];
    switch (In.Op) {
    case VmOp::SkipIfAbsent:
    case VmOp::ReadClockInput:
    case VmOp::EvalClockAnd:
    case VmOp::EvalClockOr:
    case VmOp::EvalClockDiff:
    case VmOp::CopyClock:
    case VmOp::SetClockFalse:
    case VmOp::CheckClockEq:
      continue;
    case VmOp::EvalClockLiteral:
    case VmOp::StoreDelay:
    case VmOp::WriteOutput:
      touch(In.A, IK.A);
      continue;
    case VmOp::BinarySS:
    case VmOp::Select:
      touch(In.B, IK.B);
      [[fallthrough]];
    case VmOp::UnarySlot:
    case VmOp::BinarySC:
    case VmOp::CopyValue:
      touch(In.A, IK.A);
      break;
    case VmOp::BinaryCS:
      touch(In.B, IK.B);
      break;
    case VmOp::ReadSignal:
    case VmOp::LoadConst:
    case VmOp::LoadDelay:
      break;
    }
    touch(In.Target, IK.Res);
  }
}

std::string Emitter::valueVar(int32_t Slot, TypeKind K) const {
  std::string Name = "v" + std::to_string(Slot);
  // One C variable per (slot, storage class): scratch slots are reused
  // across expression trees of different types, so a multi-class slot
  // splits into suffixed locals; the common single-class slot keeps the
  // bare name.
  unsigned Mask = SlotClasses[Slot];
  if ((Mask & (Mask - 1)) != 0) {
    switch (classOf(K)) {
    case CClass::Int:
      Name += "_i";
      break;
    case CClass::Long:
      Name += "_l";
      break;
    case CClass::Double:
      Name += "_d";
      break;
    }
  }
  return Name;
}

Operand Emitter::operandA(const VmInstr &In, const InstrKinds &IK) const {
  Operand O;
  if (In.Op == VmOp::BinaryCS) {
    O.IsConst = true;
    O.Const = CS.Consts[In.A];
    O.Kind = O.Const.Kind;
  } else {
    O.Slot = In.A;
    O.Kind = IK.A;
  }
  return O;
}

Operand Emitter::operandB(const VmInstr &In, const InstrKinds &IK) const {
  Operand O;
  if (In.Op == VmOp::BinarySC) {
    O.IsConst = true;
    O.Const = CS.Consts[In.B];
    O.Kind = O.Const.Kind;
  } else {
    O.Slot = In.B;
    O.Kind = IK.B;
  }
  return O;
}

std::string Emitter::text(const Operand &O) const {
  return O.IsConst ? cLiteral(O.Const) : valueVar(O.Slot, O.Kind);
}

std::string Emitter::binaryExpr(BinaryOp Op, const Operand &L,
                                const Operand &R) const {
  std::string X = text(L), Y = text(R);
  bool BothInt = L.Kind == TypeKind::Integer && R.Kind == TypeKind::Integer;
  auto wrap = [&](const char *COp) {
    // The VM's two's-complement wrapping semantics (Kernel.h wrapAdd &
    // co): compute in unsigned, convert back.
    return "(long)((unsigned long)" + X + " " + COp + " (unsigned long)" +
           Y + ")";
  };
  auto dbl = [&](const std::string &E) { return "(double)" + E; };
  switch (Op) {
  case BinaryOp::Add:
    return BothInt ? wrap("+") : "(" + dbl(X) + " + " + dbl(Y) + ")";
  case BinaryOp::Sub:
    return BothInt ? wrap("-") : "(" + dbl(X) + " - " + dbl(Y) + ")";
  case BinaryOp::Mul:
    return BothInt ? wrap("*") : "(" + dbl(X) + " * " + dbl(Y) + ")";
  case BinaryOp::Div:
    if (BothInt) {
      // Division by zero yields zero; by minus one, wrapping negation
      // (INT64_MIN / -1 overflows). Constant divisors fold the guards.
      std::string NegX = "(long)(0UL - (unsigned long)" + X + ")";
      if (R.IsConst) {
        if (R.Const.Int == 0)
          return "0L";
        if (R.Const.Int == -1)
          return NegX;
        return "(" + X + " / " + Y + ")";
      }
      return "(" + Y + " == 0 ? 0L : " + Y + " == -1 ? " + NegX + " : " + X +
             " / " + Y + ")";
    }
    if (R.IsConst)
      return R.Const.asReal() == 0.0
                 ? "0.0"
                 : "(" + dbl(X) + " / " + dbl(Y) + ")";
    return "(" + dbl(Y) + " == 0.0 ? 0.0 : " + dbl(X) + " / " + dbl(Y) + ")";
  case BinaryOp::Mod:
    // Euclidean-style remainder with the VM's zero/minus-one escapes.
    if (R.IsConst) {
      if (R.Const.Int == 0 || R.Const.Int == -1)
        return "0L";
      return "(((" + X + " % " + Y + ") + " + Y + ") % " + Y + ")";
    }
    return "((" + Y + " == 0 || " + Y + " == -1) ? 0L : ((" + X + " % " + Y +
           ") + " + Y + ") % " + Y + ")";
  case BinaryOp::And:
    return "(" + X + " && " + Y + ")";
  case BinaryOp::Or:
    return "(" + X + " || " + Y + ")";
  case BinaryOp::Xor:
    return "((" + X + " != 0) != (" + Y + " != 0))";
  case BinaryOp::Eq:
  case BinaryOp::Ne: {
    const char *COp = Op == BinaryOp::Eq ? "==" : "!=";
    // Sema only compares numbers with numbers and boolish operands (both
    // 0/1 ints, an event an always-true boolean) with each other.
    bool Mixed = !BothInt && (L.Kind == TypeKind::Real ||
                              R.Kind == TypeKind::Real);
    if (Mixed) // evalBinaryValue widens to double
      return "(" + dbl(X) + " " + COp + " " + dbl(Y) + ")";
    // X = X is a legal program; identity casts keep the comparison
    // semantics while silencing -Wtautological-compare (the VM does not
    // fold it either — the two backends stay instruction-equal).
    if (!L.IsConst && !R.IsConst && L.Slot == R.Slot) {
      const char *CT = BothInt ? "long" : "int";
      return "((" + std::string(CT) + ")(" + X + ") " + COp + " (" + CT +
             ")(" + Y + "))";
    }
    return "(" + X + " " + COp + " " + Y + ")";
  }
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge: {
    // Orderings go through asReal() in the VM, ints included.
    const char *COp = Op == BinaryOp::Lt   ? "<"
                      : Op == BinaryOp::Le ? "<="
                      : Op == BinaryOp::Gt ? ">"
                                           : ">=";
    return "(" + dbl(X) + " " + COp + " " + dbl(Y) + ")";
  }
  }
  return "0";
}

std::string Emitter::instrStmt(size_t PC) const {
  const VmInstr &In = CS.Code[PC];
  const InstrKinds &IK = Kinds[PC];
  switch (In.Op) {
  case VmOp::SkipIfAbsent:
    assert(false && "structured control handled by emitBody");
    return "";
  case VmOp::ReadClockInput:
    return clockVar(In.Target) + " = in->tick_" +
           sanitizeIdent(CS.ClockInputs[In.Aux].Name) + ";";
  case VmOp::EvalClockLiteral:
    return clockVar(In.Target) + " = " + (In.Aux != 0 ? "" : "!") +
           valueVar(In.A, IK.A) + ";";
  case VmOp::EvalClockAnd:
    return clockVar(In.Target) + " = " + clockVar(In.A) + " && " +
           clockVar(In.B) + ";";
  case VmOp::EvalClockOr:
    return clockVar(In.Target) + " = " + clockVar(In.A) + " || " +
           clockVar(In.B) + ";";
  case VmOp::EvalClockDiff:
    return clockVar(In.Target) + " = " + clockVar(In.A) + " && !" +
           clockVar(In.B) + ";";
  case VmOp::CopyClock:
    return clockVar(In.Target) + " = " + clockVar(In.A) + ";";
  case VmOp::SetClockFalse:
    return clockVar(In.Target) + " = 0;";
  case VmOp::ReadSignal:
    return valueVar(In.Target, IK.Res) + " = in->" +
           sanitizeIdent(CS.Inputs[In.Aux].Name) + ";";
  case VmOp::UnarySlot: {
    std::string A = valueVar(In.A, IK.A);
    std::string E;
    if (static_cast<UnaryOp>(In.Aux) == UnaryOp::Not)
      E = "!" + A;
    else if (IK.A == TypeKind::Integer)
      E = "(long)(0UL - (unsigned long)" + A + ")";
    else
      E = "-" + A;
    return valueVar(In.Target, IK.Res) + " = " + E + ";";
  }
  case VmOp::BinarySS:
  case VmOp::BinarySC:
  case VmOp::BinaryCS:
    return valueVar(In.Target, IK.Res) + " = " +
           binaryExpr(static_cast<BinaryOp>(In.Aux), operandA(In, IK),
                      operandB(In, IK)) +
           ";";
  case VmOp::CopyValue:
    return valueVar(In.Target, IK.Res) + " = " + valueVar(In.A, IK.A) + ";";
  case VmOp::LoadConst:
    return valueVar(In.Target, IK.Res) + " = " + cLiteral(CS.Consts[In.Aux]) +
           ";";
  case VmOp::Select:
    return valueVar(In.Target, IK.Res) + " = " + clockVar(In.Aux) + " ? " +
           valueVar(In.A, IK.A) + " : " + valueVar(In.B, IK.B) + ";";
  case VmOp::LoadDelay:
    return valueVar(In.Target, IK.Res) + " = " + stateSlot(In.A) + ";";
  case VmOp::StoreDelay:
    return stateSlot(In.Target) + " = " + valueVar(In.A, IK.A) + ";";
  case VmOp::WriteOutput: {
    std::string Id = sanitizeIdent(CS.Outputs[In.Aux].Name);
    return "out->" + Id + "_present = 1; out->" + Id + " = " +
           valueVar(In.A, IK.A) + ";";
  }
  case VmOp::CheckClockEq: {
    // A negative slot reads as absent. The failure code is
    // ClockCheckFailure::code's.
    std::string A = In.A >= 0 ? clockVar(In.A) : "0";
    std::string B = In.B >= 0 ? clockVar(In.B) : "0";
    return "if (" + A + " != " + B + ") return " + A + " ? " +
           std::to_string(ClockCheckFailure::code(In.Aux, true)) + " : " +
           std::to_string(ClockCheckFailure::code(In.Aux, false)) + ";";
  }
  }
  return "";
}

void Emitter::emitBody(std::string &Out) const {
  // The skip offsets are properly nested (each SkipIfAbsent jumps past
  // its own block's lowering), so the stream reconstructs as structured
  // if-nesting: open an `if` at every skip, close it when the PC reaches
  // the recorded offset. Executed-instruction weights accumulate per
  // straight-line region and flush as one counter update at each control
  // boundary — the C step's counters land exactly on the VM's.
  std::vector<int32_t> CloseAt;
  unsigned Indent = 2;
  int64_t PendingExec = 0;
  auto pad = [&]() { return std::string(Indent, ' '); };
  auto flushExec = [&]() {
    if (PendingExec > 0)
      Out += pad() + "st->executed += " + std::to_string(PendingExec) +
             "ULL;\n";
    PendingExec = 0;
  };

  const int32_t End = static_cast<int32_t>(CS.Code.size());
  for (int32_t PC = 0; PC <= End; ++PC) {
    while (!CloseAt.empty() && CloseAt.back() == PC) {
      flushExec();
      CloseAt.pop_back();
      Indent -= 2;
      Out += pad() + "}\n";
    }
    if (PC == End)
      break;
    const VmInstr &In = CS.Code[PC];
    if (In.Op == VmOp::SkipIfAbsent) {
      flushExec();
      Out += pad() + "st->guard_tests += 1ULL;\n";
      Out += pad() + "if (" + clockVar(In.A) + ") {\n";
      CloseAt.push_back(In.Aux);
      Indent += 2;
      continue;
    }
    if (In.Op == VmOp::CheckClockEq)
      flushExec(); // A failed check returns: count what ran first.
    PendingExec += In.Weight;
    Out += pad() + instrStmt(static_cast<size_t>(PC)) + "\n";
  }
  flushExec();
}

std::string Emitter::run() {
  annotate();

  std::string Out;
  Out += "/* Generated by signalc from process " + Proc + ".\n";
  Out += " * Lowered from CompiledStep bytecode: structured ifs from skip\n";
  Out += " * offsets, typed slot locals, build-time constant folds"
         " inlined.\n */\n";
  Out += "#include <string.h>\n";
  if (Options.WithDriver)
    Out += "#include <stdio.h>\n";
  Out += "\n";

  // State struct: the VM-pinned counters, then the delay memories in
  // 8-byte slots, the byte layout of VmExecutor's state block.
  Out += "typedef union { long i; double d; } " + Proc + "_slot_t;\n\n";
  Out += "typedef struct {\n";
  Out += "  unsigned long long guard_tests;\n";
  Out += "  unsigned long long executed;\n";
  if (!CS.StateInit.empty())
    Out += "  " + Proc + "_slot_t s[" + std::to_string(CS.StateInit.size()) +
           "];\n";
  Out += "} " + Proc + "_state_t;\n\n";

  // Input struct.
  Out += "typedef struct {\n";
  for (const auto &CI : CS.ClockInputs)
    Out += "  int tick_" + sanitizeIdent(CI.Name) + ";\n";
  for (const auto &SI : CS.Inputs)
    Out += "  " + std::string(cTypeOf(SI.Type)) + " " +
           sanitizeIdent(SI.Name) + ";\n";
  if (CS.ClockInputs.empty() && CS.Inputs.empty())
    Out += "  int unused;\n";
  Out += "} " + Proc + "_in_t;\n\n";

  // Output struct.
  Out += "typedef struct {\n";
  for (const auto &SO : CS.Outputs) {
    std::string Id = sanitizeIdent(SO.Name);
    Out += "  int " + Id + "_present;\n";
    Out += "  " + std::string(cTypeOf(SO.Type)) + " " + Id + ";\n";
  }
  if (CS.Outputs.empty())
    Out += "  int unused;\n";
  Out += "} " + Proc + "_out_t;\n\n";

  // Init.
  Out += "void " + Proc + "_init(" + Proc + "_state_t *st) {\n";
  for (unsigned I = 0; I < CS.StateInit.size(); ++I)
    Out += "  " + stateSlot(static_cast<int32_t>(I)) + " = " +
           cLiteral(CS.StateInit[I]) + ";\n";
  Out += "  st->guard_tests = 0ULL;\n";
  Out += "  st->executed = 0ULL;\n";
  Out += "}\n\n";

  // Step: one reaction; nonzero when a clock check failed.
  Out += "int " + Proc + "_step(" + Proc + "_state_t *st, const " + Proc +
         "_in_t *in, " + Proc + "_out_t *out) {\n";
  Out += "  memset(out, 0, sizeof *out);\n";
  for (unsigned I = 0; I < CS.NumClockSlots; ++I)
    Out += "  int c" + std::to_string(I) + " = 0;\n";
  // Slot locals: one variable per (slot, storage class) the bytecode
  // materializes; untouched slots need no local at all.
  std::vector<std::string> SlotVars;
  for (unsigned S = 0; S < numSlots(); ++S) {
    unsigned Mask = SlotClasses[S];
    if (!Mask)
      continue;
    for (CClass C : {CClass::Int, CClass::Long, CClass::Double}) {
      if (!(Mask & classBit(C)))
        continue;
      TypeKind K = C == CClass::Int      ? TypeKind::Boolean
                   : C == CClass::Long   ? TypeKind::Integer
                                         : TypeKind::Real;
      std::string Name = valueVar(static_cast<int32_t>(S), K);
      SlotVars.push_back(Name);
      Out += "  " + std::string(cTypeOf(C)) + " " + Name + " = 0;\n";
    }
  }
  Out += "\n";
  emitBody(Out);
  // Silence unused-variable warnings for slots only written.
  Out += "\n";
  for (unsigned I = 0; I < CS.NumClockSlots; ++I)
    Out += "  (void)c" + std::to_string(I) + ";";
  Out += "\n";
  for (const std::string &V : SlotVars)
    Out += "  (void)" + V + ";";
  Out += "\n  return 0;\n}\n\n";

  // Batched entry point: N reactions, one call — the C mirror of
  // VmExecutor::stepN (one crossing of the caller boundary per batch),
  // stopping after a failed clock check's instant.
  Out += "unsigned " + Proc + "_step_batch(" + Proc + "_state_t *st, const " +
         Proc + "_in_t *in, " + Proc + "_out_t *out, unsigned n) {\n";
  Out += "  unsigned i;\n";
  Out += "  for (i = 0; i < n; ++i)\n";
  Out += "    if (" + Proc + "_step(st, &in[i], &out[i]) != 0)\n";
  Out += "      return i + 1;\n";
  Out += "  return n;\n";
  Out += "}\n\n";

  if (Options.WithDriver)
    emitDriver(Out);
  return Out;
}

void Emitter::emitDriver(std::string &Out) const {
  Out += "\n/* Deterministic pseudo-random driver. */\n";
  Out += "static unsigned long rng_state = 0x12345678UL;\n";
  Out += "static unsigned long rng(void) {\n";
  Out += "  rng_state = rng_state * 6364136223846793005UL + "
         "1442695040888963407UL;\n";
  Out += "  return rng_state >> 33;\n}\n\n";
  Out += "int main(void) {\n";
  Out += "  " + Proc + "_state_t st;\n";
  Out += "  " + Proc + "_in_t in;\n";
  Out += "  " + Proc + "_out_t out;\n";
  Out += "  unsigned i;\n";
  Out += "  int r;\n";
  Out += "  " + Proc + "_init(&st);\n";
  Out += "  for (i = 0; i < " + std::to_string(Options.DriverSteps) +
         "; ++i) {\n";
  for (const auto &CI : CS.ClockInputs)
    Out += "    in.tick_" + sanitizeIdent(CI.Name) + " = 1;\n";
  for (const auto &SI : CS.Inputs) {
    std::string Id = sanitizeIdent(SI.Name);
    if (SI.Type == TypeKind::Boolean || SI.Type == TypeKind::Event)
      Out += "    in." + Id + " = (int)(rng() & 1);\n";
    else if (SI.Type == TypeKind::Integer)
      Out += "    in." + Id + " = (long)(rng() % 100);\n";
    else
      Out += "    in." + Id + " = (double)(rng() % 1000) / 10.0;\n";
  }
  Out += "    r = " + Proc + "_step(&st, &in, &out);\n";
  for (const auto &SO : CS.Outputs) {
    std::string Id = sanitizeIdent(SO.Name);
    const char *Fmt = (SO.Type == TypeKind::Real) ? "%f" : "%ld";
    if (SO.Type == TypeKind::Boolean || SO.Type == TypeKind::Event)
      Fmt = "%d";
    Out += "    if (out." + Id + "_present) printf(\"%u " + Id + "=" + Fmt +
           "\\n\", i, out." + Id + ");\n";
  }
  Out += "    if (r != 0) {\n";
  Out += "      fprintf(stderr, \"instant %u: clock check %d failed\\n\", i, "
         "(r > 0 ? r : -r) - 1);\n";
  Out += "      return 1;\n";
  Out += "    }\n";
  Out += "  }\n  return 0;\n}\n";
}

} // namespace

std::string sigc::emitC(const CompiledStep &Step, const std::string &ProcName,
                        const CEmitOptions &Options) {
  Emitter E(Step, ProcName, Options);
  return E.run();
}
