//===--- CEmitter.cpp -----------------------------------------------------===//
//
// Types come straight from the CompiledStep: a slot's C local has its
// SlotType, a constant its pool entry's kind. Lowering converted every
// integer meeting a real, so each operator is printed for one operand
// type, and a ToReal is the only conversion the C spells. A value
// operand past the scratch slots names a delay memory (a forwarded delay
// load) and reads its state field.
//
// The counters follow the VM's rule: each skip adds one guard test, and
// every other instruction but a clock check one executed instruction.
//
//===----------------------------------------------------------------------===//

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

/// The C type a value of type \p K materializes as. Boolean and Event
/// share `int`.
const char *cTypeOf(TypeKind K) {
  switch (K) {
  case TypeKind::Integer:
    return "long";
  case TypeKind::Real:
    return "double";
  case TypeKind::Boolean:
  case TypeKind::Event:
  case TypeKind::Unknown:
    break;
  }
  return "int";
}

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

/// One expression operand: a slot or an inlined constant, and its type.
struct Operand {
  bool IsConst = false;
  int32_t Slot = -1;
  TypeKind Type = TypeKind::Unknown;
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
  std::string clockVar(int32_t Slot) const {
    return "c" + std::to_string(Slot);
  }
  /// A value or scratch slot's local, or the state field a value
  /// operand past them names.
  std::string valueVar(int32_t Slot) const {
    return Slot < CS.valueEnd() ? "v" + std::to_string(Slot)
                                : stateSlot(Slot - CS.valueEnd());
  }
  /// The state block slot of delay \p Index, by its member.
  std::string stateSlot(int32_t Index) const {
    return "st->s[" + std::to_string(Index) + "]." +
           slotMember(CS.StateInit[Index].Kind);
  }

  /// Field \p I of space \p S as an expression operand.
  Operand operand(OperandSpace S, int32_t I) const {
    Operand O;
    O.IsConst = S == OperandSpace::Const;
    O.Slot = I;
    O.Type = CS.operandType(S, I);
    if (O.IsConst)
      O.Const = CS.Consts[I];
    return O;
  }
  std::string text(const Operand &O) const {
    return O.IsConst ? cLiteral(O.Const) : valueVar(O.Slot);
  }
  std::string binaryExpr(BinaryOp Op, const Operand &L,
                         const Operand &R) const;
  std::string instrStmt(size_t PC) const;

  void emitBody(std::string &Out) const;
  void emitDriver(std::string &Out) const;

  const CompiledStep &CS;
  std::string Proc;
  CEmitOptions Options;
};

std::string Emitter::binaryExpr(BinaryOp Op, const Operand &L,
                                const Operand &R) const {
  // Lowering left both operands of one C type, so L's type decides.
  std::string X = text(L), Y = text(R);
  bool Int = L.Type == TypeKind::Integer;
  auto arith = [&](const char *COp) {
    // The VM's two's-complement wrapping semantics (Kernel.h wrapAdd &
    // co): compute in unsigned, convert back.
    if (Int)
      return "(long)((unsigned long)" + X + " " + COp + " (unsigned long)" +
             Y + ")";
    return "(" + X + " " + COp + " " + Y + ")";
  };
  switch (Op) {
  case BinaryOp::Add:
    return arith("+");
  case BinaryOp::Sub:
    return arith("-");
  case BinaryOp::Mul:
    return arith("*");
  case BinaryOp::Div:
    if (Int) {
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
      return R.Const.Real == 0.0 ? "0.0" : "(" + X + " / " + Y + ")";
    return "(" + Y + " == 0.0 ? 0.0 : " + X + " / " + Y + ")";
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
    // Boolish operands are both 0/1 ints (an event an always-true
    // boolean). X = X is a legal program; identity casts keep the
    // comparison semantics while silencing -Wtautological-compare (the VM
    // does not fold it either — the two backends stay instruction-equal).
    if (!L.IsConst && !R.IsConst && L.Slot == R.Slot) {
      std::string CT = cTypeOf(L.Type);
      return "((" + CT + ")(" + X + ") " + COp + " (" + CT + ")(" + Y + "))";
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
    return "((double)" + X + " " + COp + " (double)" + Y + ")";
  }
  }
  return "0";
}

std::string Emitter::instrStmt(size_t PC) const {
  const VmInstr &In = CS.Code[PC];
  switch (In.Op) {
  case VmOp::SkipIfAbsent:
    assert(false && "structured control handled by emitBody");
    return "";
  case VmOp::ReadClockInput:
    return clockVar(In.Target) + " = in->tick_" +
           sanitizeIdent(CS.ClockInputs[In.Aux].Name) + ";";
  case VmOp::EvalClockLiteral:
    return clockVar(In.Target) + " = " + (In.Aux != 0 ? "" : "!") +
           valueVar(In.A) + ";";
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
    return valueVar(In.Target) + " = in->" +
           sanitizeIdent(CS.Inputs[In.Aux].Name) + ";";
  case VmOp::UnarySlot: {
    std::string A = valueVar(In.A);
    std::string E;
    switch (static_cast<UnaryOp>(In.Aux)) {
    case UnaryOp::Not:
      E = "!" + A;
      break;
    case UnaryOp::Neg:
      E = CS.operandType(OperandSpace::Value, In.A) == TypeKind::Integer
              ? "(long)(0UL - (unsigned long)" + A + ")"
              : "-" + A;
      break;
    case UnaryOp::ToReal:
      E = "(double)" + A;
      break;
    }
    return valueVar(In.Target) + " = " + E + ";";
  }
  case VmOp::BinarySS:
  case VmOp::BinarySC:
  case VmOp::BinaryCS: {
    VmOperands Ops = vmOperands(In.Op);
    return valueVar(In.Target) + " = " +
           binaryExpr(static_cast<BinaryOp>(In.Aux), operand(Ops.A, In.A),
                      operand(Ops.B, In.B)) +
           ";";
  }
  case VmOp::CopyValue:
    return valueVar(In.Target) + " = " + valueVar(In.A) + ";";
  case VmOp::LoadConst:
    return valueVar(In.Target) + " = " + cLiteral(CS.Consts[In.Aux]) + ";";
  case VmOp::Select:
    return valueVar(In.Target) + " = " + clockVar(In.Aux) + " ? " +
           valueVar(In.A) + " : " + valueVar(In.B) + ";";
  case VmOp::WriteOutput: {
    std::string Id = sanitizeIdent(CS.Outputs[In.Aux].Name);
    return "out->" + Id + "_present = 1; out->" + Id + " = " +
           valueVar(In.A) + ";";
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
  // the recorded offset. Executed instructions accumulate per
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
    else
      ++PendingExec;
    Out += pad() + instrStmt(static_cast<size_t>(PC)) + "\n";
  }
  flushExec();
}

std::string Emitter::run() {
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
  // Slot locals: one variable of its SlotType per slot the bytecode
  // touches; untouched slots need no local at all.
  std::vector<char> Touched(CS.SlotType.size(), 0);
  for (const VmInstr &In : CS.Code) {
    VmOperands Ops = vmOperands(In.Op);
    for (auto [S, F] : {std::pair{Ops.Target, In.Target}, {Ops.A, In.A},
                        {Ops.B, In.B}})
      if (S == OperandSpace::Value && F < CS.valueEnd())
        Touched[F] = 1;
  }
  std::vector<std::string> SlotVars;
  for (size_t S = 0; S < Touched.size(); ++S) {
    if (!Touched[S])
      continue;
    SlotVars.push_back(valueVar(static_cast<int32_t>(S)));
    Out += "  " + std::string(cTypeOf(CS.SlotType[S])) + " " +
           SlotVars.back() + " = 0;\n";
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
