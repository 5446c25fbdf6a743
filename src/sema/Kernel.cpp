//===--- Kernel.cpp - Kernel program helpers ------------------------------===//

#include "sema/Kernel.h"

#include <cassert>
#include <charconv>
#include <cmath>

using namespace sigc;

std::vector<SignalId> KernelProgram::inputs() const {
  std::vector<SignalId> Result;
  for (SignalId I = 0; I < Signals.size(); ++I)
    if (Signals[I].Dir == SignalDir::Input)
      Result.push_back(I);
  return Result;
}

std::vector<SignalId> KernelProgram::outputs() const {
  std::vector<SignalId> Result;
  for (SignalId I = 0; I < Signals.size(); ++I)
    if (Signals[I].Dir == SignalDir::Output)
      Result.push_back(I);
  return Result;
}

unsigned KernelProgram::countClockVariables() const {
  unsigned Count = 0;
  for (const KernelSignal &S : Signals) {
    ++Count; // the clock variable x̂
    if (S.Type == TypeKind::Boolean)
      Count += 2; // the condition literals [C] and [¬C]
  }
  return Count;
}

namespace {

/// A constant as the dump prints it: a real in the shortest form that
/// reads back as the same double, with a `.0` on a whole one, so the
/// dump shows the literal the emitted C keeps (Value::str() rounds to
/// six decimals).
std::string constStr(const Value &V) {
  if (V.Kind != TypeKind::Real)
    return V.str();
  char Buf[32];
  std::string S(Buf, std::to_chars(Buf, Buf + sizeof Buf, V.Real).ptr);
  if (S.find_first_of(".ein") == std::string::npos)
    S += ".0";
  return S;
}

std::string atomStr(const Atom &A, const KernelProgram &P,
                    const StringInterner &Names) {
  if (A.IsConst)
    return constStr(A.Const);
  return std::string(Names.spelling(P.Signals[A.Sig].Name));
}

std::string funcNodeStr(const KernelEq &Eq, int Node, const KernelProgram &P,
                        const StringInterner &Names) {
  const FuncNode &N = Eq.Nodes[Node];
  switch (N.Kind) {
  case FuncNode::Kind::Arg:
    return std::string(Names.spelling(P.Signals[Eq.Args[N.ArgIndex]].Name));
  case FuncNode::Kind::Const:
    return constStr(N.Const);
  case FuncNode::Kind::Unary:
    return std::string("(") + unaryOpName(N.UOp) +
           (N.UOp == UnaryOp::Neg ? "" : " ") +
           funcNodeStr(Eq, N.Lhs, P, Names) + ")";
  case FuncNode::Kind::Binary:
    return "(" + funcNodeStr(Eq, N.Lhs, P, Names) + " " +
           binaryOpName(N.BOp) + " " + funcNodeStr(Eq, N.Rhs, P, Names) + ")";
  }
  return "<bad>";
}

} // namespace

std::string KernelProgram::dump(const StringInterner &Names) const {
  std::string Out;
  auto sigName = [&](SignalId Id) {
    return std::string(Names.spelling(Signals[Id].Name));
  };
  for (const KernelEq &Eq : Equations) {
    Out += "  " + sigName(Eq.Target) + " := ";
    switch (Eq.Kind) {
    case KernelEqKind::Func:
      if (Eq.Nodes.empty())
        Out += "<empty>";
      else
        Out += funcNodeStr(Eq, static_cast<int>(Eq.Nodes.size()) - 1, *this,
                           Names);
      break;
    case KernelEqKind::Delay:
      Out += sigName(Eq.DelaySource) + " $ 1 init " + constStr(Eq.DelayInit);
      break;
    case KernelEqKind::When:
      Out += atomStr(Eq.WhenValue, *this, Names) + " when " +
             (Eq.WhenPositive ? "" : "not ") + sigName(Eq.WhenCond);
      break;
    case KernelEqKind::Default:
      Out += sigName(Eq.DefaultPreferred) + " default " +
             sigName(Eq.DefaultAlternative);
      break;
    }
    Out += "\n";
  }
  for (const ClockConstraint &C : Constraints)
    Out += "  synchro {" + sigName(C.First) + ", " + sigName(C.Second) + "}\n";
  return Out;
}

Value sigc::evalFuncTree(const KernelEq &Eq,
                         const std::vector<Value> &ArgValues) {
  assert(Eq.Kind == KernelEqKind::Func && !Eq.Nodes.empty());

  // Evaluate bottom-up: children always precede parents in Nodes (the
  // lowering emits them in post-order). The operator semantics live in
  // evalUnaryValue/evalBinaryValue (Kernel.h), shared with the step-VM.
  std::vector<Value> Results(Eq.Nodes.size());
  for (unsigned I = 0; I < Eq.Nodes.size(); ++I) {
    const FuncNode &N = Eq.Nodes[I];
    switch (N.Kind) {
    case FuncNode::Kind::Arg:
      assert(N.ArgIndex < ArgValues.size());
      Results[I] = ArgValues[N.ArgIndex];
      break;
    case FuncNode::Kind::Const:
      Results[I] = N.Const;
      break;
    case FuncNode::Kind::Unary:
      Results[I] = evalUnaryValue(N.UOp, Results[N.Lhs]);
      break;
    case FuncNode::Kind::Binary:
      Results[I] = evalBinaryValue(N.BOp, Results[N.Lhs], Results[N.Rhs]);
      break;
    }
  }
  return Results.back();
}
