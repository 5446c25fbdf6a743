//===--- CharFunc.cpp -----------------------------------------------------===//

#include "solver/CharFunc.h"

using namespace sigc;

CharFuncResult sigc::buildCharFunc(
    BddManager &Mgr, unsigned NumVars,
    const std::vector<CharConstraint> &Constraints) {
  CharFuncResult Result;
  Result.NumVars = NumVars;

  BddRef Chi = Mgr.top();
  for (const CharConstraint &C : Constraints) {
    BddRef Term;
    switch (C.Kind) {
    case CharConstraint::Kind::Equal:
      Term = Mgr.apply_iff(Mgr.var(C.V0), Mgr.var(C.V1));
      break;
    case CharConstraint::Kind::Equation: {
      BddRef A = Mgr.var(C.V1);
      BddRef B = Mgr.var(C.V2);
      BddRef Rhs;
      switch (C.Op) {
      case ClockOp::Inter:
        Rhs = Mgr.apply_and(A, B);
        break;
      case ClockOp::Union:
        Rhs = Mgr.apply_or(A, B);
        break;
      case ClockOp::Diff:
        Rhs = Mgr.apply_diff(A, B);
        break;
      }
      Term = Mgr.apply_iff(Mgr.var(C.V0), Rhs);
      break;
    }
    case CharConstraint::Kind::Partition: {
      BddRef Parent = Mgr.var(C.V0);
      BddRef Pos = Mgr.var(C.V1);
      BddRef Neg = Mgr.var(C.V2);
      BddRef Cover = Mgr.apply_iff(Mgr.apply_or(Pos, Neg), Parent);
      BddRef Disjoint = Mgr.apply_not(Mgr.apply_and(Pos, Neg));
      Term = Mgr.apply_and(Cover, Disjoint);
      break;
    }
    case CharConstraint::Kind::ForceOff:
      Term = Mgr.apply_not(Mgr.var(C.V0));
      break;
    }
    Chi = Mgr.apply_and(Chi, Term);
    if (!Chi.isValid())
      break; // Budget exhausted; verdict read from the Budget by the caller.
  }

  Result.Chi = Chi;
  Result.PeakNodes = Mgr.numNodes();
  return Result;
}

unsigned sigc::analyzeCharFunc(BddManager &Mgr, BddRef Chi,
                               unsigned NumVars) {
  if (!Chi.isValid())
    return 0;
  unsigned Determined = 0;
  for (unsigned V = 0; V < NumVars; ++V) {
    BddRef F0 = Mgr.restrict(Chi, V, false);
    BddRef F1 = Mgr.restrict(Chi, V, true);
    if (!F0.isValid() || !F1.isValid())
      return Determined;
    // V is functionally determined by the other variables iff no
    // assignment of the others is compatible with both values of V.
    BddRef Both = Mgr.apply_and(F0, F1);
    if (!Both.isValid())
      return Determined;
    if (Both.isFalse())
      ++Determined;
  }
  return Determined;
}

std::vector<CharConstraint> sigc::systemConstraints(const ClockSystem &Sys) {
  std::vector<CharConstraint> Result;
  for (const ClockEquality &E : Sys.equalities()) {
    CharConstraint C;
    C.Kind = CharConstraint::Kind::Equal;
    C.V0 = E.A;
    C.V1 = E.B;
    Result.push_back(C);
  }
  for (const ClockEquation &E : Sys.equations()) {
    CharConstraint C;
    C.Kind = CharConstraint::Kind::Equation;
    C.Op = E.Op;
    C.V0 = E.Lhs;
    C.V1 = E.A;
    C.V2 = E.B;
    Result.push_back(C);
  }
  for (SignalId Cond : Sys.conditions()) {
    CharConstraint C;
    C.Kind = CharConstraint::Kind::Partition;
    C.V0 = Sys.signalClock(Cond);
    C.V1 = Sys.posLiteral(Cond);
    C.V2 = Sys.negLiteral(Cond);
    Result.push_back(C);
  }
  return Result;
}
