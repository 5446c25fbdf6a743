//===--- Lowering.cpp - AST to kernel-program flattening ------------------===//

#include "sema/Sema.h"

#include <cassert>

using namespace sigc;

/// Working state of one lowering run.
struct Sema::LowerState {
  KernelProgram Prog;
  std::unordered_map<Symbol, SignalId> Ids;
  unsigned FreshCounter = 0;
  StringInterner *Interner = nullptr;

  SignalId idOf(Symbol Name) const {
    auto It = Ids.find(Name);
    assert(It != Ids.end() && "name resolution should have caught this");
    return It->second;
  }

  /// Introduces a compiler-generated signal. The '$' in the spelling makes
  /// it unspeakable in the surface syntax, so it cannot collide.
  SignalId freshSignal(TypeKind Type, SourceLoc Loc) {
    std::string Name = "t$" + std::to_string(++FreshCounter);
    KernelSignal S;
    S.Name = Interner->intern(Name);
    S.Type = Type;
    S.Dir = SignalDir::Local;
    S.IsFresh = true;
    S.Loc = Loc;
    SignalId Id = static_cast<SignalId>(Prog.Signals.size());
    Prog.Signals.push_back(S);
    Ids.emplace(S.Name, Id);
    return Id;
  }
};

std::optional<KernelProgram> Sema::analyze(const ProcessDecl &D) {
  NameTypes.clear();
  Defined.clear();

  // Collect declared names.
  for (const SignalDecl &S : D.Signals)
    NameTypes[S.Name] = S.Type;

  if (!D.Body) {
    Diags.error(D.Loc, "process has no body");
    return std::nullopt;
  }

  if (!checkProcess(D, D.Body))
    return std::nullopt;

  // Outputs must be defined; undefined locals are free (warn).
  for (const SignalDecl &S : D.Signals) {
    if (Defined.count(S.Name))
      continue;
    std::string Name(Ctx.interner().spelling(S.Name));
    if (S.Dir == SignalDir::Output) {
      Diags.error(S.Loc, "output signal '" + Name + "' is never defined");
      return std::nullopt;
    }
    if (S.Dir == SignalDir::Local)
      Diags.warning(S.Loc, "local signal '" + Name +
                               "' has no defining equation; it behaves as "
                               "a free input");
  }
  if (Diags.hasErrors())
    return std::nullopt;

  LowerState LS;
  LS.Interner = &Ctx.interner();
  LS.Prog.Name = D.Name;
  for (const SignalDecl &S : D.Signals) {
    KernelSignal KS;
    KS.Name = S.Name;
    KS.Type = S.Type;
    KS.Dir = S.Dir;
    KS.Loc = S.Loc;
    SignalId Id = static_cast<SignalId>(LS.Prog.Signals.size());
    LS.Prog.Signals.push_back(KS);
    LS.Ids.emplace(S.Name, Id);
  }

  if (!lowerProcess(LS, D.Body))
    return std::nullopt;

  // Index defining equations.
  LS.Prog.DefiningEq.assign(LS.Prog.Signals.size(), -1);
  for (unsigned I = 0; I < LS.Prog.Equations.size(); ++I) {
    SignalId T = LS.Prog.Equations[I].Target;
    assert(LS.Prog.DefiningEq[T] == -1 && "double definition after lowering");
    LS.Prog.DefiningEq[T] = static_cast<int>(I);
  }
  return std::move(LS.Prog);
}

bool Sema::lowerProcess(LowerState &LS, const Process *P) {
  switch (P->kind()) {
  case ProcessKind::Equation:
    return lowerEquation(LS, cast<EquationProc>(P));
  case ProcessKind::Composition: {
    for (const Process *Child : cast<CompositionProc>(P)->children())
      if (!lowerProcess(LS, Child))
        return false;
    return true;
  }
  case ProcessKind::Synchro: {
    const auto *S = cast<SynchroProc>(P);
    std::vector<SignalId> Sigs;
    for (const Expr *Op : S->operands()) {
      SignalId Id = lowerToSignal(LS, Op);
      if (Id == InvalidSignal)
        return false;
      Sigs.push_back(Id);
    }
    for (unsigned I = 1; I < Sigs.size(); ++I)
      LS.Prog.Constraints.push_back({Sigs[0], Sigs[I], P->loc()});
    return true;
  }
  case ProcessKind::ClockEq: {
    const auto *C = cast<ClockEqProc>(P);
    SignalId L = lowerToSignal(LS, C->lhs());
    SignalId R = lowerToSignal(LS, C->rhs());
    if (L == InvalidSignal || R == InvalidSignal)
      return false;
    LS.Prog.Constraints.push_back({L, R, P->loc()});
    return true;
  }
  }
  return false;
}

bool Sema::lowerEquation(LowerState &LS, const EquationProc *E) {
  return lowerInto(LS, LS.idOf(E->target()), E->rhs());
}

Atom Sema::lowerToAtom(LowerState &LS, const Expr *E) {
  if (const auto *N = dyn_cast<NameExpr>(E))
    return Atom::signal(LS.idOf(N->name()));
  if (const auto *C = dyn_cast<ConstExpr>(E))
    return Atom::constant(C->value());
  SignalId Fresh = LS.freshSignal(E->type(), E->loc());
  if (!lowerInto(LS, Fresh, E))
    return Atom::constant(Value());
  return Atom::signal(Fresh);
}

SignalId Sema::lowerToSignal(LowerState &LS, const Expr *E) {
  if (isa<ConstExpr>(E)) {
    Diags.error(E->loc(), "a constant has no clock of its own here; sample "
                          "it with 'when'");
    return InvalidSignal;
  }
  Atom A = lowerToAtom(LS, E);
  if (A.IsConst)
    return InvalidSignal; // Error already reported during recursion.
  return A.Sig;
}

/// \returns true if \p E lowers into a Func operator tree node (pointwise).
[[maybe_unused]] static bool isPointwise(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Name:
  case ExprKind::Const:
  case ExprKind::Unary:
  case ExprKind::Binary:
    return true;
  default:
    return false;
  }
}

/// Converts node \p Idx of \p Eq's operator tree from integer to real:
/// a constant converts in place, anything else gets a ToReal node above
/// it. \returns the index of the converted node.
static int toRealNode(KernelEq &Eq, int Idx) {
  FuncNode &N = Eq.Nodes[Idx];
  if (N.Kind == FuncNode::Kind::Const) {
    N.Const = Value::makeReal(N.Const.asReal());
    return Idx;
  }
  FuncNode Conv;
  Conv.Kind = FuncNode::Kind::Unary;
  Conv.UOp = UnaryOp::ToReal;
  Conv.Lhs = Idx;
  Eq.Nodes.push_back(Conv);
  return static_cast<int>(Eq.Nodes.size()) - 1;
}

/// The init value of a memory of type \p Ty: sema lets an integer
/// literal initialize a real signal, and the memory holds a real.
static Value memoryInit(TypeKind Ty, const Value &Init) {
  return Ty == TypeKind::Real ? Value::makeReal(Init.asReal()) : Init;
}

int Sema::buildFuncTree(LowerState &LS, KernelEq &Eq, const Expr *E) {
  FuncNode Node;
  switch (E->kind()) {
  case ExprKind::Const:
    Node.Kind = FuncNode::Kind::Const;
    Node.Const = cast<ConstExpr>(E)->value();
    break;
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    int Lhs = buildFuncTree(LS, Eq, U->operand());
    if (Lhs < 0)
      return -1;
    Node.Kind = FuncNode::Kind::Unary;
    Node.UOp = U->op();
    Node.Lhs = Lhs;
    break;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    int Lhs = buildFuncTree(LS, Eq, B->lhs());
    if (Lhs < 0)
      return -1;
    int Rhs = buildFuncTree(LS, Eq, B->rhs());
    if (Rhs < 0)
      return -1;
    // Mixed integer/real operands: the integer side converts, so every
    // operator sees operands of one type.
    TypeKind L = B->lhs()->type(), R = B->rhs()->type();
    if (L == TypeKind::Integer && R == TypeKind::Real)
      Lhs = toRealNode(Eq, Lhs);
    else if (L == TypeKind::Real && R == TypeKind::Integer)
      Rhs = toRealNode(Eq, Rhs);
    Node.Kind = FuncNode::Kind::Binary;
    Node.BOp = B->op();
    Node.Lhs = Lhs;
    Node.Rhs = Rhs;
    break;
  }
  default: {
    // Name, or any non-pointwise subexpression: becomes an operand signal.
    SignalId Sig;
    if (const auto *N = dyn_cast<NameExpr>(E)) {
      Sig = LS.idOf(N->name());
    } else {
      Sig = lowerToSignal(LS, E);
      if (Sig == InvalidSignal)
        return -1;
    }
    // Reuse the operand slot if this signal already appears.
    unsigned ArgIndex = 0;
    for (; ArgIndex < Eq.Args.size(); ++ArgIndex)
      if (Eq.Args[ArgIndex] == Sig)
        break;
    if (ArgIndex == Eq.Args.size())
      Eq.Args.push_back(Sig);
    Node.Kind = FuncNode::Kind::Arg;
    Node.ArgIndex = ArgIndex;
    break;
  }
  }
  Eq.Nodes.push_back(Node);
  return static_cast<int>(Eq.Nodes.size()) - 1;
}

bool Sema::lowerInto(LowerState &LS, SignalId Target, const Expr *E) {
  KernelEq Eq;
  Eq.Target = Target;
  Eq.Loc = E->loc();

  // A real signal defined by an integer expression holds reals: the
  // definition converts. A sampled literal (`3 when C`) converts in
  // place; any other form builds its tree (a non-pointwise form lowers
  // into a fresh integer signal) and a ToReal goes on top.
  const auto *When = dyn_cast<WhenExpr>(E);
  bool SampledConst = When && isa<ConstExpr>(When->value());
  bool ToReal = LS.Prog.Signals[Target].Type == TypeKind::Real &&
                E->type() == TypeKind::Integer;
  if (ToReal && !SampledConst) {
    Eq.Kind = KernelEqKind::Func;
    int Root = buildFuncTree(LS, Eq, E);
    if (Root < 0)
      return false;
    toRealNode(Eq, Root);
    LS.Prog.Equations.push_back(std::move(Eq));
    return true;
  }

  switch (E->kind()) {
  case ExprKind::Name:
  case ExprKind::Const:
  case ExprKind::Unary:
  case ExprKind::Binary: {
    assert(isPointwise(E));
    Eq.Kind = KernelEqKind::Func;
    if (buildFuncTree(LS, Eq, E) < 0)
      return false;
    break;
  }
  case ExprKind::Delay: {
    const auto *D = cast<DelayExpr>(E);
    SignalId Source = lowerToSignal(LS, D->operand());
    if (Source == InvalidSignal)
      return false;
    // "X $ n" is a chain of n unit delays ending in Target.
    TypeKind Ty = D->operand()->type();
    SignalId Prev = Source;
    for (unsigned Step = 1; Step <= D->depth(); ++Step) {
      SignalId StageTarget =
          (Step == D->depth()) ? Target : LS.freshSignal(Ty, E->loc());
      KernelEq Stage;
      Stage.Kind = KernelEqKind::Delay;
      Stage.Target = StageTarget;
      Stage.Loc = E->loc();
      Stage.DelaySource = Prev;
      Stage.DelayInit = memoryInit(Ty, D->init());
      LS.Prog.Equations.push_back(Stage);
      Prev = StageTarget;
    }
    return true;
  }
  case ExprKind::When: {
    const auto *W = cast<WhenExpr>(E);
    Eq.Kind = KernelEqKind::When;
    Eq.WhenValue = lowerToAtom(LS, W->value());
    if (Eq.WhenValue.IsConst && Eq.WhenValue.Const.Kind == TypeKind::Unknown)
      return false;
    if (ToReal)
      Eq.WhenValue.Const = Value::makeReal(Eq.WhenValue.Const.asReal());
    // "X when (not C)" samples on the negative literal [¬C] directly
    // (Section 2.3), avoiding a fresh condition for the negation.
    const Expr *Cond = W->condition();
    if (const auto *U = dyn_cast<UnaryExpr>(Cond);
        U && U->op() == UnaryOp::Not && isa<NameExpr>(U->operand())) {
      Eq.WhenPositive = false;
      Cond = U->operand();
    }
    Eq.WhenCond = lowerToSignal(LS, Cond);
    if (Eq.WhenCond == InvalidSignal)
      return false;
    break;
  }
  case ExprKind::Default: {
    const auto *D = cast<DefaultExpr>(E);
    Eq.Kind = KernelEqKind::Default;
    Eq.DefaultPreferred = lowerToSignal(LS, D->preferred());
    if (Eq.DefaultPreferred == InvalidSignal)
      return false;
    Eq.DefaultAlternative = lowerToSignal(LS, D->alternative());
    if (Eq.DefaultAlternative == InvalidSignal)
      return false;
    break;
  }
  case ExprKind::Event: {
    // event X  ==>  Target := (X = X)
    const auto *Ev = cast<EventExpr>(E);
    SignalId Sig = lowerToSignal(LS, Ev->operand());
    if (Sig == InvalidSignal)
      return false;
    Eq.Kind = KernelEqKind::Func;
    Eq.Args.push_back(Sig);
    FuncNode ArgNode;
    ArgNode.Kind = FuncNode::Kind::Arg;
    ArgNode.ArgIndex = 0;
    Eq.Nodes.push_back(ArgNode);
    Eq.Nodes.push_back(ArgNode);
    FuncNode EqNode;
    EqNode.Kind = FuncNode::Kind::Binary;
    EqNode.BOp = BinaryOp::Eq;
    EqNode.Lhs = 0;
    EqNode.Rhs = 1;
    Eq.Nodes.push_back(EqNode);
    break;
  }
  case ExprKind::UnaryWhen: {
    // when C        ==>  Target := true when C       (clock [C])
    // when (not C)  ==>  Target := true when not C   (clock [¬C])
    const auto *W = cast<UnaryWhenExpr>(E);
    const Expr *Cond = W->condition();
    Eq.Kind = KernelEqKind::When;
    Eq.WhenValue = Atom::constant(Value::makeBool(true));
    if (const auto *U = dyn_cast<UnaryExpr>(Cond);
        U && U->op() == UnaryOp::Not && isa<NameExpr>(U->operand())) {
      Eq.WhenPositive = false;
      Cond = U->operand();
    }
    Eq.WhenCond = lowerToSignal(LS, Cond);
    if (Eq.WhenCond == InvalidSignal)
      return false;
    break;
  }
  case ExprKind::Cell: {
    // Y := X cell B init v  ==>
    //   Z := Y $ 1 init v        memory of Y
    //   Y := X default Z          value: X when present, else last value
    //   EX := (X = X)             event X
    //   W := B when B             when B
    //   U := EX default W         clock x̂ ∨ [B]
    //   synchro {Y, U}            ŷ = x̂ ∨ [B]
    const auto *C = cast<CellExpr>(E);
    SignalId X = lowerToSignal(LS, C->value());
    SignalId B = lowerToSignal(LS, C->condition());
    if (X == InvalidSignal || B == InvalidSignal)
      return false;
    TypeKind Ty = C->value()->type();

    SignalId Z = LS.freshSignal(Ty, E->loc());
    KernelEq ZEq;
    ZEq.Kind = KernelEqKind::Delay;
    ZEq.Target = Z;
    ZEq.Loc = E->loc();
    ZEq.DelaySource = Target;
    ZEq.DelayInit = memoryInit(Ty, C->init());
    LS.Prog.Equations.push_back(ZEq);

    Eq.Kind = KernelEqKind::Default;
    Eq.DefaultPreferred = X;
    Eq.DefaultAlternative = Z;
    LS.Prog.Equations.push_back(Eq);

    SignalId EX = LS.freshSignal(TypeKind::Event, E->loc());
    KernelEq EXEq;
    EXEq.Kind = KernelEqKind::Func;
    EXEq.Target = EX;
    EXEq.Loc = E->loc();
    EXEq.Args.push_back(X);
    FuncNode ArgNode;
    ArgNode.Kind = FuncNode::Kind::Arg;
    ArgNode.ArgIndex = 0;
    EXEq.Nodes.push_back(ArgNode);
    EXEq.Nodes.push_back(ArgNode);
    FuncNode EqNode;
    EqNode.Kind = FuncNode::Kind::Binary;
    EqNode.BOp = BinaryOp::Eq;
    EqNode.Lhs = 0;
    EqNode.Rhs = 1;
    EXEq.Nodes.push_back(EqNode);
    LS.Prog.Equations.push_back(EXEq);

    SignalId W = LS.freshSignal(TypeKind::Event, E->loc());
    KernelEq WEq;
    WEq.Kind = KernelEqKind::When;
    WEq.Target = W;
    WEq.Loc = E->loc();
    WEq.WhenValue = Atom::signal(B);
    WEq.WhenCond = B;
    LS.Prog.Equations.push_back(WEq);

    SignalId U = LS.freshSignal(TypeKind::Event, E->loc());
    KernelEq UEq;
    UEq.Kind = KernelEqKind::Default;
    UEq.Target = U;
    UEq.Loc = E->loc();
    UEq.DefaultPreferred = EX;
    UEq.DefaultAlternative = W;
    LS.Prog.Equations.push_back(UEq);

    LS.Prog.Constraints.push_back({Target, U, E->loc()});
    return true;
  }
  }

  LS.Prog.Equations.push_back(std::move(Eq));
  return true;
}
