//===--- JointClockSpace.cpp ----------------------------------------------===//

#include "link/JointClockSpace.h"

using namespace sigc;

namespace {

/// Root of \p N's tree.
ForestNodeId rootOfTree(const ClockForest &Forest, ForestNodeId N) {
  while (Forest.node(N).Parent != InvalidForestNode)
    N = Forest.node(N).Parent;
  return N;
}

} // namespace

JointClockSpace::JointClockSpace(LinkedSystem &S, const Budget &Limits)
    : Sys(S), Bud(Limits) {
  Bud.start();
  Joint.setBudget(&Bud);

  CondSignalOf.resize(Sys.Units.size());
  DfsPos.resize(Sys.Units.size());
  for (unsigned U = 0; U < Sys.Units.size(); ++U) {
    ClockForest &F = *Sys.Units[U].Comp->Forest;
    for (unsigned N = 0; N < F.numNodes(); ++N) {
      const ClockNode &Node = F.node(static_cast<ForestNodeId>(N));
      if (!Node.Alive || Node.Def != ClockDefKind::Literal)
        continue;
      BddVar V = F.conditionVar(Node.CondSignal);
      if (V != ~0u)
        CondSignalOf[U][V] = Node.CondSignal;
    }
    std::vector<ForestNodeId> Dfs = F.dfsOrder();
    for (size_t I = 0; I < Dfs.size(); ++I)
      DfsPos[U][Dfs[I]] = static_cast<int>(I);
  }
}

BddVar JointClockSpace::namedVar(const std::string &Key) {
  auto It = NamedVars.find(Key);
  if (It != NamedVars.end())
    return It->second;
  BddVar V = NextVar++;
  NamedVars.emplace(Key, V);
  return V;
}

std::pair<unsigned, SignalId>
JointClockSpace::canonicalSignal(unsigned U, SignalId S) const {
  // Follow channel imports to the producing export. The channel relation
  // on signals has no cycles (an export is computed, never imported, by
  // its unit), but guard the walk anyway.
  for (size_t Hops = 0; Hops <= Sys.Channels.size(); ++Hops) {
    const LinkChannel *Into = Sys.channelInto(U, S);
    if (!Into)
      break;
    U = Into->Producer;
    S = Into->ProducerSig;
  }
  return {U, S};
}

BddVar JointClockSpace::jointCondVar(unsigned U, BddVar V) {
  auto It = CondSignalOf[U].find(V);
  if (It == CondSignalOf[U].end())
    return namedVar("unk:" + std::to_string(U) + ":" + std::to_string(V));
  auto [CU, CS] = canonicalSignal(U, It->second);
  Compilation &C = *Sys.Units[CU].Comp;
  std::string Name(C.names().spelling(C.Kernel->Signals[CS].Name));
  // An unmatched import is paced by the environment: same name, same
  // external value stream, same joint variable — across all importers.
  for (const LinkedExternal &E : Sys.ExternalInputs)
    if (E.Unit == CU && E.Sig == CS)
      return namedVar("ext:" + Name);
  return namedVar("sig:" + std::to_string(CU) + ":" + Name);
}

BddRef JointClockSpace::translate(unsigned U, BddRef F) {
  if (!F.isValid() || F.isTerminal())
    return F;
  std::pair<unsigned, unsigned> Key{U, F.index()};
  auto It = XlatMemo.find(Key);
  if (It != XlatMemo.end())
    return It->second;

  const BddManager &Mu = Sys.Units[U].Comp->Bdds;
  BddRef Hi = translate(U, Mu.nodeHigh(F));
  BddRef Lo = translate(U, Mu.nodeLow(F));
  BddRef V = Joint.var(jointCondVar(U, Mu.nodeVar(F)));
  BddRef R = Joint.ite(V, Hi, Lo);
  XlatMemo.emplace(Key, R);
  return R;
}

BddRef JointClockSpace::rootFn(unsigned U, ForestNodeId Root) {
  std::pair<unsigned, unsigned> Key{U, static_cast<unsigned>(Root)};
  auto It = RootMemo.find(Key);
  if (It != RootMemo.end())
    return It->second;

  const StepProgram &Step = Sys.Units[U].Comp->Step;
  int Slot = -1;
  auto Pos = DfsPos[U].find(Root);
  if (Pos != DfsPos[U].end())
    Slot = Pos->second;
  int CI = -1;
  for (size_t I = 0; I < Step.ClockInputs.size(); ++I)
    if (Step.ClockInputs[I].Slot == Slot)
      CI = static_cast<int>(I);

  BddRef R;
  if (CI < 0) {
    // Derived/residual root: its pacing is a formula over other trees we
    // do not re-derive here — a fresh variable is conservative.
    R = Joint.var(namedVar("res:" + std::to_string(U) + ":" +
                           std::to_string(Root)));
  } else {
    const LinkChannel *Binding = nullptr;
    for (const LinkChannel &Ch : Sys.Channels)
      if (Ch.Consumer == U && Ch.ConsumerClockInput == CI && !Binding)
        Binding = &Ch;
    if (!Binding) {
      // Unbound free root: the environment paces it by *name* (the
      // executor interns ticks per name), so name equality is clock
      // equality across units.
      R = Joint.var(namedVar("root:" + Step.ClockInputs[CI].Name));
    } else if (InProgress.count(Key)) {
      R = Joint.var(namedVar("cyc:" + std::to_string(U) + ":" +
                             std::to_string(Root)));
    } else {
      InProgress.insert(Key);
      Compilation &Prod = *Sys.Units[Binding->Producer].Comp;
      ForestNodeId PN =
          Prod.Forest->nodeOf(Prod.Clocks.signalClock(Binding->ProducerSig));
      R = PN == InvalidForestNode
              ? Joint.bottom()
              : presence(Binding->Producer, PN);
      InProgress.erase(Key);
    }
  }
  RootMemo.emplace(Key, R);
  return R;
}

BddRef JointClockSpace::presence(unsigned U, ForestNodeId N) {
  if (N == InvalidForestNode)
    return Joint.bottom();
  std::pair<unsigned, unsigned> Key{U, static_cast<unsigned>(N)};
  auto It = PresMemo.find(Key);
  if (It != PresMemo.end())
    return It->second;

  ClockForest &F = *Sys.Units[U].Comp->Forest;
  BddRef RF = rootFn(U, rootOfTree(F, N));
  BddRef T = translate(U, F.node(N).Bdd);
  BddRef R = Joint.apply_and(RF, T);
  PresMemo.emplace(Key, R);
  return R;
}

bool JointClockSpace::proveEqual(unsigned UA, SignalId SigA, unsigned UB,
                                 SignalId SigB) {
  Compilation &CA = *Sys.Units[UA].Comp;
  Compilation &CB = *Sys.Units[UB].Comp;
  ForestNodeId NA = CA.Forest->nodeOf(CA.Clocks.signalClock(SigA));
  ForestNodeId NB = CB.Forest->nodeOf(CB.Clocks.signalClock(SigB));
  if (NA == InvalidForestNode || NB == InvalidForestNode)
    return false;
  BddRef FA = presence(UA, NA);
  BddRef FB = presence(UB, NB);
  if (!FA.isValid() || !FB.isValid())
    return false;
  return Joint.implies(FA, FB) && Joint.implies(FB, FA) && !Bud.exhausted();
}

bool JointClockSpace::proveIncluded(unsigned UA, SignalId SigA, unsigned UB,
                                    SignalId SigB) {
  Compilation &CA = *Sys.Units[UA].Comp;
  Compilation &CB = *Sys.Units[UB].Comp;
  ForestNodeId NA = CA.Forest->nodeOf(CA.Clocks.signalClock(SigA));
  ForestNodeId NB = CB.Forest->nodeOf(CB.Clocks.signalClock(SigB));
  if (NA == InvalidForestNode || NB == InvalidForestNode)
    return false;
  BddRef FA = presence(UA, NA);
  BddRef FB = presence(UB, NB);
  if (!FA.isValid() || !FB.isValid())
    return false;
  return Joint.implies(FA, FB) && !Bud.exhausted();
}
