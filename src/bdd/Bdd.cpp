//===--- Bdd.cpp - ROBDD package implementation ---------------------------===//
///
/// Complement-edge ROBDD core. Invariants maintained here:
///
///   * node 0 is the only terminal (True); False is its complemented ref;
///   * a stored node's then-edge is never complemented (mkNode normalizes
///     by flipping both branches and complementing the result);
///   * both branches of a stored node differ (reduction rule);
///   * operation-cache entries store the verbatim (op, operands) key and
///     only hit when every field matches — a hash collision is a miss,
///     never a wrong result.
///
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <unordered_set>

using namespace sigc;

namespace {

unsigned log2Ceil(uint64_t X) {
  unsigned L = 0;
  while ((1ull << L) < X)
    ++L;
  return L;
}

/// Table sizing from the number of program variables (clock conditions for
/// the forest, clock classes for the characteristic function). The clock
/// calculus allocates a few hundred nodes per variable on typical programs;
/// both tables also grow on demand, so under-estimates only cost a rehash.
unsigned uniqueLog2ForVars(unsigned Vars) {
  return std::min(22u, std::max(13u, log2Ceil(uint64_t(Vars) * 64)));
}
/// Operation caches are capped at 2^16 entries (~1.3 MB): big enough that
/// the fixed point of a Figure-13 program stays warm, small enough to stay
/// L2/L3-resident — measured on the ITE-chain benchmark, a 2^20-entry cache
/// is ~1.5x slower than 2^16 purely from cold probes.
constexpr unsigned MaxCacheLog2 = 16;

unsigned cacheLog2ForVars(unsigned Vars) {
  return std::min(MaxCacheLog2, std::max(12u, log2Ceil(uint64_t(Vars) * 128)));
}

} // namespace

BddManager::BddManager(unsigned ExpectedVars) {
  Nodes.reserve(1024);
  // The single True terminal. Its branches point to itself; Var sorts after
  // all real variables so terminal checks fall out of ordering comparisons.
  Nodes.push_back({TerminalVar, 0, 0});
  unsigned UL = uniqueLog2ForVars(ExpectedVars);
  UniqueTable.assign(1u << UL, NoEntry);
  UniqueMask = (1u << UL) - 1;
  unsigned CL = cacheLog2ForVars(ExpectedVars);
  IteCache = std::vector<CacheEntry>(size_t(1) << CL);
  OpCache = std::vector<CacheEntry>(size_t(1) << CL);
  CacheMask = (1u << CL) - 1;
}

void BddManager::presize(unsigned ExpectedVars) {
  while (UniqueMask + 1 < (1u << uniqueLog2ForVars(ExpectedVars)))
    growUnique();
  growCachesTo(cacheLog2ForVars(ExpectedVars));
}

void BddManager::setCacheCapacityForTesting(uint32_t Entries) {
  uint32_t Size = 1;
  while (Size * 2 <= Entries)
    Size *= 2;
  IteCache = std::vector<CacheEntry>(Size);
  OpCache = std::vector<CacheEntry>(Size);
  CacheMask = Size - 1;
  CacheGrowthFrozen = true;
}

bool BddManager::pollBudget() {
  if (!Bud)
    return true;
  if (Bud->exhausted())
    return false;
  // Charge the budget for *live* nodes: a GC-enabled manager's reclaimed
  // slots are capacity, not consumption.
  if (!Bud->checkNodes(Nodes.size() - FreeList.size()))
    return false;
  if (++AllocsSincePoll >= 4096) {
    AllocsSincePoll = 0;
    if (!Bud->checkTime())
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Unique table and node construction
//===----------------------------------------------------------------------===//

uint32_t *BddManager::uniqueSlot(BddVar Var, uint32_t Low, uint32_t High) {
  uint64_t H = hashNode(Var, Low, High);
  uint32_t Idx = static_cast<uint32_t>(H) & UniqueMask;
  for (;;) {
    uint32_t &Slot = UniqueTable[Idx];
    if (Slot == NoEntry)
      return &Slot;
    const Node &N = Nodes[Slot];
    if (N.Var == Var && N.Low == Low && N.High == High)
      return &Slot;
    Idx = (Idx + 1) & UniqueMask;
  }
}

void BddManager::growUnique() {
  uint32_t NewSize = (UniqueMask + 1) * 2;
  UniqueTable.assign(NewSize, NoEntry);
  UniqueMask = NewSize - 1;
  for (uint32_t I = 1; I < Nodes.size(); ++I) {
    const Node &N = Nodes[I];
    if (N.Var == TerminalVar)
      continue; // Tombstone of a reclaimed slot.
    uint64_t H = hashNode(N.Var, N.Low, N.High);
    uint32_t Idx = static_cast<uint32_t>(H) & UniqueMask;
    while (UniqueTable[Idx] != NoEntry)
      Idx = (Idx + 1) & UniqueMask;
    UniqueTable[Idx] = I;
  }
  // Keep the caches tracking the unique table (up to the residency cap) so
  // a growing problem does not thrash a tiny cache. The 4x hysteresis plus
  // the direct jump in growCachesTo bounds re-allocations to a handful per
  // manager lifetime.
  if (UniqueMask + 1 > 4 * (CacheMask + 1))
    growCachesTo(log2Ceil(UniqueMask + 1));
}

void BddManager::growCachesTo(unsigned TargetLog2) {
  // Jump to the target size in one re-allocation: repeated doubling fills
  // were the dominant cost of mid-size solver runs.
  TargetLog2 = std::min(TargetLog2, MaxCacheLog2);
  if (CacheGrowthFrozen || CacheMask + 1 >= (1u << TargetLog2))
    return;
  uint32_t NewMask = (1u << TargetLog2) - 1;
  auto rehash = [&](std::vector<CacheEntry> &Cache) {
    std::vector<CacheEntry> New(size_t(NewMask) + 1);
    for (const CacheEntry &E : Cache) {
      if (E.Op == static_cast<uint32_t>(CacheOp::None))
        continue;
      New[hashCacheKey(E.Op, E.A, E.B, E.C) & NewMask] = E;
    }
    Cache.swap(New);
  };
  rehash(IteCache);
  rehash(OpCache);
  CacheMask = NewMask;
}

BddRef BddManager::mkNode(BddVar Var, BddRef Low, BddRef High) {
  if (!Low.isValid() || !High.isValid())
    return BddRef::invalid();
  // Reduction rule: both branches equal => the node is redundant.
  if (Low == High)
    return Low;
  // Canonical form: the then-edge carries no complement bit. A complemented
  // then-branch flips both branches and complements the resulting ref.
  bool Neg = High.isComplement();
  if (Neg) {
    Low = !Low;
    High = !High;
  }
  if (!pollBudget())
    return BddRef::invalid();

  uint32_t *Slot = uniqueSlot(Var, Low.index(), High.index());
  if (*Slot != NoEntry)
    return withComplement(BddRef(*Slot << 1), Neg);

  // Reuse a reclaimed slot when the collector produced one: nodes never
  // move, so refs held across a sweep stay valid, and reuse keeps the
  // arena bounded by the live set instead of the allocation history.
  uint32_t Idx;
  if (!FreeList.empty()) {
    Idx = FreeList.back();
    FreeList.pop_back();
    Nodes[Idx] = {Var, Low.index(), High.index()};
  } else {
    Idx = static_cast<uint32_t>(Nodes.size());
    Nodes.push_back({Var, Low.index(), High.index()});
  }
  *Slot = Idx;

  // Keep the open-addressed table under 2/3 load.
  if (Nodes.size() * 3 > static_cast<uint64_t>(UniqueMask + 1) * 2)
    growUnique();
  return withComplement(BddRef(Idx << 1), Neg);
}

BddRef BddManager::var(BddVar Var) {
  BddRef R = mkNode(Var, bottom(), top());
  // Count the variable only when the node exists: a budget-tripped
  // allocation must not skew later satCount(F, numVars()) calls.
  if (R.isValid() && Var + 1 > NumVars)
    NumVars = Var + 1;
  return R;
}

BddRef BddManager::nvar(BddVar Var) { return !var(Var); }

//===----------------------------------------------------------------------===//
// Garbage collection
//===----------------------------------------------------------------------===//

void BddManager::addRef(BddRef F) {
  if (!F.isValid() || F.isTerminal())
    return;
  if (ExtRefs.size() < Nodes.size())
    ExtRefs.resize(Nodes.size(), 0);
  ++ExtRefs[F.nodeIndex()];
}

void BddManager::decRef(BddRef F) {
  if (!F.isValid() || F.isTerminal())
    return;
  assert(F.nodeIndex() < ExtRefs.size() && ExtRefs[F.nodeIndex()] > 0 &&
         "decRef() without a matching addRef()");
  --ExtRefs[F.nodeIndex()];
}

uint64_t BddManager::gc() {
  if (ExtRefs.size() < Nodes.size())
    ExtRefs.resize(Nodes.size(), 0);

  // Mark: everything reachable from an externally referenced node. The
  // complement bit does not affect reachability (F and ¬F share nodes).
  std::vector<unsigned char> Marked(Nodes.size(), 0);
  Marked[0] = 1;
  std::vector<uint32_t> Stack;
  for (uint32_t I = 1; I < Nodes.size(); ++I)
    if (ExtRefs[I] > 0)
      Stack.push_back(I);
  while (!Stack.empty()) {
    uint32_t Cur = Stack.back();
    Stack.pop_back();
    if (Marked[Cur])
      continue;
    Marked[Cur] = 1;
    const Node &N = Nodes[Cur];
    uint32_t L = BddRef(N.Low).nodeIndex();
    uint32_t H = BddRef(N.High).nodeIndex();
    if (!Marked[L])
      Stack.push_back(L);
    if (!Marked[H])
      Stack.push_back(H);
  }

  // Sweep: tombstone dead slots (Var == TerminalVar) and free them for
  // in-place reuse. Slots already on the free list stay there.
  std::vector<unsigned char> AlreadyFree(Nodes.size(), 0);
  for (uint32_t I : FreeList)
    AlreadyFree[I] = 1;
  uint64_t Reclaimed = 0;
  for (uint32_t I = 1; I < Nodes.size(); ++I) {
    if (Marked[I] || AlreadyFree[I])
      continue;
    Nodes[I] = {TerminalVar, 0, 0};
    FreeList.push_back(I);
    ++Reclaimed;
  }

  // Rebuild the unique table over the survivors only.
  std::fill(UniqueTable.begin(), UniqueTable.end(), NoEntry);
  for (uint32_t I = 1; I < Nodes.size(); ++I) {
    const Node &N = Nodes[I];
    if (N.Var == TerminalVar)
      continue;
    uint64_t H = hashNode(N.Var, N.Low, N.High);
    uint32_t Idx = static_cast<uint32_t>(H) & UniqueMask;
    while (UniqueTable[Idx] != NoEntry)
      Idx = (Idx + 1) & UniqueMask;
    UniqueTable[Idx] = I;
  }

  // Invalidate both operation caches: entries key on node indices, and a
  // reused index must never make a pre-sweep entry look like a verified
  // hit for a different function.
  std::fill(IteCache.begin(), IteCache.end(), CacheEntry{0, 0, 0, 0, 0});
  std::fill(OpCache.begin(), OpCache.end(), CacheEntry{0, 0, 0, 0, 0});

  ++GcRuns;
  GcReclaimed += Reclaimed;
  GcFloor = numLiveNodes();
  return Reclaimed;
}

void BddManager::maybeCollect() {
  if (!GcEnabled || !Bud || Bud->nodeLimit() == 0 || Bud->exhausted())
    return;
  uint64_t Live = Nodes.size() - FreeList.size();
  uint64_t Limit = Bud->nodeLimit();
  // Collect when within 25% of the node limit — but only once the live
  // count has grown by limit/8 past the last sweep's floor, so a sweep
  // that found little garbage is not repeated on every operation.
  if (Live * 4 < Limit * 3)
    return;
  if (numLiveNodes() <= GcFloor + Limit / 8)
    return;
  gc();
}

//===----------------------------------------------------------------------===//
// ITE
//===----------------------------------------------------------------------===//

BddRef BddManager::cofactor(BddRef F, BddVar Top, bool High) const {
  if (F.isTerminal() || Nodes[F.nodeIndex()].Var != Top)
    return F;
  const Node &N = Nodes[F.nodeIndex()];
  return withComplement(BddRef(High ? N.High : N.Low), F.isComplement());
}

BddRef BddManager::ite(BddRef F, BddRef G, BddRef H) {
  if (!F.isValid() || !G.isValid() || !H.isValid())
    return BddRef::invalid();
  // Safe collection point: no intermediate results are in flight at a
  // public entry, so everything unprotected is genuinely garbage.
  maybeCollect();
  return iteRec(F, G, H);
}

BddRef BddManager::iteRec(BddRef F, BddRef G, BddRef H) {
  // Terminal and operand-collapse cases.
  if (F.isTrue())
    return G;
  if (F.isFalse())
    return H;
  if (G == H)
    return G;
  if (F == G)
    G = BddRef::trueRef(); // ite(F, F, H) = ite(F, 1, H)
  else if (F == !G)
    G = BddRef::falseRef(); // ite(F, ¬F, H) = ite(F, 0, H)
  if (F == H)
    H = BddRef::falseRef(); // ite(F, G, F) = ite(F, G, 0)
  else if (F == !H)
    H = BddRef::trueRef(); // ite(F, G, ¬F) = ite(F, G, 1)
  if (G == H)
    return G;
  if (G.isTrue() && H.isFalse())
    return F;
  if (G.isFalse() && H.isTrue())
    return !F;

  // Standard-triple commutation: the two-operand connectives are symmetric
  // in one operand pair; order that pair deterministically so commuted
  // calls share one cache line. Node indices are a pure-register total
  // order over live nodes (no Nodes[] loads on the cache-hit path), and
  // complement bits do not affect it — F and ¬F share a node, so the
  // ¬-duals normalize to the same triple. F is non-terminal here, and so
  // is the operand swapped toward it.
  auto precedes = [](BddRef X, BddRef Y) {
    return X.nodeIndex() < Y.nodeIndex();
  };
  if (G.isTrue()) { // ite(F, 1, H) = F ∨ H = ite(H, 1, F)
    if (precedes(H, F))
      std::swap(F, H);
  } else if (H.isFalse()) { // ite(F, G, 0) = F ∧ G = ite(G, F, 0)
    if (precedes(G, F))
      std::swap(F, G);
  } else if (G.isFalse()) { // ite(F, 0, H) = ¬F ∧ H = ite(¬H, 0, ¬F)
    if (precedes(H, F)) {
      BddRef NotF = !F;
      F = !H;
      H = NotF;
    }
  } else if (H.isTrue()) { // ite(F, G, 1) = ¬F ∨ G = ite(¬G, ¬F, 1)
    if (precedes(G, F)) {
      BddRef NotF = !F;
      F = !G;
      G = NotF;
    }
  } else if (G == !H) { // ite(F, G, ¬G) = F ⇔ G = ite(G, F, ¬F)
    if (precedes(G, F)) {
      BddRef OldF = F;
      F = G;
      G = OldF;
      H = !OldF;
    }
  }

  // Polarity canonicalization: the stored triple has a regular F (swap the
  // branches of a complemented test) and a regular G (complement both
  // branches and the cached result), so ¬-related calls share cache lines.
  if (F.isComplement()) {
    std::swap(G, H);
    F = !F;
  }
  bool NegOut = G.isComplement();
  if (NegOut) {
    G = !G;
    H = !H;
  }

  uint64_t Key;
  const CacheEntry *Hit = cacheLookup(IteCache, CacheOp::Ite, F.index(),
                                      G.index(), H.index(), Key);
  if (Hit)
    return withComplement(BddRef(Hit->Result), NegOut);

  BddVar Top = std::min(topVar(F), std::min(topVar(G), topVar(H)));
  BddRef HighRes =
      iteRec(cofactor(F, Top, true), cofactor(G, Top, true),
             cofactor(H, Top, true));
  if (!HighRes.isValid())
    return BddRef::invalid();
  BddRef LowRes =
      iteRec(cofactor(F, Top, false), cofactor(G, Top, false),
             cofactor(H, Top, false));
  if (!LowRes.isValid())
    return BddRef::invalid();

  BddRef R = mkNode(Top, LowRes, HighRes);
  if (R.isValid())
    cacheStore(IteCache, Key, CacheOp::Ite, F.index(), G.index(), H.index(),
               R.index());
  return withComplement(R, NegOut);
}

//===----------------------------------------------------------------------===//
// Implication: ITE-to-constant, no allocation
//===----------------------------------------------------------------------===//

namespace {

/// True when no terminal rule decides "F ⇒ G": both operands are
/// non-terminal and they are neither equal nor complementary.
bool isOpenPair(BddRef F, BddRef G) {
  return !F.isTerminal() & !G.isTerminal() &
         (F.nodeIndex() != G.nodeIndex());
}

/// The terminal rules' verdict on "F ⇒ G" for a pair that is not open:
/// 0 ⇒ G, F ⇒ 1 and F ⇒ F hold; 1 ⇒ G (G ≠ 1), F ⇒ 0 (F ≠ 0) and
/// F ⇒ ¬F (F ≠ 0) do not.
bool closedPairHolds(BddRef F, BddRef G) {
  return F.isFalse() || G.isTrue() || F == G;
}

} // namespace

bool BddManager::implies(BddRef F, BddRef G) {
  assert(F.isValid() && G.isValid() && "implies() on invalid refs");
  return isOpenPair(F, G) ? impliesRec(F, G) : closedPairHolds(F, G);
}

bool BddManager::impliesRec(BddRef F, BddRef G) {
  // (F, G) is an open pair. Each step splits it on the top variable into
  // two cofactor pairs. Clock BDDs are mostly cubes, so usually one pair is
  // closed by a terminal rule and the walk goes on down the other one: a
  // linear chain, which the op cache cannot shorten. Only a step that
  // leaves both pairs open is a branch point, where the memo stops shared
  // sub-pairs from being re-walked exponentially often — so only there is
  // the cache probed and stored.
  for (;;) {
    // No node budget to poll (nothing allocates here), but a pathological
    // query must still honor the time budget instead of running
    // unboundedly; one poll per step. On exhaustion the answer degrades to
    // a conservative "not proved"; callers read the verdict off the Budget.
    if (Bud) {
      if (Bud->exhausted())
        return false;
      if (++AllocsSincePoll >= 4096) {
        AllocsSincePoll = 0;
        if (!Bud->checkTime())
          return false;
      }
    }

    // Cofactors are existing edges only — this never calls mkNode. Both
    // operands of an open pair are non-terminal, so each node is read once.
    const Node &NF = Nodes[F.nodeIndex()];
    const Node &NG = Nodes[G.nodeIndex()];
    BddVar Top = std::min(NF.Var, NG.Var);
    BddRef F1 = F, F0 = F, G1 = G, G0 = G;
    if (NF.Var == Top) {
      F1 = withComplement(BddRef(NF.High), F.isComplement());
      F0 = withComplement(BddRef(NF.Low), F.isComplement());
    }
    if (NG.Var == Top) {
      G1 = withComplement(BddRef(NG.High), G.isComplement());
      G0 = withComplement(BddRef(NG.Low), G.isComplement());
    }
    bool HighOpen = isOpenPair(F1, G1), LowOpen = isOpenPair(F0, G0);
    if (!HighOpen) {
      if (!closedPairHolds(F1, G1))
        return false;
      if (!LowOpen)
        return closedPairHolds(F0, G0);
      F = F0;
      G = G0;
      continue;
    }
    if (!LowOpen) {
      if (!closedPairHolds(F0, G0))
        return false;
      F = F1;
      G = G1;
      continue;
    }

    uint64_t Key;
    const CacheEntry *Hit =
        cacheLookup(OpCache, CacheOp::Implies, F.index(), G.index(), 0, Key);
    if (Hit)
      return Hit->Result != 0;
    bool R = impliesRec(F1, G1) && impliesRec(F0, G0);
    // A sub-query cut short by the budget must not poison the cache with a
    // conservative false.
    if (!budgetExhausted())
      cacheStore(OpCache, Key, CacheOp::Implies, F.index(), G.index(), 0,
                 R ? 1 : 0);
    return R;
  }
}

//===----------------------------------------------------------------------===//
// Cofactors, quantification, composition
//===----------------------------------------------------------------------===//

BddRef BddManager::restrict(BddRef F, BddVar Var, bool Value) {
  if (!F.isValid())
    return BddRef::invalid();
  maybeCollect();
  return restrictRec(F, Var, Value);
}

BddRef BddManager::restrictRec(BddRef F, BddVar Var, bool Value) {
  if (F.isTerminal())
    return F;
  // Copied by value: the recursive calls below allocate through mkNode,
  // which may reallocate the Nodes arena under a held reference.
  const Node N = Nodes[F.nodeIndex()];
  if (N.Var > Var)
    return F; // Var does not occur in F.
  bool C = F.isComplement();
  if (N.Var == Var)
    return withComplement(BddRef(Value ? N.High : N.Low), C);

  // Restriction commutes with complement; cache on the regular ref so both
  // polarities share one entry.
  uint32_t VarKey = (Var << 1) | (Value ? 1u : 0u);
  uint64_t Key;
  const CacheEntry *Hit = cacheLookup(OpCache, CacheOp::Restrict,
                                      F.regular().index(), VarKey, 0, Key);
  if (Hit)
    return withComplement(BddRef(Hit->Result), C);

  BddRef Low = restrictRec(BddRef(N.Low), Var, Value);
  BddRef High = restrictRec(BddRef(N.High), Var, Value);
  BddRef R = mkNode(N.Var, Low, High);
  if (R.isValid())
    cacheStore(OpCache, Key, CacheOp::Restrict, F.regular().index(), VarKey,
               0, R.index());
  return withComplement(R, C);
}

BddRef BddManager::exists(BddRef F, BddVar Var) {
  if (!F.isValid())
    return F;
  maybeCollect();
  return existsRec(F, Var);
}

BddRef BddManager::forall(BddRef F, BddVar Var) {
  // ∀x.F = ¬∃x.¬F — free with complement edges.
  if (!F.isValid())
    return F;
  maybeCollect();
  return !existsRec(!F, Var);
}

BddRef BddManager::existsRec(BddRef F, BddVar Var) {
  if (F.isTerminal())
    return F;
  // Copied by value: recursion below allocates and may move the arena.
  const Node N = Nodes[F.nodeIndex()];
  if (N.Var > Var)
    return F; // Var does not occur in F.
  bool C = F.isComplement();
  BddRef Low = withComplement(BddRef(N.Low), C);
  BddRef High = withComplement(BddRef(N.High), C);
  if (N.Var == Var)
    return iteRec(Low, BddRef::trueRef(), High); // Low ∨ High

  // Quantification does not commute with complement: cache the full ref.
  uint64_t Key;
  const CacheEntry *Hit =
      cacheLookup(OpCache, CacheOp::Exists, F.index(), Var, 0, Key);
  if (Hit)
    return BddRef(Hit->Result);

  BddRef LowQ = existsRec(Low, Var);
  if (!LowQ.isValid())
    return BddRef::invalid();
  BddRef HighQ = existsRec(High, Var);
  if (!HighQ.isValid())
    return BddRef::invalid();
  BddRef R = mkNode(N.Var, LowQ, HighQ);
  if (R.isValid())
    cacheStore(OpCache, Key, CacheOp::Exists, F.index(), Var, 0, R.index());
  return R;
}

BddRef BddManager::existsMany(BddRef F, const std::vector<BddVar> &Vars) {
  if (!F.isValid())
    return F;
  // One collection point up front; the loop below holds an unprotected
  // intermediate R, so no collecting between variables.
  maybeCollect();
  // Deepest (largest) variables first: quantifying bottom-up keeps each
  // pass inside the still-unquantified lower region of the graph instead
  // of re-traversing from the root for every variable.
  std::vector<BddVar> Order(Vars);
  std::sort(Order.begin(), Order.end(), std::greater<BddVar>());
  Order.erase(std::unique(Order.begin(), Order.end()), Order.end());
  BddRef R = F;
  for (BddVar V : Order) {
    if (R.isTerminal())
      break; // Nothing left to quantify.
    R = existsRec(R, V);
    if (!R.isValid())
      return R;
  }
  return R;
}

BddRef BddManager::compose(BddRef F, BddVar Var, BddRef G) {
  if (!F.isValid() || !G.isValid())
    return BddRef::invalid();
  maybeCollect();
  return composeRec(F, Var, G);
}

BddRef BddManager::composeRec(BddRef F, BddVar Var, BddRef G) {
  if (F.isTerminal())
    return F;
  // Copied by value: recursion below allocates and may move the arena.
  const Node N = Nodes[F.nodeIndex()];
  if (N.Var > Var)
    return F;
  bool C = F.isComplement();
  if (N.Var == Var)
    return withComplement(iteRec(G, BddRef(N.High), BddRef(N.Low)), C);

  // Substitution commutes with complement; cache on the regular ref.
  uint64_t Key;
  const CacheEntry *Hit =
      cacheLookup(OpCache, CacheOp::Compose, F.regular().index(), Var,
                  G.index(), Key);
  if (Hit)
    return withComplement(BddRef(Hit->Result), C);

  BddRef Low = composeRec(BddRef(N.Low), Var, G);
  if (!Low.isValid())
    return BddRef::invalid();
  BddRef High = composeRec(BddRef(N.High), Var, G);
  if (!High.isValid())
    return BddRef::invalid();
  // The substituted branches may now start above N.Var, so rebuild with ITE
  // on the branch variable rather than mkNode.
  BddRef VarF = mkNode(N.Var, bottom(), top());
  BddRef R = iteRec(VarF, High, Low);
  if (R.isValid())
    cacheStore(OpCache, Key, CacheOp::Compose, F.regular().index(), Var,
               G.index(), R.index());
  return withComplement(R, C);
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

std::vector<BddVar> BddManager::support(BddRef F) {
  std::vector<BddVar> Result;
  if (!F.isValid() || F.isTerminal())
    return Result;
  std::unordered_set<uint32_t> Seen;
  std::unordered_set<BddVar> Vars;
  std::vector<uint32_t> Stack{F.nodeIndex()};
  while (!Stack.empty()) {
    uint32_t Cur = Stack.back();
    Stack.pop_back();
    if (Cur == 0 || !Seen.insert(Cur).second)
      continue;
    const Node &N = Nodes[Cur];
    Vars.insert(N.Var);
    Stack.push_back(BddRef(N.Low).nodeIndex());
    Stack.push_back(BddRef(N.High).nodeIndex());
  }
  Result.assign(Vars.begin(), Vars.end());
  std::sort(Result.begin(), Result.end());
  return Result;
}

double BddManager::satCount(BddRef F, unsigned NumVarsTotal) {
  if (!F.isValid())
    return 0.0;
  std::vector<double> Memo(Nodes.size(), -1.0);
  double Count = satFraction(F, Memo);
  for (unsigned I = 0; I < NumVarsTotal; ++I)
    Count *= 2.0;
  return Count;
}

/// \returns the fraction of the full assignment space satisfying F. The
/// memo stores the fraction of each *regular* node function; a complement
/// bit on the way in flips it to 1 - fraction.
double BddManager::satFraction(BddRef F, std::vector<double> &Memo) {
  uint32_t Idx = F.nodeIndex();
  double Frac;
  if (Idx == 0) {
    Frac = 1.0; // True terminal.
  } else {
    double &M = Memo[Idx];
    if (M < 0.0) {
      const Node &N = Nodes[Idx];
      M = 0.5 * satFraction(BddRef(N.Low), Memo) +
          0.5 * satFraction(BddRef(N.High), Memo);
    }
    Frac = M;
  }
  return F.isComplement() ? 1.0 - Frac : Frac;
}

std::vector<std::pair<BddVar, bool>> BddManager::anySat(BddRef F) {
  std::vector<std::pair<BddVar, bool>> Path;
  assert(F.isValid() && !F.isFalse() && "anySat() requires satisfiable input");
  while (!F.isTerminal()) {
    const Node &N = Nodes[F.nodeIndex()];
    BddRef High = withComplement(BddRef(N.High), F.isComplement());
    if (!High.isFalse()) {
      Path.emplace_back(N.Var, true);
      F = High;
    } else {
      Path.emplace_back(N.Var, false);
      F = withComplement(BddRef(N.Low), F.isComplement());
    }
  }
  return Path;
}

uint64_t BddManager::countNodes(BddRef F) const {
  return countNodesMany({F});
}

uint64_t BddManager::countNodesMany(const std::vector<BddRef> &Roots) const {
  // Sharing is per node, independent of complement bits: F and ¬F have the
  // same structural size.
  std::unordered_set<uint32_t> Seen;
  std::vector<uint32_t> Stack;
  for (BddRef R : Roots)
    if (R.isValid() && !R.isTerminal())
      Stack.push_back(R.nodeIndex());
  uint64_t Count = 0;
  while (!Stack.empty()) {
    uint32_t Cur = Stack.back();
    Stack.pop_back();
    if (Cur == 0 || !Seen.insert(Cur).second)
      continue;
    ++Count;
    const Node &N = Nodes[Cur];
    Stack.push_back(BddRef(N.Low).nodeIndex());
    Stack.push_back(BddRef(N.High).nodeIndex());
  }
  return Count;
}

bool BddManager::evaluate(BddRef F, const std::vector<bool> &Assignment) const {
  assert(F.isValid() && "evaluate() on invalid ref");
  while (!F.isTerminal()) {
    const Node &N = Nodes[F.nodeIndex()];
    bool Value = N.Var < Assignment.size() && Assignment[N.Var];
    F = withComplement(BddRef(Value ? N.High : N.Low), F.isComplement());
  }
  return F.isTrue();
}
