//===--- Bdd.h - Reduced ordered binary decision diagrams -------*- C++-*-===//
///
/// \file
/// A from-scratch ROBDD package in the style of Brace/Rudell/Bryant
/// ("Efficient Implementation of a BDD Package", DAC 1990), standing in for
/// the UC Berkeley package the paper used. It provides what the SIGNAL
/// clock calculus asks of a BDD package:
///
///   * canonical node construction through a shared unique table,
///   * ITE with standard-triple normalization and the derived boolean
///     connectives (and/or/not/diff/xor/iff),
///   * a non-allocating implication (inclusion) test — the hot operation of
///     the arborescent resolution,
///   * cofactors (the characteristic-function baseline's determinacy test),
///   * node counting, plus satisfying-assignment counting and evaluation
///     as references for tests,
///   * a node budget hooked into sigc::Budget so that runaway constructions
///     surface as the paper's "unable-mem"/"unable-cpu" verdicts instead of
///     exhausting the machine.
///
/// Representation: **complement edges** with a single True terminal. A
/// BddRef packs a node index and a complement bit; negation is a constant
/// time bit flip that allocates nothing. Canonicity is preserved by the
/// Brace-Rudell-Bryant rule that only else-edges (and external references)
/// may carry the complement bit: a node's then-edge is always regular, and
/// mkNode() re-normalizes by complementing both branches and the result
/// when handed a complemented then-branch. Consequences for clients:
///
///   * nodeHigh()/nodeLow() return the *semantic* cofactors of the referenced
///     function (the stored edge with the reference's own complement bit
///     pushed through), so evaluation-style traversals keep working
///     unchanged; identity-style traversals (sharing, node counts) must key
///     on nodeIndex(), not on the full reference;
///   * a function and its negation share every node, so apply_not() is free
///     and the ¬, ∧/∨ De-Morgan duals hit the same cache lines;
///   * the False terminal is the complemented True terminal: there is
///     exactly one terminal node (index 0).
///
/// Nodes are referenced by 32-bit packed refs into an arena that only
/// grows: a manager lives for one solver run or one link, nothing is ever
/// freed, and a held BddRef stays valid for the manager's lifetime. The
/// unique table and the operation caches start small and grow with the
/// arena.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_BDD_BDD_H
#define SIGNALC_BDD_BDD_H

#include "support/Budget.h"

#include <cstdint>
#include <vector>

namespace sigc {

/// A reference to a BDD node inside a BddManager: a node index in the upper
/// 31 bits and a complement ("negate this function") bit in bit 0.
///
/// The null reference (invalid()) is returned by operations that were cut
/// short by the resource budget; it propagates through all operations.
class BddRef {
public:
  BddRef() = default;
  /// Raw-bits constructor: \p Bits is (nodeIndex << 1) | complement.
  explicit BddRef(uint32_t Bits) : Bits(Bits) {}

  static BddRef falseRef() { return BddRef(1); } // ¬True
  static BddRef trueRef() { return BddRef(0); }
  static BddRef invalid() { return BddRef(); }

  bool isValid() const { return Bits != InvalidBits; }
  bool isFalse() const { return Bits == 1; }
  bool isTrue() const { return Bits == 0; }
  bool isTerminal() const { return Bits <= 1; }

  /// The packed representation (node index + complement bit). Two refs are
  /// the same function iff their index() is equal.
  uint32_t index() const { return Bits; }

  /// Index of the referenced node in the manager's arena (complement bit
  /// stripped). F and ¬F have equal nodeIndex().
  uint32_t nodeIndex() const { return Bits >> 1; }

  /// \returns true if this reference complements the stored node function.
  bool isComplement() const { return (Bits & 1u) != 0; }

  /// The same node without the complement bit.
  BddRef regular() const { return BddRef(Bits & ~1u); }

  /// The negated function — constant time, no allocation. Negating the
  /// invalid ref yields the invalid ref.
  BddRef operator!() const {
    return isValid() ? BddRef(Bits ^ 1u) : invalid();
  }

  bool operator==(const BddRef &RHS) const { return Bits == RHS.Bits; }
  bool operator!=(const BddRef &RHS) const { return Bits != RHS.Bits; }
  bool operator<(const BddRef &RHS) const { return Bits < RHS.Bits; }

private:
  static constexpr uint32_t InvalidBits = 0xFFFFFFFFu;
  uint32_t Bits = InvalidBits;
};

/// A BDD variable, identified by its position in the (fixed) order:
/// smaller value = closer to the root.
using BddVar = uint32_t;

/// Shared-unique-table BDD manager.
class BddManager {
public:
  BddManager();

  /// Attaches a resource budget. The manager checks the node limit on every
  /// allocation and the time limit periodically; once the budget trips, all
  /// operations return BddRef::invalid().
  void setBudget(Budget *B) { Bud = B; }

  /// Declares (or returns) the projection function of variable \p Var.
  BddRef var(BddVar Var);
  /// \returns the complement of variable \p Var.
  BddRef nvar(BddVar Var);

  BddRef top() const { return BddRef::trueRef(); }
  BddRef bottom() const { return BddRef::falseRef(); }

  /// If-then-else: the universal connective. Normalizes the operand triple
  /// (equal/complement collapse, commutation toward the smaller operand,
  /// complement canonicalization) so all equivalent calls share one cache
  /// line and one polarity of the result.
  BddRef ite(BddRef F, BddRef G, BddRef H);

  BddRef apply_and(BddRef F, BddRef G) { return ite(F, G, bottom()); }
  BddRef apply_or(BddRef F, BddRef G) { return ite(F, top(), G); }
  /// Negation is a complement-bit flip: constant time, no allocation.
  BddRef apply_not(BddRef F) { return !F; }
  /// Set difference F \ G  =  F ∧ ¬G.
  BddRef apply_diff(BddRef F, BddRef G) { return ite(F, !G, bottom()); }
  BddRef apply_xor(BddRef F, BddRef G) { return ite(F, !G, G); }
  /// Biconditional F ⇔ G.
  BddRef apply_iff(BddRef F, BddRef G) { return ite(F, G, !G); }
  /// Implication as a function: ¬F ∨ G.
  BddRef apply_imp(BddRef F, BddRef G) { return ite(F, G, top()); }

  /// \returns true iff F ⇒ G is a tautology, i.e. F ∧ ¬G = 0.
  /// For clocks this is the inclusion test F ⊆ G. This is an ITE-to-constant
  /// check over existing nodes that allocates nothing, so it can never trip
  /// the node budget (the forest's hot loops call it per candidate parent).
  /// It walks cofactor pairs down the variable order: where a terminal rule
  /// settles one of the two pairs it loops on the other without touching
  /// the op cache (the common case — clock BDDs are mostly cubes), and it
  /// memoizes only the branch points where both pairs stay open. It does
  /// poll the time budget; once that trips it conservatively answers false
  /// and caches nothing — check budgetExhausted() to tell a refutation from
  /// an abort.
  bool implies(BddRef F, BddRef G);

  /// Positive/negative cofactor of \p F by variable \p Var.
  BddRef restrict(BddRef F, BddVar Var, bool Value);

  /// Number of satisfying assignments of \p F over \p NumVars variables.
  double satCount(BddRef F, unsigned NumVars);

  /// Structural size of the graph rooted at \p F (the terminal is not
  /// counted; F and ¬F have equal size since they share every node).
  uint64_t countNodes(BddRef F) const;
  /// Structural size of the union of the graphs rooted at \p Roots.
  uint64_t countNodesMany(const std::vector<BddRef> &Roots) const;

  /// Total nodes ever allocated in this manager (excludes the terminal).
  uint64_t numNodes() const { return Nodes.size() - 1; }

  /// Largest variable ever successfully declared, plus one. Budget-tripped
  /// var()/nvar() calls do not count.
  unsigned numVars() const { return NumVars; }

  /// Accessors for traversals. nodeLow()/nodeHigh() return the *semantic*
  /// else/then cofactor of the function F references: the stored edge with
  /// F's complement bit pushed through. Traversals that compute with the
  /// function can use them unchanged; traversals that need node identity
  /// (sharing, counting) must key on nodeIndex().
  BddVar nodeVar(BddRef F) const { return Nodes[F.nodeIndex()].Var; }
  BddRef nodeLow(BddRef F) const {
    return withComplement(BddRef(Nodes[F.nodeIndex()].Low), F.isComplement());
  }
  BddRef nodeHigh(BddRef F) const {
    return withComplement(BddRef(Nodes[F.nodeIndex()].High),
                          F.isComplement());
  }

  /// Evaluates F under a full assignment (index = variable).
  bool evaluate(BddRef F, const std::vector<bool> &Assignment) const;

  /// \returns true once the attached budget has tripped.
  bool budgetExhausted() const { return Bud && Bud->exhausted(); }

  /// Testing hook: clamps both operation caches to \p Entries slots
  /// (rounded down to a power of two, minimum 1) and freezes automatic
  /// cache growth, so collisions become easy to force. Never use outside
  /// tests.
  void setCacheCapacityForTesting(uint32_t Entries);

  // --- Instrumentation (cheap counters, read by bench_bdd) ---------------
  uint64_t cacheHits() const { return Stats.CacheHits; }
  uint64_t cacheMisses() const { return Stats.CacheMisses; }
  /// Cache slots whose stored operands did not match the probe — the case
  /// the pre-rework cache silently mistook for a hit.
  uint64_t cacheCollisions() const { return Stats.CacheCollisions; }

private:
  /// Operation tag stored in each cache entry; an entry only hits when the
  /// tag *and* all stored operands match the probe verbatim. Tags are
  /// hashed into the slot index, so their values are pinned: adding or
  /// removing an operation must not move the other operations' slots (and
  /// with them the `bdd_cache_probes=` count of a compile).
  enum class CacheOp : uint32_t {
    None = 0, ///< Empty slot.
    Ite = 1,
    Restrict = 2,
    Implies = 5,
  };

  struct Node {
    BddVar Var;    ///< The terminal uses TerminalVar.
    uint32_t Low;  ///< Else-branch ref bits (may carry the complement bit).
    uint32_t High; ///< Then-branch ref bits (never complemented).
  };

  static constexpr BddVar TerminalVar = 0xFFFFFFFFu;
  static constexpr uint32_t NoEntry = 0xFFFFFFFFu;

  /// One operand-verified cache slot: the verbatim (op, A, B, C) key plus
  /// the result. Hash collisions compare unequal and count as misses
  /// instead of silently returning the colliding entry's result.
  /// Deliberately trivial (no default member initializers): whole tables
  /// are created zero-filled, which the allocator turns into a memset, and
  /// an all-zero entry reads as an empty slot (Op == CacheOp::None).
  struct CacheEntry {
    uint32_t Op; ///< CacheOp; None marks an empty slot.
    uint32_t A;
    uint32_t B;
    uint32_t C;
    uint32_t Result;
  };

  static BddRef withComplement(BddRef R, bool Complement) {
    return Complement ? !R : R;
  }

  /// splitmix64 finalizer: the mixing round behind both hash tables.
  static uint64_t mix64(uint64_t X) {
    X += 0x9e3779b97f4a7c15ull;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
    return X ^ (X >> 31);
  }

  /// One-round hash of a node triple for the open-addressed unique table;
  /// collisions are resolved by probing, so one mix round is enough.
  static uint64_t hashNode(BddVar Var, uint32_t Low, uint32_t High) {
    uint64_t X = (uint64_t(Low) << 32) | High;
    return mix64(X ^ uint64_t(Var) * 0x100000001b3ull);
  }

  /// One-round hash of an op-tagged cache key. The caches are direct-mapped
  /// and operand-verified, so a colliding key is a miss, never a wrong hit.
  static uint64_t hashCacheKey(uint32_t Op, uint32_t A, uint32_t B,
                               uint32_t C) {
    uint64_t X = (uint64_t(A) << 32) | B;
    uint64_t Y = (uint64_t(Op) << 32) | C;
    return mix64(X ^ Y * 0x9e3779b97f4a7c15ull);
  }

  BddRef mkNode(BddVar Var, BddRef Low, BddRef High);
  uint32_t *uniqueSlot(BddVar Var, uint32_t Low, uint32_t High);
  void growUnique();
  void growCachesTo(unsigned TargetLog2);
  bool pollBudget();

  /// Probes \p Cache for (Op, A, B, C); writes the computed hash to
  /// \p HashOut so a following cacheStore() does not re-hash. Defined here
  /// so the per-recursion probe inlines into the operation loops.
  const CacheEntry *cacheLookup(const std::vector<CacheEntry> &Cache,
                                CacheOp Op, uint32_t A, uint32_t B, uint32_t C,
                                uint64_t &HashOut) {
    HashOut = hashCacheKey(static_cast<uint32_t>(Op), A, B, C);
    const CacheEntry &E = Cache[HashOut & CacheMask];
    if (E.Op == static_cast<uint32_t>(Op) && E.A == A && E.B == B &&
        E.C == C) {
      ++Stats.CacheHits;
      return &E;
    }
    if (E.Op != static_cast<uint32_t>(CacheOp::None))
      ++Stats.CacheCollisions;
    ++Stats.CacheMisses;
    return nullptr;
  }

  void cacheStore(std::vector<CacheEntry> &Cache, uint64_t Hash, CacheOp Op,
                  uint32_t A, uint32_t B, uint32_t C, uint32_t Result) {
    Cache[Hash & CacheMask] = {static_cast<uint32_t>(Op), A, B, C, Result};
  }

  BddVar topVar(BddRef F) const {
    return F.isTerminal() ? TerminalVar : Nodes[F.nodeIndex()].Var;
  }
  /// Cofactor of \p F by the variable \p Top (no-op when F starts lower).
  BddRef cofactor(BddRef F, BddVar Top, bool High) const;

  BddRef iteRec(BddRef F, BddRef G, BddRef H);
  bool impliesRec(BddRef F, BddRef G);
  BddRef restrictRec(BddRef F, BddVar Var, bool Value);
  double satFraction(BddRef F, std::vector<double> &Memo);

  struct Counters {
    uint64_t CacheHits = 0;
    uint64_t CacheMisses = 0;
    uint64_t CacheCollisions = 0;
  };

  std::vector<Node> Nodes;
  std::vector<uint32_t> UniqueTable; ///< Open-addressed, stores node indices.
  uint32_t UniqueMask = 0;

  std::vector<CacheEntry> IteCache;
  std::vector<CacheEntry> OpCache; ///< restrict/implies.
  uint32_t CacheMask = 0;
  bool CacheGrowthFrozen = false;

  unsigned NumVars = 0;
  Budget *Bud = nullptr;
  uint64_t AllocsSincePoll = 0;
  Counters Stats;
};

} // namespace sigc

#endif // SIGNALC_BDD_BDD_H
