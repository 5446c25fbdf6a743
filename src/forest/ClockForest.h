//===--- ClockForest.h - Arborescent canonical form of clocks ---*- C++-*-===//
///
/// \file
/// The paper's central data structure (Section 3.4): a forest of clock
/// trees in which
///
///   * every node stands for one equivalence class of clock variables
///     (equalities are solved first with union-find),
///   * an edge parent -> child means child ⊆ parent,
///   * each boolean condition C partitions its clock ĉ into the children
///     [C] and [¬C],
///   * every node carries a BDD over condition variables, *relative to the
///     root of its tree* (the root's BDD is the constant true),
///   * a defined clock k = k1 <op> k2 whose operands lie in one tree is
///     inserted under its deepest containing parent, computed by BDD
///     implication (the "canonical factorization" of [1]); equal BDDs merge
///     classes, which is what makes the representation canonical,
///   * trees are fused when a definition relates their roots.
///
/// Resolution runs the paper's three-step loop (Section 3.4 "Arborescent
/// resolution"): rewrite a root so its operands share a tree, fuse, repeat
/// until nothing changes. Equations whose left-hand side is already placed
/// are *verified* by BDD equality (the inclusion-based rewriting of the
/// PROCESS_ALARM example falls out of this: ĉ = [D] ∨ [C1] ∨ ĉ evaluates
/// to the root's BDD and is discharged). Unresolvable-but-orientable
/// equations remain as residual cross-tree definitions; unprovable or
/// cyclic ones make the program temporally incorrect.
///
/// Deviation from the paper, documented: where [1] proves the deepest
/// parent unique under their factorization scheme, we search all containing
/// branches and break ties deterministically (greater depth, then smaller
/// node id). The paper's syntactic p-depth rewriting limit is unnecessary
/// here because rewriting is semantic (on BDDs), which terminates.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_FOREST_CLOCKFOREST_H
#define SIGNALC_FOREST_CLOCKFOREST_H

#include "bdd/Bdd.h"
#include "clock/ClockSystem.h"
#include "clock/UnionFind.h"
#include "support/Diagnostics.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace sigc {

/// Index of a node in the forest; -1 is "no node".
using ForestNodeId = int;
constexpr ForestNodeId InvalidForestNode = -1;

/// How the presence of a clock node is computed at run time.
enum class ClockDefKind {
  Root,     ///< Free: the environment decides (an input clock).
  Literal,  ///< Parent present and condition value matches.
  Derived,  ///< k1 <op> k2 over previously computed clocks.
  Residual, ///< Like Derived, but cross-tree (kept as an explicit formula);
            ///< the node is the root of its own tree.
};

/// One node of the clock forest.
struct ClockNode {
  ClockVarId Rep = InvalidClockVar; ///< Canonical class representative.
  ForestNodeId Parent = InvalidForestNode;
  std::vector<ForestNodeId> Children;
  BddRef Bdd; ///< Relative to the tree root.
  bool Alive = true;

  ClockDefKind Def = ClockDefKind::Root;
  // Literal:
  SignalId CondSignal = InvalidSignal;
  bool Positive = true;
  // Derived / Residual:
  ClockOp Op = ClockOp::Inter;
  ClockVarId OpA = InvalidClockVar;
  ClockVarId OpB = InvalidClockVar;
};

/// Statistics of one resolution run (reported by the benchmarks).
struct ForestBuildStats {
  unsigned Insertions = 0;       ///< Nodes placed under a deeper parent.
  unsigned Fusions = 0;          ///< Tree-into-tree fusions.
  unsigned MergedClasses = 0;    ///< Classes unified by BDD equality.
  unsigned VerifiedEquations = 0;///< Equations discharged by rewriting.
  unsigned ResidualDefinitions = 0;
  unsigned NullClocks = 0;       ///< Classes proved empty.
  unsigned Iterations = 0;       ///< Fixpoint rounds.
  uint64_t BddNodes = 0;         ///< Manager size after the run.
  uint64_t InclusionTests = 0;   ///< BDD implies() calls (clock ⊆ clock).
};

/// The forest of clock trees of one program.
class ClockForest {
public:
  explicit ClockForest(BddManager &Mgr) : Mgr(Mgr) {}

  /// Runs the arborescent resolution on \p Sys.
  /// \returns false (with diagnostics) if the program is temporally
  /// incorrect or the BDD budget tripped.
  bool build(const ClockSystem &Sys, const KernelProgram &Prog,
             const StringInterner &Names, DiagnosticEngine &Diags);

  // --- Queries (valid after a successful build) -------------------------

  /// Canonical representative of \p V's equivalence class.
  ClockVarId rep(ClockVarId V) { return Classes.find(V); }

  /// \returns the forest node of \p V's class, or InvalidForestNode when
  /// the class is the null clock.
  ForestNodeId nodeOf(ClockVarId V);

  /// \returns true if \p V's class is the empty clock 0̂.
  bool isNull(ClockVarId V);

  const ClockNode &node(ForestNodeId N) const { return Nodes[N]; }
  unsigned numNodes() const { return static_cast<unsigned>(Nodes.size()); }

  /// Roots of all alive trees, in deterministic order.
  std::vector<ForestNodeId> roots() const;

  /// Left-to-right depth-first order over all trees; parents precede
  /// children (the order that embodies triangularity).
  std::vector<ForestNodeId> dfsOrder() const;

  /// Clock classes the environment must provide (roots with no residual
  /// definition) — the "free variables exhibited by the compilation".
  std::vector<ForestNodeId> freeClocks() const;

  /// Depth of \p N in its tree (root = 0).
  unsigned depth(ForestNodeId N) const;

  /// The BDD variable standing for the value of condition \p C.
  /// \returns the variable, or ~0u if \p C never became a condition.
  BddVar conditionVar(SignalId C) const;

  const ForestBuildStats &stats() const { return Stats; }
  BddManager &bddManager() { return Mgr; }

  /// Size of the representation itself: shared BDD nodes reachable from
  /// the alive tree nodes (the paper's "nodes" column measures the size
  /// of the representation, not allocator churn).
  uint64_t liveBddNodes() const;

  /// Renders the forest as an indented tree listing (tests, -dump-tree).
  std::string dump(const ClockSystem &Sys, const KernelProgram &Prog,
                   const StringInterner &Names);

  /// Renders the forest as a Graphviz digraph (solid edges = tree
  /// inclusion, dashed = derived/residual operand dependencies).
  std::string toDot(const ClockSystem &Sys, const KernelProgram &Prog,
                    const StringInterner &Names);

private:
  struct ResolvedOperand {
    bool Null = false;
    ForestNodeId Node = InvalidForestNode;
    ForestNodeId Root = InvalidForestNode;
    BddRef Bdd;
  };

  /// The inclusion test Sub ⊆ Sup on relative BDDs; counted in Stats.
  bool includes(BddRef Sub, BddRef Sup);
  ForestNodeId rootOf(ForestNodeId N) const;
  ForestNodeId newNode(ClockVarId Rep);
  void markNullSubtree(ForestNodeId N);
  void setClassNull(ClockVarId Rep);
  bool classIsNull(ClockVarId Rep);
  ResolvedOperand resolveOperand(ClockVarId V);

  /// Recomputes the BDDs of \p Sub's proper descendants after \p Sub's own
  /// BDD changed from "true" (it was a root) to its new in-tree value.
  bool refreshSubtreeBdds(ForestNodeId Sub);

  /// Finds the deepest alive node of the tree rooted at \p Root whose BDD
  /// contains \p Target; also reports an exact-BDD match if one exists.
  ForestNodeId findDeepestParent(ForestNodeId Root, BddRef Target,
                                 ForestNodeId *EqualNode);

  /// Attaches the tree rooted at \p Sub into the tree of \p TargetRoot,
  /// giving Sub the relative BDD \p NewBdd. Merges classes on BDD
  /// equality. \returns false on budget exhaustion or cycle.
  bool attachSubtree(ForestNodeId Sub, ForestNodeId TargetRoot, BddRef NewBdd,
                     DiagnosticEngine &Diags, SourceLoc Loc);

  /// Merges class/subtree of \p From into node \p Into (equal BDDs).
  bool mergeInto(ForestNodeId From, ForestNodeId Into,
                 DiagnosticEngine &Diags, SourceLoc Loc);

  void appendDump(ForestNodeId N, unsigned Indent, const ClockSystem &Sys,
                  const KernelProgram &Prog, const StringInterner &Names,
                  std::string &Out);

  BddManager &Mgr;
  UnionFind Classes;
  std::unordered_map<ClockVarId, ForestNodeId> ClassNode;
  std::unordered_map<ClockVarId, bool> NullClass;
  std::unordered_map<SignalId, BddVar> CondVars;
  std::vector<ClockNode> Nodes;
  ForestBuildStats Stats;
};

} // namespace sigc

#endif // SIGNALC_FOREST_CLOCKFOREST_H
