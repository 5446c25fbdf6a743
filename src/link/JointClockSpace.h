//===--- JointClockSpace.h - Cross-producer clock obligations ---*- C++-*-===//
///
/// \file
/// A joint BDD clock space spanning every unit of a link. Each unit's
/// forest carries BDDs over its *own* condition variables, relative to
/// its *own* tree roots — enough for obligations a single producer can
/// discharge, but meaningless across producers. The joint space gives
/// all units one shared vocabulary:
///
///   * a condition variable is keyed by its *canonical* signal — channel
///     imports resolve to the producing export, unmatched imports of the
///     same name resolve to one shared external input — so the same
///     boolean value is the same variable in every unit,
///   * a free root bound by a channel is the producer's presence
///     function, recursively; an unbound free root is a variable keyed
///     by the clock-input *name* (the executor paces same-named roots
///     from one environment tick, so name equality is clock equality),
///   * residual/derived roots and recursive bindings fall back to fresh
///     variables — conservative: the space never claims more than it
///     can justify.
///
/// The absolute presence function of any exported signal is then
/// root-function ∧ translated-relative-BDD, and an obligation spanning
/// two producers is one implies() call in the joint manager — the same
/// reduction the paper gets inside one process from the canonical
/// forest. The joint manager aggregates every unit's conditions and
/// frees nothing, so a node-limited LinkOptions::Limits bounds it: once
/// the budget trips, every proof fails and the link is rejected.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_LINK_JOINTCLOCKSPACE_H
#define SIGNALC_LINK_JOINTCLOCKSPACE_H

#include "link/Linker.h"

#include <map>
#include <set>
#include <string>

namespace sigc {

class JointClockSpace {
public:
  /// \p Sys must have Units, Channels and channel descriptor indices
  /// resolved. \p Limits bounds the joint manager.
  JointClockSpace(LinkedSystem &Sys, const Budget &Limits);

  /// Proves clock(SigA of unit UA) == clock(SigB of unit UB) in the
  /// joint space. Conservative: false on any doubt or budget trip.
  bool proveEqual(unsigned UA, SignalId SigA, unsigned UB, SignalId SigB);

  /// Proves clock(SigA of UA) ⊆ clock(SigB of UB).
  bool proveIncluded(unsigned UA, SignalId SigA, unsigned UB, SignalId SigB);

  bool exhausted() const { return Bud.exhausted(); }
  BudgetVerdict verdict() const { return Bud.verdict(); }

private:
  /// Absolute presence function of forest node \p N of unit \p U.
  BddRef presence(unsigned U, ForestNodeId N);

  /// Presence of the *root* of unit \p U's tree rooted at \p Root.
  BddRef rootFn(unsigned U, ForestNodeId Root);

  /// Structurally rebuilds unit-relative BDD \p F over joint variables.
  BddRef translate(unsigned U, BddRef F);

  /// Joint variable for unit \p U's condition variable \p V.
  BddVar jointCondVar(unsigned U, BddVar V);

  /// Joint variable under a canonical string key (shared across units).
  BddVar namedVar(const std::string &Key);

  /// Canonicalizes (unit, signal) across channels: a channel import
  /// becomes the producing (unit, export).
  std::pair<unsigned, SignalId> canonicalSignal(unsigned U, SignalId S) const;

  LinkedSystem &Sys;
  Budget Bud;
  BddManager Joint;
  unsigned NextVar = 0;

  std::map<std::string, BddVar> NamedVars;
  /// Per-unit reverse map: unit condition var -> condition signal.
  std::vector<std::map<BddVar, SignalId>> CondSignalOf;
  /// Per-unit map: forest node -> DFS position (== clock slot).
  std::vector<std::map<ForestNodeId, int>> DfsPos;

  std::map<std::pair<unsigned, unsigned>, BddRef> XlatMemo; ///< (U, bits).
  std::map<std::pair<unsigned, unsigned>, BddRef> RootMemo; ///< (U, node).
  std::map<std::pair<unsigned, unsigned>, BddRef> PresMemo; ///< (U, node).
  std::set<std::pair<unsigned, unsigned>> InProgress;
};

} // namespace sigc

#endif // SIGNALC_LINK_JOINTCLOCKSPACE_H
