//===--- bench_bdd.cpp - BDD substrate micro-benchmarks -------------------===//
///
/// Two purposes:
///   * raw throughput of the ROBDD package (ITE chains, unique-table
///     pressure), to document the substrate the clock calculus rests on;
///   * the blow-up mechanism behind Figure 13: the characteristic function
///     of a "sampling grid" clock system grows steeply with the grid edge,
///     while the sum of the per-clock BDDs the tree keeps grows linearly.
///
/// CI runs this binary with --benchmark_format=json and uploads the result
/// as BENCH_bdd.json, so the numbers form a per-commit trajectory. For the
/// complement-edge rework the reference before/after on the CI class of
/// machine (RelWithDebInfo, 1 shared vCPU, ±10% run-to-run noise) was:
///
///   BM_IteChain/64       805 us  ->  ~190 us  (right-sized tables: the old
///                                              manager memset 2 MB of
///                                              caches per construction)
///   BM_IteChain/1024     170 ms  ->  ~155 ms  (complement edges + standard
///                                              triples + one-round hashes)
///   BM_XorLadder/256     4.4 ms  ->  ~2.0 ms  (¬ is free: xor's negated
///                                              subproblems share nodes and
///                                              cache lines with the duals)
///   BM_CharFuncGrid/7    544 ms  ->  ~465 ms
///   BM_PerClockGrid/12    92 us  ->  ~10 us
///   BM_ImpliesWarm/*     new     ->  reports nodes_allocated == 0: the
///                                    inclusion test of the forest hot loops
///                                    no longer allocates (pre-rework it
///                                    built an apply_diff BDD per query)
///
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "solver/CharFunc.h"

#include <benchmark/benchmark.h>

using namespace sigc;

namespace {

void BM_IteChain(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    BddManager M;
    BddRef F = M.top();
    for (unsigned I = 0; I < N; ++I)
      F = M.apply_and(F, M.apply_or(M.var(2 * I), M.var(2 * I + 1)));
    benchmark::DoNotOptimize(F.index());
  }
  State.SetItemsProcessed(State.iterations() * N);
}

void BM_XorLadder(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    BddManager M;
    BddRef F = M.bottom();
    for (unsigned I = 0; I < N; ++I)
      F = M.apply_xor(F, M.var(I));
    benchmark::DoNotOptimize(F.index());
  }
  State.SetItemsProcessed(State.iterations() * N);
}

/// Builds the characteristic function of an n×n sampling grid:
/// m_ij ⇔ p_i ∧ q_j over presence variables, plus the partitions.
void BM_CharFuncGrid(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  // Variables: p_1..p_n at 0..n-1, q_1..q_n at n..2n-1, m_ij after.
  std::vector<CharConstraint> Cs;
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J) {
      CharConstraint C;
      C.Kind = CharConstraint::Kind::Equation;
      C.Op = ClockOp::Inter;
      C.V0 = 2 * N + I * N + J;
      C.V1 = I;
      C.V2 = N + J;
      Cs.push_back(C);
    }
  uint64_t Nodes = 0;
  for (auto _ : State) {
    BddManager M;
    CharFuncResult R = buildCharFunc(M, 2 * N + N * N, Cs);
    benchmark::DoNotOptimize(R.Chi.index());
    Nodes = M.numNodes();
  }
  State.counters["chi_nodes"] = static_cast<double>(Nodes);
}

/// The tree-side equivalent: each m_ij keeps its own 2-variable BDD;
/// total nodes grow linearly in the number of grid cells.
void BM_PerClockGrid(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  uint64_t Nodes = 0;
  for (auto _ : State) {
    BddManager M;
    std::vector<BddRef> Clocks;
    for (unsigned I = 0; I < N; ++I)
      for (unsigned J = 0; J < N; ++J)
        Clocks.push_back(M.apply_and(M.var(I), M.var(N + J)));
    benchmark::DoNotOptimize(Clocks.size());
    Nodes = M.numNodes();
  }
  State.counters["tree_nodes"] = static_cast<double>(Nodes);
}

/// The forest's hot operation: inclusion tests between per-clock BDDs
/// (ClockForest::findDeepestParent probes every candidate parent). implies()
/// is an ITE-to-constant check: nodes_allocated counts BDD nodes created
/// across all timed queries and must stay 0. These clocks are conjunctions
/// of disjunctions, so both cofactor pairs stay open at every other level:
/// the queries run through the memoized branch points, and warm repeats
/// are answered by the op cache at the top pair.
void BM_ImpliesWarm(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  BddManager M;
  std::vector<BddRef> Clocks;
  BddRef F = M.top();
  for (unsigned I = 0; I < N; ++I) {
    F = M.apply_and(F, M.apply_or(M.var(2 * I), M.var(2 * I + 1)));
    Clocks.push_back(F);
  }
  uint64_t Before = M.numNodes();
  for (auto _ : State) {
    bool R = true;
    for (unsigned I = 1; I < Clocks.size(); ++I) {
      R &= M.implies(Clocks[I], Clocks[I - 1]); // deeper ⊆ shallower: true
      R &= !M.implies(Clocks[I - 1], Clocks[I]);
    }
    benchmark::DoNotOptimize(R);
  }
  State.counters["nodes_allocated"] =
      static_cast<double>(M.numNodes() - Before);
  State.SetItemsProcessed(State.iterations() * 2 * (N - 1));
}

/// Multi-variable quantification over a wide conjunction; the descending
/// (deepest-first) order keeps each pass inside the unquantified suffix.
void BM_ExistsMany(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  BddManager M;
  BddRef F = M.top();
  for (unsigned I = 0; I < N; ++I)
    F = M.apply_and(F, M.apply_or(M.var(2 * I), M.var(2 * I + 1)));
  // Quantify the odd half of the variables: the result stays non-trivial.
  std::vector<BddVar> Vars;
  for (unsigned V = 1; V < 2 * N; V += 2)
    Vars.push_back(V);
  for (auto _ : State) {
    BddRef R = M.existsMany(F, Vars);
    benchmark::DoNotOptimize(R.index());
  }
  State.SetItemsProcessed(State.iterations() * Vars.size());
}

void BM_SatCount(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  BddManager M;
  BddRef F = M.bottom();
  for (unsigned I = 0; I < N; ++I)
    F = M.apply_xor(F, M.var(I));
  for (auto _ : State) {
    double C = M.satCount(F, N);
    benchmark::DoNotOptimize(C);
  }
}

} // namespace

BENCHMARK(BM_IteChain)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_XorLadder)->Arg(64)->Arg(256);
BENCHMARK(BM_CharFuncGrid)->Arg(3)->Arg(5)->Arg(7);
BENCHMARK(BM_PerClockGrid)->Arg(3)->Arg(5)->Arg(7)->Arg(12);
BENCHMARK(BM_ImpliesWarm)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_ExistsMany)->Arg(16)->Arg(64);
BENCHMARK(BM_SatCount)->Arg(32)->Arg(128);

BENCHMARK_MAIN();
