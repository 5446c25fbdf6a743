//===--- Oracle.h - Differential simulation oracle --------------*- C++-*-===//
///
/// \file
/// The differential oracle behind the repo's correctness story: compile a
/// SIGNAL source, then run the same random input trace through every
/// execution path the compiler has —
///
///   1. the reference fixpoint interpreter (KernelInterp),
///   2. the step program's nested lowering on the VM (the Compilation's
///      CompiledStep through VmExecutor), both instant by instant and
///      batched through the bulk environment exchange (stepN windows),
///      plus a record -> replay round trip through the binary trace
///      format,
///   3. the step program's flat lowering on the same VM (Figure 9's
///      code b). Besides the trace, its counters check the nested ones
///      against the lowerings' structure: both execute the same number
///      of instructions, flat tests each of its skips once per instant,
///      and nested never tests more,
///   4. optionally, the emitted C — lowered from the same CompiledStep
///      bytecode — round-tripped through the host C compiler (-std=c99
///      -Wall -Werror) and executed as a subprocess, its generated
///      guard/executed counters pinned equal to the VM's,
///   5. optionally, the native tier's hot swap: the same bytecode
///      compiled to a shared object through the production cache path
///      and, at every batch boundary k, a run that interprets k
///      instants then finishes on the dlopen'd step function — pinned
///      trace- and counter-identical to the pure VM run,
///
/// and demand bit-identical output traces. Any divergence is a bug in the
/// clock hierarchy, the schedule, the step compiler or the C emitter, and
/// the report carries the program source plus the first differing events
/// so the failure reproduces from the test log alone.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_TESTING_ORACLE_H
#define SIGNALC_TESTING_ORACLE_H

#include "interp/Environment.h"
#include "link/Linker.h"
#include "testing/RandomProgram.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sigc {

/// Options of one oracle run.
struct OracleOptions {
  unsigned Instants = 64;      ///< Reactions to execute.
  uint64_t EnvSeed = 1;        ///< RandomEnvironment seed.
  unsigned TickPermille = 800; ///< Free-clock tick probability.
  /// Window size of the batched VM/linked legs (stepN); every oracle run
  /// drives both the unbatched and the batched engine and demands
  /// identical traces and counters.
  unsigned BatchSize = 8;
  /// Also compile the emitted C with the host C compiler (-std=c99
  /// -Wall -Werror) and compare the subprocess trace and its
  /// guard/executed counters against the VM's. Skipped (not failed)
  /// when no compiler is found.
  bool EmitCRoundTrip = false;
  /// Also run the native tier's hot-swap leg: the CompiledStep is
  /// compiled to a shared object (in a throwaway cache directory) and,
  /// for every batch boundary k, the trace of "interpret k instants,
  /// swap the session onto the native step function, finish native"
  /// must equal the pure-VM trace bit for bit, final counters included.
  /// Skipped (not failed) when no host C compiler is found.
  bool NativeSwap = false;
};

/// Outcome of one oracle run.
struct OracleReport {
  bool Ok = false;
  /// On failure: which paths diverged, the first differing events, and
  /// the program source (empty when Ok).
  std::string Error;
  /// Guard-test and instruction counters of the VM under the flat and
  /// the nested lowering, exposed so tests can assert the size of the
  /// Figure-9 effect (the oracle itself checks nested <= flat).
  uint64_t GuardTestsFlat = 0;
  uint64_t GuardTestsNested = 0;
  uint64_t ExecutedFlat = 0;
  uint64_t ExecutedNested = 0;
  /// Counters of the emitted-C leg, parsed from the generated program's
  /// own state struct and pinned equal to the nested VM's (0 until the
  /// round-trip runs).
  uint64_t GuardTestsC = 0;
  uint64_t ExecutedC = 0;
  /// Linked-oracle counters: the monolithic flat run vs the linked
  /// system's fused step. Zero for single-process reports.
  uint64_t GuardTestsMono = 0;
  uint64_t GuardTestsLinked = 0;
  /// True when the C round-trip actually ran (compiler available).
  bool CRoundTripRan = false;
  /// True when the native hot-swap leg ran (compiler available).
  bool NativeSwapRan = false;
};

/// Runs the differential oracle on \p Source (named \p Name in reports).
OracleReport checkDifferential(const std::string &Name,
                               const std::string &Source,
                               const OracleOptions &Options = {});

/// Generates a random program from \p Seed and runs the oracle on it.
OracleReport checkRandomDifferential(uint64_t Seed,
                                     const RandomProgramOptions &GenOptions,
                                     const OracleOptions &Options = {});

/// \returns true when a host C compiler usable for the round-trip exists.
bool hostCCompilerAvailable();

/// The emitted-C leg on its own: compiles the C emitted for \p Step with
/// the host compiler and runs it on \p Options' random stimulus; fills
/// \p Events with its trace and \p CGuards / \p CExecuted with its
/// counters. \returns false with \p Error set on any failure.
bool runCRoundTrip(const CompiledStep &Step, const std::string &ProcName,
                   const OracleOptions &Options,
                   std::vector<OutputEvent> &Events, uint64_t &CGuards,
                   uint64_t &CExecuted, std::string &Error);

/// The probed host C compiler command ("" when none was found) — the one
/// probe shared by the oracle's round-trips and bench_step's emitted-C
/// leg.
const std::string &hostCCompilerCommand();

//===----------------------------------------------------------------------===//
// Linked-system differential oracle
//===----------------------------------------------------------------------===//
//
// The separate-compilation counterpart: compile N processes in isolation,
// link them by interface, and demand the linked execution's trace be
// bit-identical to the *monolithic* compilation of the textually composed
// program — the executable form of the claim that interface matching can
// replace global clock resolution. Verified paths:
//
//   1. the monolithic compilation's step program, flat lowering, on the
//      VM (itself cross-checked against the fixpoint interpreter),
//   2. the linked system's fused CompiledStep on the VM, both instant
//      by instant and batched (stepN windows),
//   3. optionally, the fused step's emitted C round-tripped through the
//      host C compiler like a single process's, its counters pinned to
//      the linked VM's.
//
// The report also fails if linking re-resolved any process's forest (node
// counts must not change between compilation and link).

/// Runs the linked differential oracle: \p Processes are compiled and
/// linked, \p ComposedSource is compiled monolithically, and all paths
/// must produce one trace.
OracleReport checkLinkedDifferential(const std::string &Name,
                                     const std::vector<LinkInput> &Processes,
                                     const std::string &ComposedSource,
                                     const OracleOptions &Options = {});

/// Generates a producer/consumer pair from \p Seed and runs the linked
/// oracle on it.
OracleReport checkRandomPairDifferential(uint64_t Seed,
                                         const ProcessPairOptions &GenOptions,
                                         const OracleOptions &Options = {});

} // namespace sigc

#endif // SIGNALC_TESTING_ORACLE_H
