//===--- RandomProgram.h - Random kernel-program generation -----*- C++-*-===//
///
/// \file
/// Generates random but *well-clocked* SIGNAL source programs for
/// differential testing. Programs are built as a DAG of equations over a
/// small signal pool; a clock-class discipline guarantees the clock
/// calculus accepts every generated program:
///
///   * every signal carries an abstract clock class,
///   * pointwise functions only combine signals of one class — or of
///     several *free* classes (input roots), which the generator merges,
///     mirroring the unification the calculus will perform,
///   * "when" and "default" results open a fresh derived class, since
///     their clocks are new nodes of the hierarchy,
///   * delays stay in the class of their source (ŷ = x̂).
///
/// Integer results are reduced "mod" a small constant so values stay
/// bounded under feedback (no signed overflow on any path, including the
/// emitted C). An accumulator motif (Z := N $ 1 | N := f(..., Z)) injects
/// stateful feedback, which is what distinguishes a schedule bug from a
/// pointwise bug.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_TESTING_RANDOMPROGRAM_H
#define SIGNALC_TESTING_RANDOMPROGRAM_H

#include <cstdint>
#include <string>
#include <vector>

namespace sigc {

/// Knobs of the random generator.
struct RandomProgramOptions {
  unsigned IntInputs = 2;       ///< Integer input signals.
  unsigned BoolInputs = 2;      ///< Boolean input signals.
  unsigned Equations = 12;      ///< Derived-signal equations to generate.
  unsigned MaxExprDepth = 3;    ///< Operator-tree depth for Func equations.
  unsigned MaxOutputs = 4;      ///< Output signals exported (at least 1).
  unsigned SynchroPercent = 10; ///< Chance per equation slot to emit a
                                ///< synchro between two free classes.
  unsigned AccumulatorPercent = 20; ///< Chance a slot becomes the two-
                                    ///< equation delay-feedback motif.
};

/// Generates one process named \p Name from \p Seed. Same seed, same
/// options, same source — byte for byte.
std::string generateRandomProgram(const std::string &Name, uint64_t Seed,
                                  const RandomProgramOptions &Options = {});

/// Generates one process named \p Name from \p Seed whose signals mix
/// integers and reals: a real signal defined by integer arithmetic, mixed
/// integer/real operators and comparisons, a real `$` and a real `cell`
/// with integer inits, a `when` of an integer defining a real, a
/// `default` of real signals feeding a real output and a bounded real
/// accumulator. Operators and operands vary with \p Seed; same seed, same
/// source. generateRandomProgram declares no real, and its seeds keep
/// their programs.
std::string generateRealProgram(const std::string &Name, uint64_t Seed);

//===----------------------------------------------------------------------===//
// Multi-process generation (separate-compilation testing)
//===----------------------------------------------------------------------===//
//
// A generated *pair* (or longer *chain*) is a producer whose outputs feed
// a consumer's imports, plus the textual composition of the two bodies
// into one monolithic process. The differential linker oracle compiles
// the pieces separately, links them, and demands the linked trace equal
// the monolithic compilation's trace.
//
// The consumer's discipline keeps every channel in its own clock class
// (imports are paced by the producer, so the generator must not merge
// them with the consumer's free inputs); with some probability it emits a
// "synchro" between two channels the producer is known to keep
// synchronous, which is exactly the interface obligation the linker must
// discharge with a BDD implication on the producer's forest.

/// Knobs of the two-process generator.
struct ProcessPairOptions {
  RandomProgramOptions Producer;
  RandomProgramOptions Consumer;
  /// Producer outputs wired into the consumer (at least 1, at most the
  /// producer's output count).
  unsigned MaxChannels = 3;
  /// Chance to synchro two channels that are synchronous in the producer.
  unsigned SynchroChannelPercent = 40;
};

/// One generated producer/consumer system.
struct GeneratedPair {
  std::string ProducerName, ConsumerName, SystemName;
  std::string ProducerSource, ConsumerSource;
  /// The monolithic textual composition: producer and consumer bodies in
  /// one process, channels turned into locals.
  std::string ComposedSource;
  /// The producer outputs the consumer imports.
  std::vector<std::string> Channels;
};

/// Generates one pair from \p Seed, deterministically.
GeneratedPair generateProcessPair(uint64_t Seed,
                                  const ProcessPairOptions &Options = {});

/// An N-stage pipeline: stage k imports channels from stage k-1.
struct GeneratedChain {
  std::vector<std::string> Names;   ///< Process name per stage.
  std::vector<std::string> Sources; ///< Source per stage.
  std::string SystemName;
  std::string ComposedSource;
  std::vector<std::string> Channels; ///< All inter-stage channels.
};

/// Generates an N-stage chain from \p Seed, deterministically.
GeneratedChain generateProcessChain(uint64_t Seed, unsigned Stages,
                                    const RandomProgramOptions &StageOptions = {},
                                    unsigned MaxChannels = 2,
                                    unsigned SynchroChannelPercent = 30);

/// Generates a *feedback* pair: LOOPA exports FA into LOOPB and imports
/// LOOPB's FB right back, so the channel graph has a unit-level cycle.
/// The dataflow is still acyclic at instruction granularity (FB is only
/// used in its own clock class, never combined with FA's), which is
/// exactly the composition instruction-level fusion accepts and
/// whole-unit scheduling had to reject. Coefficients and the bounding
/// modulus vary with \p Seed, deterministically.
GeneratedPair generateFeedbackPair(uint64_t Seed);

/// Generates a *diamond*: two producers pace their exports from one
/// shared external input, and the consumer's synchro spans both — an
/// obligation no single producer's forest can discharge, only the joint
/// clock space. Returned in chain form (four processes; the last is
/// the consumer). On odd seeds the source samples the shared export, so
/// the joint space holds a non-terminal BDD. Coefficients vary with
/// \p Seed, deterministically.
GeneratedChain generateDiamondSystem(uint64_t Seed);

} // namespace sigc

#endif // SIGNALC_TESTING_RANDOMPROGRAM_H
