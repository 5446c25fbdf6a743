//===--- Linker.h - Clock-interface linking of compiled processes -*-C++-*-===//
///
/// \file
/// Separate compilation for multi-process SIGNAL systems. Each process is
/// compiled in isolation (optionally in parallel — compilations share no
/// state); the linker then composes the results *without re-resolving any
/// process's clock hierarchy*:
///
///   1. interface extraction (ProcessInterface) per unit,
///   2. channel matching — an imported signal connects to the export of
///      the same name; types must agree,
///   3. clock-interface compatibility — when a consumer constrains two
///      imported clocks (same class, or one contained in the other), the
///      exporting side must *prove* the corresponding relation. With a
///      single producer the proof runs on that producer's own forest, via
///      BDD implies() on the exporters' relative BDDs — the paper's
///      point: the forest is canonical, so interface obligations reduce
///      to implication tests, not to re-resolution. When the obligation
///      spans *two* producers, their forests are translated into a joint
///      BDD clock space (JointClockSpace.h) keyed by shared condition
///      signals, environment roots, and channel bindings, and the same
///      implies() discharges it there,
///   4. instruction-granularity fusion (StepFusion.h) — the units'
///      CompiledStep bytecode is interleaved along the cross-process
///      dependence order into ONE fused CompiledStep for the whole
///      system. Instant-level feedback between processes is legal
///      whenever the instruction-level dependence graph is acyclic; a
///      true cycle is diagnosed with the channel path around it,
///   5. the linked system's own interface: unbound free clocks become the
///      system's roots, unmatched imports/exports its external signals.
///
/// The linked system is its fused CompiledStep: every engine that runs a
/// single process runs it (the VM, its native twin, the C emitter, the
/// record/replay and fleet paths), under the name `linked_sys` in the
/// CLI. A channel the linker could not bind statically is checked in
/// the bytecode itself (a CheckClockEq at the end of the fused step),
/// and mismatchMessage() renders a failed check.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_LINK_LINKER_H
#define SIGNALC_LINK_LINKER_H

#include "interp/CompiledStep.h"
#include "link/ProcessInterface.h"

#include <memory>
#include <string>
#include <vector>

namespace sigc {

/// One separately compiled process entering the link.
struct LinkUnit {
  std::string Name;                  ///< Process name (unique per link).
  std::unique_ptr<Compilation> Comp; ///< A successful compilation.
  ProcessInterface Iface;            ///< Extracted by the linker.
};

/// One producer-to-consumer signal connection.
struct LinkChannel {
  unsigned Producer = 0; ///< Unit index of the exporter.
  unsigned Consumer = 0; ///< Unit index of the importer.
  SignalId ProducerSig = InvalidSignal;
  SignalId ConsumerSig = InvalidSignal;
  std::string Name;
  /// Index into the consumer Step's ClockInputs bound by this channel:
  /// the consumer's clock class of the import is a free root, so its tick
  /// is simply the producer's presence. -1 when the consumer *derives*
  /// the import's clock itself; the fused step then checks, each
  /// instant, that both sides agree (a dynamic clock-constraint check).
  int ConsumerClockInput = -1;
  /// Index into the producer Step's Outputs descriptor table, resolved at
  /// link time so executors wire channels by array index, never by name.
  int ProducerOutput = -1;
  /// Index into the consumer Step's Inputs descriptor table (same).
  int ConsumerInput = -1;
};

/// An external (unmatched) input or output of the linked system.
struct LinkedExternal {
  unsigned Unit = 0;
  SignalId Sig = InvalidSignal;
  std::string Name;
  TypeKind Type = TypeKind::Unknown;
};

/// A free clock of some unit that no channel binds: the environment still
/// paces it in the linked system.
struct LinkedRoot {
  unsigned Unit = 0;
  int ClockInput = 0; ///< Index into the unit Step's ClockInputs.
  std::string Name;   ///< The clock input's name ("^X", ...).
};

/// The composed system: N untouched compilations plus the wiring, plus
/// the fused CompiledStep the whole system executes as.
struct LinkedSystem {
  std::vector<LinkUnit> Units;
  std::vector<LinkChannel> Channels;
  /// Unit indices in a channel-dataflow-respecting execution order (for
  /// feedback systems, by first fused instruction).
  std::vector<unsigned> Order;

  std::vector<LinkedExternal> ExternalInputs;
  std::vector<LinkedExternal> ExternalOutputs;
  std::vector<LinkedRoot> Roots;

  /// The whole system as one CompiledStep: every unit's bytecode rebased
  /// into a shared slot space and interleaved along the cross-process
  /// dependence order, channels rewired to plain CopyClock/CopyValue.
  CompiledStep Fused;

  /// The diagnostic for the fused step's failed dynamic channel check
  /// \p F: its Check is the channel index, its operand A the consumer's
  /// clock and B the producer's (the CheckClockEq StepFusion emits).
  std::string mismatchMessage(const ClockCheckFailure &F) const;

  /// Endochrony of the *system*: a single unbound root paces everything.
  bool endochronous() const { return Roots.size() == 1; }

  /// Alive forest nodes per unit, re-counted at link time; equal to each
  /// unit's Iface.ForestNodes by construction (linking never re-resolves).
  std::vector<uint64_t> ForestNodesAtLink;

  /// \returns the channel feeding \p Sig of unit \p Unit, or nullptr.
  const LinkChannel *channelInto(unsigned Unit, SignalId Sig) const;

  /// Renders a summary (tests, --dump-link).
  std::string dump() const;
};

/// One process entering compileAndLinkSources: a buffer name plus source.
struct LinkInput {
  std::string Name; ///< Buffer label; also --process selector when set.
  std::string Source;
};

/// Linking options.
struct LinkOptions {
  /// Compile the units on worker threads (they share no state).
  bool ParallelCompile = true;
  /// Per-unit resource limits for the clock calculus.
  Budget Limits;
};

/// Outcome of a link: a system, or a diagnostic.
struct LinkResult {
  std::unique_ptr<LinkedSystem> Sys; ///< Null on failure.
  std::string Error;                 ///< Diagnostic text on failure.
  double CompileMs = 0;              ///< Wall time of the compile phase.
  double LinkMs = 0;                 ///< Wall time of the link phase.
};

/// Compiles the named processes of one source file separately and links
/// them (the CLI's `--link P1,P2,...` mode).
LinkResult compileAndLink(const std::string &BufferName,
                          const std::string &Source,
                          const std::vector<std::string> &ProcessNames,
                          const LinkOptions &Options = {});

/// Compiles N independent sources separately and links them. Each input
/// compiles its first declared process.
LinkResult compileAndLinkSources(const std::vector<LinkInput> &Inputs,
                                 const LinkOptions &Options = {});

/// Links already-compiled units (each must be Ok). Extracts interfaces,
/// matches channels, verifies clock compatibility (joint BDD space for
/// cross-producer obligations, bounded by \p Options.Limits), and fuses
/// the units' bytecode into LinkedSystem::Fused.
LinkResult linkCompiled(std::vector<LinkUnit> Units,
                        const LinkOptions &Options = {});

} // namespace sigc

#endif // SIGNALC_LINK_LINKER_H
