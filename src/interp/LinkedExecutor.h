//===--- LinkedExecutor.h - Linked-system execution -------------*- C++-*-===//
///
/// \file
/// Executes a LinkedSystem. Since the linker fuses every unit's bytecode
/// into one CompiledStep (see link/StepFusion.h), execution is simply a
/// VmExecutor over the fused program: channel wiring, cross-process
/// ordering and feedback interleaving were all resolved at link time
/// into plain slot copies, so the hot loop is exactly the single-process
/// hot loop — one guard-nested instruction stream, one environment
/// binding, batched windows and watch slots included.
///
/// The only linked-specific behavior left at run time is the *dynamic*
/// channel check: a channel whose consumer derives the clock itself
/// (ConsumerClockInput == -1) carries a DynCheck record, and after each
/// instant the consumer's derived presence must agree with the
/// producer's export presence, otherwise the run stops with a
/// diagnostic (a clock-interface violation the linker could not prove
/// either way). Unbatched steps compare the two fused clock slots right
/// after the instant; batched windows replay the comparison from the
/// VM's watch-slot recording, and the first violation — ordered by
/// instant, then by check order — cuts the external flush exactly
/// where an unbatched run would have stopped (after the erroring
/// instant, whose outputs a completed fused step has already emitted).
/// The cut is implemented by running batched windows against a
/// buffering environment that delays output forwarding until the
/// checks have passed; systems without dynamic channels skip the
/// buffer entirely.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_INTERP_LINKEDEXECUTOR_H
#define SIGNALC_INTERP_LINKEDEXECUTOR_H

#include "interp/VmExecutor.h"
#include "link/Linker.h"

#include <string>
#include <vector>

namespace sigc {

/// Interprets a linked multi-process system through its fused step.
class LinkedExecutor {
public:
  explicit LinkedExecutor(const LinkedSystem &Sys);

  /// Re-initializes the fused delay states.
  void reset();

  /// Runs one reaction across the fused system. \returns false on a
  /// dynamic clock-constraint violation (see error()).
  bool step(Environment &Env, unsigned Instant);

  /// Runs \p Count reactions starting at instant \p Start through the
  /// VM's batched window. Trace- and counter-identical to \p Count
  /// step()s on clean runs; on a dynamic violation the outer
  /// environment's trace is still cut exactly where an unbatched run
  /// stops, though the VM has already run the whole window (counters
  /// include post-error instants).
  bool stepN(Environment &Env, unsigned Start, unsigned Count);

  /// Runs \p Count reactions starting at instant 0.
  bool run(Environment &Env, unsigned Count);

  /// Runs \p Count reactions starting at instant 0, stepN-batched in
  /// windows of \p BatchSize.
  bool runBatched(Environment &Env, unsigned Count, unsigned BatchSize);

  /// Non-empty after step()/run() returned false.
  const std::string &error() const { return Error; }

  /// Guard tests of the fused executor.
  uint64_t guardTests() const { return Exec.guardTests(); }
  /// Instructions executed by the fused executor.
  uint64_t executed() const { return Exec.executed(); }

private:
  /// Pass-through environment that holds a window's outputs back:
  /// batched windows run against it so a dynamic-check violation can cut
  /// the forwarded trace at the erroring instant even though the VM
  /// flushes whole windows. It keeps the window's flush rows (slots,
  /// row-major [instant][output]) and forwards a prefix of them in one
  /// exchange. Resolution delegates to the outer environment, so every
  /// id this wrapper sees *is* an outer id.
  class BufferEnv : public Environment {
  public:
    Environment *Outer = nullptr;
    unsigned Start = 0, Count = 0, NumOutputs = 0;
    std::vector<EnvOutputId> Ids;
    std::vector<unsigned char> Present;
    std::vector<VmSlot> Vals;

    EnvClockId resolveClock(std::string_view Name) override {
      return Outer->resolveClock(Name);
    }
    EnvInputId resolveInput(std::string_view Name, TypeKind Type) override {
      return Outer->resolveInput(Name, Type);
    }
    EnvOutputId resolveOutput(std::string_view Name, TypeKind Type) override {
      return Outer->resolveOutput(Name, Type);
    }
    bool clockTick(EnvClockId Clock, unsigned Instant) override {
      return Outer->clockTick(Clock, Instant);
    }
    Value inputValue(EnvInputId Input, unsigned Instant) override {
      return Outer->inputValue(Input, Instant);
    }
    void clockTicks(EnvClockId Clock, unsigned Start, unsigned Count,
                    unsigned char *Out) override {
      Outer->clockTicks(Clock, Start, Count, Out);
    }
    void inputValues(EnvInputId Input, unsigned Start, unsigned Count,
                     VmSlot *Out) override {
      Outer->inputValues(Input, Start, Count, Out);
    }
    void exchangeOutputs(unsigned Start, unsigned Count, unsigned NumOutputs,
                         const EnvOutputId *Ids, const unsigned char *Present,
                         const VmSlot *Vals) override {
      const size_t Cells = static_cast<size_t>(Count) * NumOutputs;
      this->Start = Start;
      this->Count = Count;
      this->NumOutputs = NumOutputs;
      this->Ids.assign(Ids, Ids + NumOutputs);
      this->Present.assign(Present, Present + Cells);
      this->Vals.assign(Vals, Vals + Cells);
    }
    /// Forwards the held rows of instants [Start, End) to the outer
    /// environment.
    void forwardThrough(unsigned End) {
      Outer->exchangeOutputs(Start, End - Start, NumOutputs, Ids.data(),
                             Present.data(), Vals.data());
    }
  };

  /// Appends the pinned mismatch diagnostic for \p Check at \p Instant.
  std::string mismatchMessage(const LinkedSystem::DynCheck &Check,
                              unsigned Instant, bool ProducerPresent,
                              bool ConsumerPresent) const;

  const LinkedSystem &Sys;
  /// Owned copy: VmExecutor holds its program by reference, and the
  /// executor must not dangle if the LinkedSystem is mutated or freed
  /// mid-lifetime the way per-unit Compilations could be.
  CompiledStep Fused;
  VmExecutor Exec;
  BufferEnv BatchEnv;
  std::string Error;
};

} // namespace sigc

#endif // SIGNALC_INTERP_LINKEDEXECUTOR_H
