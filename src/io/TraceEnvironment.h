//===--- TraceEnvironment.h - Trace-backed environments ---------*- C++-*-===//
///
/// \file
/// Environments that connect the compiled step's windowed slot-ID
/// exchange to the binary trace format, in both directions:
///
///   * RecordingEnvironment wraps a live environment and mirrors every
///     exchanged window — clock ticks, input values, output events —
///     into a TraceWriter. The wrapped environment stays authoritative
///     (it still answers queries and records its own events), so a
///     recorded run is observationally identical to an unrecorded one.
///   * StreamEnvironment answers queries out of a window of decoded
///     trace frames pushed into it, in instant order. Two callers push:
///     each `--serve` session, as frames arrive on its socket, and
///     replayTrace — `--replay`, the oracle's trace leg, the benches and
///     the tests — which decodes a TraceInput and steps the executor
///     window by window.
///
/// Replay can additionally echo everything it serves (and the outputs
/// the re-execution produces) into a second TraceWriter: with the same
/// frame capacity, a deterministic program re-recorded this way is
/// byte-identical to the original file, which is exactly what the
/// differential trace leg pins. It can also verify the produced outputs
/// against the ones recorded in the trace, diagnosing the first
/// divergence by instant and signal. Both take a window's output rows
/// whole: the echo in one TraceWriter::putOutputs call, verification in
/// one loop over each frame the window spans.
///
/// Both are allocation-free per instant once warm: frame buffers
/// recycle through a free list, and every query is slot-ID based. The
/// exchange moves VmSlot columns between the executor and the frames by
/// copy — frames hold the same declared-type slots — and a divergence
/// diagnostic renders both values by the declared type.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_IO_TRACEENVIRONMENT_H
#define SIGNALC_IO_TRACEENVIRONMENT_H

#include "interp/Environment.h"
#include "io/TraceDecoder.h"
#include "io/TraceWriter.h"

#include <deque>

namespace sigc {

class TierController;
class VmExecutor;

/// Mirrors the traffic of an inner environment into a TraceWriter.
///
/// Inputs are recorded densely — a value for *every* instant of the
/// window, present or not — which is sound because the differential
/// contract already requires answers to be pure functions of
/// (binding, instant). Frames flush when a window completes, i.e. at
/// each exchangeOutputs. The caller finishes the writer after the run.
class RecordingEnvironment : public Environment {
public:
  /// Records the traffic of \p Inner against \p Writer's spec. Names
  /// outside the spec pass through unrecorded.
  RecordingEnvironment(Environment &Inner, TraceWriter &Writer);

  Environment &inner() { return Inner; }

  EnvClockId resolveClock(std::string_view Name) override;
  EnvInputId resolveInput(std::string_view Name, TypeKind Type) override;
  EnvOutputId resolveOutput(std::string_view Name, TypeKind Type) override;

  void clockTicks(EnvClockId Clock, unsigned Start, unsigned Count,
                  unsigned char *Out) override;
  void inputValues(EnvInputId Input, unsigned Start, unsigned Count,
                   VmSlot *Out) override;
  void exchangeOutputs(unsigned Start, unsigned Count, unsigned NumOutputs,
                       const EnvOutputId *Ids, const unsigned char *Present,
                       const VmSlot *Vals) override;

private:
  Environment &Inner;
  TraceWriter &Writer;
  /// Our id -> the inner environment's id, per id space.
  std::vector<EnvClockId> InnerClock;
  std::vector<EnvInputId> InnerIn;
  std::vector<EnvOutputId> InnerOut;
  /// Our id -> index in the writer's spec (TraceUnrecorded when unrecorded).
  std::vector<unsigned> ClockSpec, InSpec, OutSpec;
  std::vector<EnvOutputId> InnerIdScratch; ///< Translated flush ids.
  std::vector<unsigned> ColSpec; ///< Spec index of each flushed column.
};

/// Replays a trace out of a window of resident frames pushed by the
/// caller. Frames must arrive in instant order; release() retires
/// instants the executor has moved past so the window stays bounded.
class StreamEnvironment : public Environment {
public:
  explicit StreamEnvironment(TraceSpec Spec);

  const TraceSpec &streamSpec() const { return Spec; }

  //===--- Frame supply ---------------------------------------------------===//

  /// Rebases an empty window so the next pushed frame starts at
  /// \p Instant — a resumed session's shape, where frames below the
  /// resume point were already executed on a previous connection and
  /// are never re-delivered.
  void rebase(unsigned Instant);

  /// A recycled (or fresh) frame shaped for the spec, ready to decode
  /// into.
  TraceFrame takeRecycledFrame();
  /// Appends \p F to the resident window; F.Start must equal
  /// residentEnd() (frames are contiguous by construction).
  void pushFrame(TraceFrame &&F);
  /// First instant not yet resident.
  unsigned residentEnd() const { return NextPush; }
  /// Retires frames wholly below \p Instant into the free list.
  void release(unsigned Instant);

  //===--- Replay-side instrumentation ------------------------------------===//

  /// Echoes every served window (and the produced outputs) into \p W.
  /// When W's spec carries clocks/inputs they are echoed too (the
  /// byte-identity pin, whatever the windows); an outputsOnly() spec
  /// echoes just outputs (the serve loop's response stream). Pass
  /// nullptr to stop echoing.
  void setEcho(TraceWriter *W);
  /// Compares produced outputs against the ones recorded in the trace;
  /// the first divergence is latched in divergence().
  void setVerifyOutputs(bool On) { VerifyOutputs = On; }
  /// Also records OutputEvents like the in-memory environments do (off
  /// by default here: replay streams can be arbitrarily long).
  void setCollectOutputs(bool On) { CollectEvents = On; }

  uint64_t outputCount() const { return OutputCount; }
  /// Empty while every verified window matched the trace.
  const std::string &divergence() const { return Divergence; }

  //===--- Environment ----------------------------------------------------===//

  EnvClockId resolveClock(std::string_view Name) override;
  EnvInputId resolveInput(std::string_view Name, TypeKind Type) override;
  EnvOutputId resolveOutput(std::string_view Name, TypeKind Type) override;

  void clockTicks(EnvClockId Clock, unsigned Start, unsigned Count,
                  unsigned char *Out) override;
  void inputValues(EnvInputId Input, unsigned Start, unsigned Count,
                   VmSlot *Out) override;
  void exchangeOutputs(unsigned Start, unsigned Count, unsigned NumOutputs,
                       const EnvOutputId *Ids, const unsigned char *Present,
                       const VmSlot *Vals) override;

private:
  /// The resident frame containing \p Instant (asserts residency).
  const TraceFrame &frameAt(unsigned Instant) const;

  /// Compares the window's outputs with the ones the trace recorded,
  /// frame by frame, and latches the first divergence in instant order.
  void verifyOutputs(unsigned Start, unsigned Count, unsigned NumOutputs,
                     const EnvOutputId *Ids, const unsigned char *Present,
                     const VmSlot *Vals);

  TraceSpec Spec;
  std::deque<TraceFrame> Window;
  std::vector<TraceFrame> Free;
  unsigned NextPush = 0;

  /// Our id -> index in the spec (TraceUnrecorded for unknown names).
  std::vector<unsigned> ClockSpec, InSpec, OutSpec;
  std::vector<unsigned> ColSpec; ///< Spec index of each exchanged column.

  TraceWriter *Echo = nullptr;
  bool EchoStimulus = false; ///< Echo spec carries clocks/inputs too.
  bool VerifyOutputs = false;
  bool CollectEvents = false;
  uint64_t OutputCount = 0;
  std::string Divergence;
};

/// Replays a trace on \p Exec: decodes the frames of \p In through
/// \p Dec, whose header is already decoded (readHeader) and whose spec
/// \p Env was built from, pushes them into \p Env, and steps windows of
/// up to \p Window instants as soon as they are resident, each through
/// runWindows on \p Tier (null: the VM alone). Stops at the trailer
/// (Dec.finished()), at a decode error (Dec.error()) or at a failed clock
/// check (Exec.checkFailure()). \returns the instants run.
unsigned replayTrace(TraceInput &In, TraceDecoder &Dec, StreamEnvironment &Env,
                     VmExecutor &Exec, unsigned Window,
                     TierController *Tier = nullptr);

} // namespace sigc

#endif // SIGNALC_IO_TRACEENVIRONMENT_H
