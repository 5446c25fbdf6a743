//===--- TraceWriter.h - Framed trace emission ------------------*- C++-*-===//
///
/// \file
/// Writes the binary trace format front to back: header, instant-batch
/// frames, trailer. The writer owns the framing — frames always cover
/// the fixed instant ranges [k*W, (k+1)*W) regardless of how the caller
/// delivers data — so the bytes a recording produces are independent of
/// the execution batch size, and a replay re-recorded through a writer
/// with the same frame capacity is byte-identical to the original file.
/// That invariant is what the differential trace leg pins.
///
/// Data arrives column-wise over arbitrary instant windows (the shape of
/// the bulk Environment exchange): putClockTicks/putInputValues for the
/// dense input side, putOutputs for a window's output rows. Values are
/// VmSlots of each descriptor's declared type, stored as they come. A window is
/// sealed with completeThrough(end), after which every fully covered
/// frame is encoded and flushed to the sink; finish() flushes the last
/// partial frame and the trailer. Pending-frame buffers are recycled, so
/// steady-state recording costs no per-instant allocation.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_IO_TRACEWRITER_H
#define SIGNALC_IO_TRACEWRITER_H

#include "io/TraceFormat.h"

#include <deque>

namespace sigc {

class IoSyscalls;

/// The spec index of a column the writer does not record.
constexpr unsigned TraceUnrecorded = ~0u;

/// Destination of encoded trace bytes.
class TraceSink {
public:
  virtual ~TraceSink();
  /// Appends \p Len bytes; returns false on an I/O failure.
  virtual bool write(const uint8_t *Data, size_t Len) = 0;
};

/// Accumulates the trace in memory (tests, the oracle's byte pins, the
/// serve loop's per-session output queues).
class MemorySink : public TraceSink {
public:
  bool write(const uint8_t *Data, size_t Len) override {
    Bytes.insert(Bytes.end(), Data, Data + Len);
    return true;
  }
  const std::vector<uint8_t> &bytes() const { return Bytes; }
  std::vector<uint8_t> takeBytes() { return std::move(Bytes); }

private:
  std::vector<uint8_t> Bytes;
};

/// Writes through a file descriptor with full-write retry semantics:
/// partial writes loop, EINTR retries, and a hard failure (ENOSPC, a
/// closed pipe's EPIPE, ...) latches a byte-offset-positioned diagnostic
/// instead of silently truncating the recording.
class FdSink : public TraceSink {
public:
  /// \p OwnsFd closes the descriptor on destruction. \p Sys overrides
  /// the write(2) layer (fault injection); nullptr uses the real
  /// syscalls.
  explicit FdSink(int Fd, bool OwnsFd, IoSyscalls *Sys = nullptr);
  ~FdSink() override;
  bool write(const uint8_t *Data, size_t Len) override;

  /// Opens \p Path for writing (truncating); returns a negative fd and
  /// fills \p Error on failure.
  static int openFile(const std::string &Path, std::string &Error);

  /// Bytes successfully written so far.
  uint64_t written() const { return Written; }
  /// After a failed write: "at byte N: <strerror>". Empty otherwise.
  const std::string &errorDetail() const { return Detail; }

private:
  int Fd;
  bool OwnsFd;
  IoSyscalls *Sys;
  uint64_t Written = 0;
  std::string Detail;
};

/// Emits one trace stream into a sink.
class TraceWriter {
public:
  /// Writes the header immediately. The sink must outlive the writer.
  TraceWriter(TraceSink &Sink, TraceSpec Spec);

  /// Resume-mode writer: continues a stream whose frames below
  /// \p StartInstant (a multiple of the frame capacity) were already
  /// delivered — the serve front end's session-resume shape, where the
  /// resumed connection carries the tail of the same logical stream.
  /// With \p EmitHeader false no header is written, so concatenating the
  /// original connection's bytes with this writer's yields one valid
  /// stream, byte-identical to an uninterrupted run.
  TraceWriter(TraceSink &Sink, TraceSpec Spec, unsigned StartInstant,
              bool EmitHeader);

  const TraceSpec &spec() const { return Spec; }

  //===--- Column delivery (any monotone window shape) --------------------===//

  /// Records the ticks of clock \p ClockIdx over [Start, Start+Count).
  void putClockTicks(unsigned ClockIdx, unsigned Start, unsigned Count,
                     const unsigned char *Ticks);
  /// Records the values of input \p InputIdx over [Start, Start+Count).
  void putInputValues(unsigned InputIdx, unsigned Start, unsigned Count,
                      const VmSlot *Vals);
  /// Records the outputs of the window [Start, Start+Count), given
  /// row-major like the bulk exchange: \p Present and \p Vals hold
  /// NumCols cells per instant, and column C records as spec output
  /// SpecIdx[C] (TraceUnrecorded skips it). Only present cells record.
  void putOutputs(unsigned Start, unsigned Count, unsigned NumCols,
                  const unsigned *SpecIdx, const unsigned char *Present,
                  const VmSlot *Vals);

  /// Declares every instant below \p End final: full frames ending at or
  /// before \p End are encoded and flushed.
  void completeThrough(unsigned End);

  /// Flushes the final partial frame (if any) and the trailer for a
  /// trace of \p TotalInstants, dropping stimulus put past that end (a
  /// run a failed clock check stopped). No data may be put after this.
  /// \returns false if any sink write failed (also queryable via ok()).
  bool finish(unsigned TotalInstants);

  /// False after any sink failure; the first failure is latched.
  bool ok() const { return Ok; }

private:
  TraceFrame &frameFor(unsigned Instant);
  void flushFrame(TraceFrame &F);
  void sinkBytes(const std::vector<uint8_t> &Bytes);

  TraceSink &Sink;
  TraceSpec Spec;
  /// Pending frames in instant order; front starts at FlushedInstants.
  /// Recycled through FreeFrames instead of freed.
  std::deque<TraceFrame> Pending;
  std::vector<TraceFrame> FreeFrames;
  unsigned FlushedInstants = 0; ///< Frames below this are on the sink.
  std::vector<uint8_t> EncodeBuf;
  bool Finished = false;
  bool Ok = true;
};

} // namespace sigc

#endif // SIGNALC_IO_TRACEWRITER_H
