//===--- TraceWriter.cpp --------------------------------------------------===//

#include "io/TraceWriter.h"

#include "io/FaultInjection.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

using namespace sigc;

TraceSink::~TraceSink() = default;

FdSink::FdSink(int Fd, bool OwnsFd, IoSyscalls *Sys)
    : Fd(Fd), OwnsFd(OwnsFd), Sys(Sys ? Sys : &IoSyscalls::system()) {}

FdSink::~FdSink() {
  if (OwnsFd && Fd >= 0)
    ::close(Fd);
}

bool FdSink::write(const uint8_t *Data, size_t Len) {
  while (Len > 0) {
    ssize_t N = Sys->write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      // Position the diagnostic at the first byte that did not reach
      // the descriptor — everything below Written is on the sink.
      if (Detail.empty())
        Detail = "at byte " + std::to_string(Written) + ": " +
                 std::strerror(errno);
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
    Written += static_cast<uint64_t>(N);
  }
  return true;
}

int FdSink::openFile(const std::string &Path, std::string &Error) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    Error = std::strerror(errno);
  return Fd;
}

TraceWriter::TraceWriter(TraceSink &Sink, TraceSpec Spec)
    : TraceWriter(Sink, std::move(Spec), 0, /*EmitHeader=*/true) {}

TraceWriter::TraceWriter(TraceSink &Sink, TraceSpec Spec,
                         unsigned StartInstant, bool EmitHeader)
    : Sink(Sink), Spec(std::move(Spec)) {
  assert(StartInstant % this->Spec.FrameInstants == 0 &&
         "resumed streams continue at a frame boundary");
  FlushedInstants = StartInstant;
  if (EmitHeader)
    sinkBytes(encodeTraceHeader(this->Spec));
}

void TraceWriter::sinkBytes(const std::vector<uint8_t> &Bytes) {
  if (Ok && !Sink.write(Bytes.data(), Bytes.size()))
    Ok = false;
}

TraceFrame &TraceWriter::frameFor(unsigned Instant) {
  assert(!Finished && "trace writer already finished");
  assert(Instant >= FlushedInstants &&
         "data for an instant that already flushed");
  const unsigned W = Spec.FrameInstants;
  const unsigned FrameStart = (Instant / W) * W;
  unsigned NextStart =
      Pending.empty() ? FlushedInstants : Pending.back().Start + W;
  while (NextStart <= FrameStart) {
    // Recycle a retired frame buffer when one exists; its rows are
    // re-zeroed here (per frame, not per instant), so a cell nobody put
    // (an input a per-instant run never queried) records as 0, never as
    // what an earlier frame left in the buffer.
    if (!FreeFrames.empty()) {
      Pending.push_back(std::move(FreeFrames.back()));
      FreeFrames.pop_back();
    } else {
      Pending.emplace_back();
    }
    TraceFrame &F = Pending.back();
    F.shape(Spec);
    F.Start = NextStart;
    F.Count = 0;
    std::fill(F.ClockTicks.begin(), F.ClockTicks.end(), 0);
    std::fill(F.InputVals.begin(), F.InputVals.end(), VmSlot{0});
    std::fill(F.OutPresent.begin(), F.OutPresent.end(), 0);
    NextStart += W;
  }
  return Pending[(FrameStart - Pending.front().Start) / W];
}

void TraceWriter::putClockTicks(unsigned ClockIdx, unsigned Start,
                                unsigned Count, const unsigned char *Ticks) {
  const unsigned W = Spec.FrameInstants;
  unsigned I = 0;
  while (I < Count) {
    TraceFrame &F = frameFor(Start + I);
    unsigned Off = (Start + I) - F.Start;
    unsigned Take = std::min(Count - I, W - Off);
    std::memcpy(&F.ClockTicks[ClockIdx * static_cast<size_t>(F.Cap) + Off],
                Ticks + I, Take);
    I += Take;
  }
}

void TraceWriter::putInputValues(unsigned InputIdx, unsigned Start,
                                 unsigned Count, const VmSlot *Vals) {
  const unsigned W = Spec.FrameInstants;
  unsigned I = 0;
  while (I < Count) {
    TraceFrame &F = frameFor(Start + I);
    unsigned Off = (Start + I) - F.Start;
    unsigned Take = std::min(Count - I, W - Off);
    std::copy_n(Vals + I, Take,
                &F.InputVals[InputIdx * static_cast<size_t>(F.Cap) + Off]);
    I += Take;
  }
}

void TraceWriter::putOutputs(unsigned Start, unsigned Count, unsigned NumCols,
                             const unsigned *SpecIdx,
                             const unsigned char *Present,
                             const VmSlot *Vals) {
  const unsigned W = Spec.FrameInstants;
  unsigned I = 0;
  while (I < Count) {
    TraceFrame &F = frameFor(Start + I);
    unsigned Off = (Start + I) - F.Start;
    unsigned Take = std::min(Count - I, W - Off);
    for (unsigned C = 0; C < NumCols; ++C) {
      if (SpecIdx[C] == TraceUnrecorded)
        continue;
      size_t Row = SpecIdx[C] * static_cast<size_t>(F.Cap) + Off;
      for (unsigned J = 0; J < Take; ++J) {
        size_t At = static_cast<size_t>(I + J) * NumCols + C;
        if (Present[At]) {
          F.OutPresent[Row + J] = 1;
          F.OutVals[Row + J] = Vals[At];
        }
      }
    }
    I += Take;
  }
}

void TraceWriter::flushFrame(TraceFrame &F) {
  EncodeBuf.clear();
  encodeTraceFrame(Spec, F, EncodeBuf);
  sinkBytes(EncodeBuf);
}

void TraceWriter::completeThrough(unsigned End) {
  const unsigned W = Spec.FrameInstants;
  // Materialize coverage first: even a window that carried no data (a
  // process with no free clocks or inputs and silent outputs) must
  // produce its frames, or replay would see a gap in the instant line.
  if (End > FlushedInstants)
    frameFor(End - 1);
  while (!Pending.empty() && Pending.front().Start + W <= End) {
    TraceFrame &F = Pending.front();
    F.Count = W;
    flushFrame(F);
    FlushedInstants = F.Start + W;
    FreeFrames.push_back(std::move(F));
    Pending.pop_front();
  }
}

bool TraceWriter::finish(unsigned TotalInstants) {
  assert(!Finished && "trace writer finished twice");
  completeThrough(TotalInstants);
  // A run that a failed clock check stopped has prefetched stimulus past
  // its last instant; a frame that starts there holds none of the trace.
  while (!Pending.empty() && Pending.back().Start >= TotalInstants) {
    FreeFrames.push_back(std::move(Pending.back()));
    Pending.pop_back();
  }
  if (!Pending.empty()) {
    TraceFrame &F = Pending.front();
    assert(F.Start < TotalInstants && "pending frame beyond the trace end");
    F.Count = TotalInstants - F.Start;
    flushFrame(F);
    FreeFrames.push_back(std::move(F));
    Pending.pop_front();
    assert(Pending.empty() && "data recorded beyond the declared trace end");
  }
  EncodeBuf.clear();
  encodeTraceTrailer(TotalInstants, EncodeBuf);
  sinkBytes(EncodeBuf);
  Finished = true;
  return Ok;
}
