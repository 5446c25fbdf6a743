//===--- TraceDecoder.h - Incremental trace decoding ------------*- C++-*-===//
///
/// \file
/// The one decoder of trace streams. TraceDecoder is incremental: it
/// decodes the header, then each frame, then the trailer out of bytes
/// its caller already holds (a pointer, a length, and whether more bytes
/// may follow), so the same checks run wherever the bytes come from:
///
///   * `--replay` and the tests hold them in a TraceInput — a mapped
///     regular file, bytes in memory, or any other descriptor (a pipe)
///     read(2) in chunks — and replay them with replayTrace
///     (TraceEnvironment.h);
///   * each `--serve` session holds what it has received so far.
///
/// On top of the codec's own checks (magic, version, endianness,
/// descriptor limits, frame capacity, payload bounds, checksums) the
/// decoder owns every stream-level one: the header-size bound, the
/// interface match against the compiled step, frame contiguity from the
/// start instant, and the trailer's total. Every failure carries the
/// byte offset it was detected at, and a stream that ends early is a
/// Truncated error, never a silent end — a corrupt stream is a
/// diagnostic, never UB (the corrupt-input regression suite runs under
/// ASan/UBSan).
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_IO_TRACEDECODER_H
#define SIGNALC_IO_TRACEDECODER_H

#include "io/TraceFormat.h"

namespace sigc {

class IoSyscalls;

/// Decodes one trace stream: the header, frames, then the trailer.
class TraceDecoder {
public:
  /// \p Expect, when set, is the step the stream must drive: its free
  /// clocks, inputs and outputs must match the header's name for name
  /// and type for type. The first frame must start at \p StartInstant
  /// (0, or a resumed session's resume point).
  explicit TraceDecoder(const CompiledStep *Expect = nullptr,
                        unsigned StartInstant = 0)
      : Expect(Expect), Next(StartInstant) {}

  /// Decodes the next item out of \p Data[0, Len): the stream's bytes
  /// from offset() on. \p AtEnd says that no byte follows them. Returns
  ///   Header   — the header decoded (the first item); spec() is valid;
  ///   Frame    — \p F holds the next frame;
  ///   End      — the trailer, whose total matches the frames;
  ///   NeedMore — the bytes end inside the next item and more may come;
  ///   Error    — error() is positioned, and every later call fails.
  /// \p Consumed is the bytes the decoded item took.
  TraceFrameStatus next(const uint8_t *Data, size_t Len, bool AtEnd,
                        TraceFrame &F, size_t &Consumed);

  /// Fails the stream at offset() with \p Kind (the caller's byte source
  /// broke). \returns Error.
  TraceFrameStatus fail(TraceErrorKind Kind, std::string Message);

  /// True once the trailer was decoded.
  bool finished() const { return Finished; }
  /// The interface the header declared (valid once Header returned).
  const TraceSpec &spec() const { return Spec; }
  /// The instant the next frame must start at; the trace's total once
  /// finished().
  unsigned nextInstant() const { return Next; }
  /// Stream offset of the next undecoded byte.
  uint64_t offset() const { return Offset; }
  const TraceError &error() const { return Err; }

private:
  TraceFrameStatus header(const uint8_t *Data, size_t Len, bool AtEnd,
                          size_t &Consumed);

  const CompiledStep *Expect;
  TraceSpec Spec;
  TraceError Err;
  uint64_t Offset = 0;
  unsigned Next;
  bool HeaderDone = false;
  bool Finished = false;
};

/// The bytes of a trace being replayed: bytes in memory, a mapped
/// regular file, or a descriptor read(2) in chunks into a buffer the
/// decoder consumes. The buffer keeps only the item being decoded plus
/// one chunk, so steady-state streaming allocates nothing.
class TraceInput {
public:
  TraceInput() = default;
  /// Bytes the caller holds; they must outlive the input.
  explicit TraceInput(const std::vector<uint8_t> &Bytes)
      : Data(Bytes.data()), Len(Bytes.size()) {}
  /// Reads \p Fd with read(2) through \p Sys (fault injection; nullptr
  /// uses the real syscalls). \p OwnsFd closes it on destruction.
  TraceInput(int Fd, bool OwnsFd, IoSyscalls *Sys = nullptr);
  TraceInput(const TraceInput &) = delete;
  TraceInput &operator=(const TraceInput &) = delete;
  ~TraceInput();

  /// Opens \p Path by what fstat says it is: a regular file is mapped,
  /// anything else (a pipe, a FIFO) is read in chunks. False with
  /// \p Error when it cannot be opened, statted or mapped.
  bool open(const std::string &Path, std::string &Error);
  /// True when the bytes are read in chunks rather than held whole.
  bool streamed() const { return Fd >= 0; }

  /// Decodes the next item through \p Dec (see TraceDecoder::next),
  /// reading more bytes while it needs them; never returns NeedMore.
  TraceFrameStatus next(TraceDecoder &Dec, TraceFrame &F);
  /// Decodes the header; false with Dec.error() positioned.
  bool readHeader(TraceDecoder &Dec);

private:
  /// Moves the undecoded tail to the front of the buffer and reads one
  /// more chunk behind it; false (with \p Why) on a read error.
  bool refill(std::string &Why);

  const uint8_t *Data = nullptr;
  size_t Len = 0;
  size_t Pos = 0;    ///< Decoded prefix of Data.
  bool Eof = true;   ///< No byte follows Data[Len).
  int Fd = -1;       ///< Streamed descriptor, or -1.
  bool OwnsFd = false;
  IoSyscalls *Sys = nullptr;
  std::vector<uint8_t> Buf; ///< A streamed input's bytes.
  void *Map = nullptr;      ///< A mapped file's bytes.
};

} // namespace sigc

#endif // SIGNALC_IO_TRACEDECODER_H
