//===--- TraceFormat.h - Binary signal-trace format -------------*- C++-*-===//
///
/// \file
/// The on-disk / on-wire format of a signal trace: the recorded input
/// stimulus (free-clock ticks, input values) and output events of a
/// compiled process over a span of instants. A trace is the production
/// counterpart of the oracle's in-memory event lists — it is what a
/// `signalc --record` run writes, what `--replay` and `--serve` sessions
/// read, and what the differential trace leg pins byte for byte.
///
/// Layout (every multi-byte integer is little-endian, written with
/// explicit byte shifts so the format is identical on any host):
///
///   header:
///     'S' 'G' 'T' 'R'            magic
///     u16 version                (currently 1)
///     u16 endian mark 0x0102     (reads back 0x0201 on a byteswapped
///                                 producer: diagnosed, never guessed)
///     u16 frame capacity W       (instants per full frame)
///     u16 len + bytes            process name
///     u16 count, then per clock:   u16 len + bytes      (free clocks)
///     u16 count, then per input:   u8 type, u16 len + bytes
///     u16 count, then per output:  u8 type, u16 len + bytes
///     u64 interface hash         FNV-1a64 over bytes [4, here)
///
///   then a sequence of frames, each an instant-batch:
///     u32 payload length
///     u32 start instant
///     u16 instant count          (1..W; 0 with payload 0 = trailer)
///     u16 reserved (0)
///     u32 payload checksum       FNV-1a32
///     payload:
///       per clock:  ceil(count/8) presence bitmap (LSB-first)
///       per input:  values for *every* instant of the frame, packed by
///                   declared type — event: nothing, boolean: bitmap,
///                   integer: 8 bytes two's-complement, real: 8 bytes
///                   IEEE-754 bits (input values are dense because the
///                   environment contract makes them pure functions of
///                   the instant; presence is derived by the program)
///       per output: ceil(count/8) presence bitmap, then values of the
///                   *present* instants only, packed by declared type
///
///   Integer and real values are the 8 bytes of the frame's VmSlot
///   (TraceFrame), which already holds the declared type: a step's slot
///   always holds its signal's type (a real defined by integer
///   arithmetic was converted where it was defined).
///
///   Frames cover the fixed instant ranges [k*W, (k+1)*W): every frame
///   starts at a multiple of W, so only the stream's final frame may
///   carry fewer than W instants. Decoders reject unaligned frame starts
///   — replay windows index resident frames in constant time by dividing
///   the instant by W, which a mid-stream partial frame would break.
///
///   trailer frame: payload 0, start = total instants, count 0 — marks a
///   clean end of stream; EOF anywhere else is a positioned diagnostic.
///
/// Readers never trust a length: magic, version, endianness, name and
/// descriptor-count limits, frame capacity, payload bounds and checksums
/// are all validated, and every failure carries the byte offset it was
/// detected at.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_IO_TRACEFORMAT_H
#define SIGNALC_IO_TRACEFORMAT_H

#include "interp/CompiledStep.h"
#include "interp/Slot.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sigc {

/// Format constants.
constexpr uint8_t TraceMagic[4] = {'S', 'G', 'T', 'R'};
constexpr uint16_t TraceVersion = 1;
constexpr uint16_t TraceEndianMark = 0x0102;
constexpr unsigned TraceFrameHeaderBytes = 16;
constexpr unsigned TraceDefaultFrameInstants = 64;
/// Sanity limits a malformed header may not exceed.
constexpr unsigned TraceMaxNameLen = 4096;
constexpr unsigned TraceMaxDescriptors = 65535;
/// A stream whose header is still incomplete after this many bytes is
/// refused: the bound a hostile stream sees before the header bounds
/// its frames.
constexpr size_t TraceMaxHeaderBytes = 16u << 20;

/// What went wrong while decoding (TraceErrorKind::None means nothing).
enum class TraceErrorKind {
  None,
  Truncated, ///< Ran out of bytes mid-structure (or: need more data).
  BadMagic,
  BadVersion,
  BadEndian,
  Malformed,         ///< A field violates the format's own limits.
  Corrupt,           ///< Checksum mismatch / inconsistent frame payload.
  InterfaceMismatch, ///< Trace interface does not match the process.
  Io,                ///< The underlying source/sink failed.
};

/// A positioned decode diagnostic.
struct TraceError {
  TraceErrorKind Kind = TraceErrorKind::None;
  uint64_t Offset = 0; ///< Byte offset the failure was detected at.
  std::string Message;

  bool ok() const { return Kind == TraceErrorKind::None; }
  /// True when the only problem is that the byte stream ended: an
  /// incremental consumer (TraceDecoder) waits for more data instead
  /// of failing.
  bool needMoreData() const { return Kind == TraceErrorKind::Truncated; }
  /// "offset 123: message" (the CLI's diagnostic body).
  std::string str() const;
};

/// The interface a trace is recorded against: the process's free clocks,
/// inputs and outputs in descriptor order. Replay validates this against
/// the compiled step before any frame is decoded.
struct TraceSpec {
  struct Signal {
    std::string Name;
    TypeKind Type = TypeKind::Unknown;
    bool operator==(const Signal &RHS) const {
      return Name == RHS.Name && Type == RHS.Type;
    }
  };

  std::string ProcName;
  std::vector<std::string> Clocks;
  std::vector<Signal> Inputs;
  std::vector<Signal> Outputs;
  unsigned FrameInstants = TraceDefaultFrameInstants;

  /// The spec of \p CS's environment boundary (descriptor order).
  static TraceSpec fromStep(const CompiledStep &CS, std::string ProcName,
                            unsigned FrameInstants = TraceDefaultFrameInstants);

  /// The response-side spec of a serve session: same outputs, no inputs
  /// (the server streams back only what the process produced).
  TraceSpec outputsOnly() const;

  bool operator==(const TraceSpec &RHS) const {
    return ProcName == RHS.ProcName && Clocks == RHS.Clocks &&
           Inputs == RHS.Inputs && Outputs == RHS.Outputs &&
           FrameInstants == RHS.FrameInstants;
  }
  bool operator!=(const TraceSpec &RHS) const { return !(*this == RHS); }

  /// Human-readable first difference against \p RHS (interface-mismatch
  /// diagnostics); empty when equal.
  std::string diff(const TraceSpec &RHS) const;

  /// Upper bound of an encoded frame payload (oversized-length check).
  size_t maxFramePayloadBytes() const;
};

/// One decoded instant-batch, dense row-major per descriptor. Values are
/// VmSlot columns of each descriptor's declared type — the bulk
/// Environment exchange's own representation, so replay serves and
/// recording takes whole columns by copy. Buffers are sized to the spec's
/// frame capacity once and reused frame to frame — steady-state decoding
/// allocates nothing.
struct TraceFrame {
  unsigned Start = 0;
  unsigned Count = 0;
  unsigned Cap = 0; ///< Row stride (the spec's FrameInstants).
  std::vector<unsigned char> ClockTicks; ///< [clock * Cap + i]
  std::vector<VmSlot> InputVals;         ///< [input * Cap + i]
  std::vector<unsigned char> OutPresent; ///< [output * Cap + i]
  std::vector<VmSlot> OutVals;           ///< [output * Cap + i]

  /// Sizes the buffers for \p Spec (idempotent).
  void shape(const TraceSpec &Spec);
  unsigned end() const { return Start + Count; }
};

//===----------------------------------------------------------------------===//
// Wire codec — shared by TraceWriter and TraceDecoder.
//===----------------------------------------------------------------------===//

/// Encodes the header (magic through interface hash) of \p Spec.
std::vector<uint8_t> encodeTraceHeader(const TraceSpec &Spec);

/// Parses a header from \p Data. On success fills \p Spec, sets
/// \p HeaderLen to the bytes consumed and returns true. On failure
/// returns false with \p Err positioned; Err.needMoreData() means the
/// buffer simply ends before the header does.
bool parseTraceHeader(const uint8_t *Data, size_t Len, TraceSpec &Spec,
                      size_t &HeaderLen, TraceError &Err);

/// Encodes one frame (header + payload) of \p F under \p Spec, appending
/// to \p Out. \p F.Count may be any value in [1, Spec.FrameInstants], but
/// \p F.Start must be a multiple of Spec.FrameInstants — decoders reject
/// unaligned frames (only the final frame of a stream may be partial).
void encodeTraceFrame(const TraceSpec &Spec, const TraceFrame &F,
                      std::vector<uint8_t> &Out);

/// Appends the end-of-stream trailer for a trace of \p TotalInstants.
void encodeTraceTrailer(unsigned TotalInstants, std::vector<uint8_t> &Out);

/// Result of pulling one item out of a byte stream.
enum class TraceFrameStatus {
  Header,  ///< The stream header was decoded (TraceDecoder).
  Frame,   ///< \p F holds the next instant-batch.
  End,     ///< The trailer was reached (clean end of stream).
  NeedMore,///< Incremental source: the frame is not fully buffered yet.
  Error,   ///< \p Err is positioned.
};

/// Decodes the frame starting at \p Data (which has \p Len bytes and
/// lives at stream offset \p StreamOffset, used only for diagnostics).
/// On Frame/End, \p Consumed is the bytes eaten. \p TotalInstants is
/// filled from the trailer on End.
TraceFrameStatus decodeTraceFrame(const TraceSpec &Spec, const uint8_t *Data,
                                  size_t Len, uint64_t StreamOffset,
                                  TraceFrame &F, size_t &Consumed,
                                  unsigned &TotalInstants, TraceError &Err);

/// True when slots \p A and \p B of declared type \p T record as the
/// same bytes in a trace — the rule replay verification compares by:
/// events always agree, booleans by truth, integers and reals by their
/// 8 bytes (reals by their IEEE-754 bits).
bool sameTraceValue(TypeKind T, VmSlot A, VmSlot B);

/// FNV-1a over \p Data (the format's hash/checksum primitive).
uint64_t traceFnv64(const uint8_t *Data, size_t Len);
uint32_t traceFnv32(const uint8_t *Data, size_t Len);

//===----------------------------------------------------------------------===//
// Serve control frames — the session-management preamble the `--serve`
// front end speaks around the trace streams themselves.
//===----------------------------------------------------------------------===//
//
// Layout (little-endian, like the trace format):
//
//   'S' 'G' 'C' 'T'   magic (distinct from the trace header's SGTR, so
//                     the first four bytes of a connection say whether a
//                     control preamble or a plain trace stream follows)
//   u8  type          Hello / Reject / Resume
//   u8  code          reject reason (0 otherwise)
//   u16 body length
//   body:
//     Hello   u64 session token        (server -> client, on admission)
//     Reject  diagnostic message bytes (server -> client, then close)
//     Resume  u64 session token, u64 interface hash, u32 resume instant
//             (client -> server, before re-sending the trace header)

constexpr uint8_t ServeCtrlMagic[4] = {'S', 'G', 'C', 'T'};
constexpr unsigned ServeCtrlHeaderBytes = 8;
/// Every Hello is exactly this long: a fixed-size prefix a client (or a
/// byte-identity test) can strip without parsing.
constexpr unsigned ServeHelloBytes = 16;
/// Bound on a Reject diagnostic (the only variable-length body).
constexpr unsigned ServeCtrlMaxBody = 4096;

enum class ServeCtrlType : uint8_t {
  Hello = 1,  ///< Session admitted; body carries the resume token.
  Reject = 2, ///< Connection refused; code is the reason, body the text.
  Resume = 3, ///< Client requests to resume a parked session.
};

/// Why a connection was refused (the Reject frame's code).
enum class ServeRejectReason : uint8_t {
  AtCapacity = 1,        ///< No free lane / batch budget exhausted.
  Draining = 2,          ///< The server is shutting down.
  InterfaceMismatch = 3, ///< Stimulus interface != served process.
  BadResume = 4,         ///< Unknown token or no checkpoint at the instant.
};

/// \returns the reason's diagnostic spelling ("at capacity", ...).
const char *serveRejectReasonName(ServeRejectReason R);

/// One decoded (or to-be-encoded) control frame.
struct ServeCtrl {
  ServeCtrlType Type = ServeCtrlType::Hello;
  ServeRejectReason Reason = ServeRejectReason::AtCapacity;
  uint64_t Token = 0;         ///< Hello / Resume.
  uint64_t InterfaceHash = 0; ///< Resume.
  unsigned ResumeInstant = 0; ///< Resume.
  std::string Message;        ///< Reject.
};

/// Appends the encoding of \p C to \p Out.
void encodeServeCtrl(const ServeCtrl &C, std::vector<uint8_t> &Out);

/// Decodes one control frame from \p Data. Frame on success (\p Consumed
/// set), NeedMore when the buffer ends inside the frame, Error (with
/// \p Err positioned relative to \p StreamOffset) on a malformed frame.
TraceFrameStatus decodeServeCtrl(const uint8_t *Data, size_t Len,
                                 uint64_t StreamOffset, ServeCtrl &C,
                                 size_t &Consumed, TraceError &Err);

/// The interface hash a Resume request must present: the u64 the trace
/// header of \p Spec embeds (it covers process name, descriptors and
/// frame capacity, so equal hashes mean resumable-compatible streams).
uint64_t traceSpecHash(const TraceSpec &Spec);

} // namespace sigc

#endif // SIGNALC_IO_TRACEFORMAT_H
