//===--- FaultInjection.h - Deterministic I/O fault injection ---*- C++-*-===//
///
/// \file
/// A scripted stand-in for the read(2)/write(2) layer the trace I/O
/// classes sit on, so every failure path — short reads and writes, EINTR
/// storms, mid-stream truncation, byte corruption, ENOSPC/EPIPE — lands
/// with a pinned, reproducible test instead of a flaky sleep-based one.
///
/// A streamed TraceInput and FdSink take an optional IoSyscalls;
/// production code passes nothing and gets the real syscalls. Tests pass
/// a FaultSyscalls driven by a FaultPlan:
///
///   * per-call schedules (Reads/Writes) decide each call's fate in
///     order — pass it through, clamp it short, fail it with a chosen
///     errno, return EINTR, or declare EOF; past the end of a schedule
///     the Tail op repeats (so "byte-at-a-time forever" is one line);
///   * byte-positioned faults overlay the schedule: TruncateReadAt ends
///     the stream at an exact offset, CorruptReadAt flips bits in one
///     byte on its way through, FailWriteAt fails the write that would
///     produce a given byte (everything before it is written, so the
///     sink's byte-offset diagnostic can be asserted exactly).
///
/// The wrapped fd is real: reads and writes that the plan lets through
/// hit the kernel, which keeps the decoding classes honest about
/// buffering and offsets. Counters record what actually happened for the
/// tests to assert on. Everything is deterministic — no timers, no
/// threads, no randomness.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_IO_FAULTINJECTION_H
#define SIGNALC_IO_FAULTINJECTION_H

#include <cstddef>
#include <cstdint>
#include <sys/types.h>
#include <utility>
#include <vector>

namespace sigc {

/// The syscall layer a streamed TraceInput and FdSink read and write
/// through.
/// Implementations must preserve read(2)/write(2) semantics (return
/// count, 0 for EOF, -1 with errno set).
class IoSyscalls {
public:
  virtual ~IoSyscalls();
  virtual ssize_t read(int Fd, void *Buf, size_t Len);
  virtual ssize_t write(int Fd, const void *Buf, size_t Len);

  /// The passthrough instance production code uses.
  static IoSyscalls &system();
};

/// What one scheduled call does.
struct FaultOp {
  enum Kind {
    Pass,  ///< Real syscall, untouched.
    Short, ///< Real syscall, length clamped to Max bytes.
    Eintr, ///< No syscall: fail with EINTR (the retry-loop storm).
    Fail,  ///< No syscall: fail with Errno.
    Eof,   ///< Reads only: report end of stream.
  };
  Kind K = Pass;
  size_t Max = 0; ///< Short: bytes the call may move.
  int Errno = 0;  ///< Fail: the errno to report.

  static FaultOp pass() { return {}; }
  static FaultOp shortIo(size_t Max) { return {Short, Max, 0}; }
  static FaultOp eintr() { return {Eintr, 0, 0}; }
  static FaultOp fail(int Errno) { return {Fail, 0, Errno}; }
  static FaultOp eof() { return {Eof, 0, 0}; }
};

/// Marker for "no byte-positioned fault".
constexpr uint64_t FaultNoByte = ~static_cast<uint64_t>(0);

/// The script a FaultSyscalls executes.
struct FaultPlan {
  /// Per-call fates, consumed in order; Tail repeats afterwards.
  std::vector<FaultOp> Reads, Writes;
  FaultOp ReadTail = FaultOp::pass();
  FaultOp WriteTail = FaultOp::pass();

  /// The read stream ends (EOF) at exactly this byte offset.
  uint64_t TruncateReadAt = FaultNoByte;
  /// The byte at this read offset is XORed with CorruptXor in flight.
  uint64_t CorruptReadAt = FaultNoByte;
  uint8_t CorruptXor = 0xFF;
  /// The write that would produce this byte offset fails with
  /// FailWriteErrno; bytes below the offset are written for real.
  uint64_t FailWriteAt = FaultNoByte;
  int FailWriteErrno = 0;
};

/// Applies a FaultPlan over the real syscalls, deterministically.
class FaultSyscalls : public IoSyscalls {
public:
  explicit FaultSyscalls(FaultPlan Plan) : Plan(std::move(Plan)) {}

  ssize_t read(int Fd, void *Buf, size_t Len) override;
  ssize_t write(int Fd, const void *Buf, size_t Len) override;

  /// What actually happened, for assertions.
  uint64_t readCalls() const { return ReadCalls; }
  uint64_t writeCalls() const { return WriteCalls; }
  uint64_t readBytes() const { return ReadPos; }
  uint64_t writtenBytes() const { return WritePos; }
  uint64_t eintrReturns() const { return EintrReturns; }

private:
  FaultOp nextOp(const std::vector<FaultOp> &Sched, const FaultOp &Tail,
                 uint64_t Call) const;

  FaultPlan Plan;
  uint64_t ReadCalls = 0, WriteCalls = 0;
  uint64_t ReadPos = 0, WritePos = 0; ///< Stream offsets moved so far.
  uint64_t EintrReturns = 0;
};

} // namespace sigc

#endif // SIGNALC_IO_FAULTINJECTION_H
