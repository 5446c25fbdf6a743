//===--- fault_injection_test.cpp - Scripted I/O failure classes ----------===//
///
/// The deterministic fault harness exercised end to end: a streamed
/// TraceInput and FdSink run over real descriptors whose read(2)/write(2)
/// layer is a FaultSyscalls executing a scripted FaultPlan. Each test pins one
/// failure class with exact diagnostics and counters — no sleeps, no
/// signals, no timing:
///
///   * short writes: a byte-at-a-time sink still produces the recording
///     byte for byte (the full-write retry loop), with the call count
///     proving the schedule actually ran;
///   * short reads: byte-at-a-time delivery and a schedule that splits
///     every 16-byte frame header across two reads both decode to the
///     same verified replay as an mmap of the same file;
///   * EINTR storms on both directions: retried transparently, counted
///     exactly, and invisible in the bytes;
///   * mid-payload truncation: the positioned Truncated diagnostic is
///     character-identical across streamed, in-memory and mapped inputs;
///   * in-flight byte corruption: the checksum diagnostic is
///     character-identical across inputs;
///   * ENOSPC / EPIPE at an exact byte: the sink latches "at byte N:"
///     with everything below N written for real, and the writer reports
///     the failure instead of truncating silently.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/VmExecutor.h"
#include "io/FaultInjection.h"
#include "io/TraceEnvironment.h"
#include "io/TraceWriter.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

using namespace sigc;
using namespace sigc::test;

namespace {

/// A process exercising every wire value encoding.
std::unique_ptr<Compilation> compileMixed() {
  return compileOk(proc("? integer A; boolean C1; real R; "
                        "! integer Y; boolean B; real S;",
                        "   Y := (A + 1) when C1\n"
                        "   | B := not C1\n"
                        "   | S := R * 2.0"));
}

/// Records \p Instants instants under a seeded random environment into
/// \p Sink, frame capacity \p FrameCap.
void recordInto(const Compilation &C, unsigned Instants, unsigned FrameCap,
                TraceSink &Sink, uint64_t Seed = 11) {
  TraceWriter W(Sink, TraceSpec::fromStep(C.Compiled, "P", FrameCap));
  RandomEnvironment Rnd(Seed);
  RecordingEnvironment Rec(Rnd, W);
  VmExecutor Vm(C.Compiled);
  runWindows(Vm, Rec, 0, Instants, FrameCap);
  EXPECT_TRUE(W.finish(Instants));
}

/// The reference recording in memory.
std::vector<uint8_t> recordBytes(const Compilation &C, unsigned Instants,
                                 unsigned FrameCap) {
  MemorySink Sink;
  recordInto(C, Instants, FrameCap, Sink);
  return Sink.takeBytes();
}

/// Parses the (valid) header of \p Bytes and returns its length.
size_t headerLen(const std::vector<uint8_t> &Bytes) {
  TraceSpec Spec;
  size_t Len = 0;
  TraceError Err;
  EXPECT_TRUE(parseTraceHeader(Bytes.data(), Bytes.size(), Spec, Len, Err))
      << Err.str();
  return Len;
}

/// Writes \p Bytes to a fresh temp file and returns its path.
std::string writeTempTrace(const std::vector<uint8_t> &Bytes) {
  std::string Path = ::testing::TempDir() + "sigc_fault_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(::testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->line()) +
                     ".sgtr";
  FILE *F = std::fopen(Path.c_str(), "wb");
  EXPECT_NE(F, nullptr);
  if (!Bytes.empty()) {
    EXPECT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  }
  std::fclose(F);
  return Path;
}

/// Reads the whole file back.
std::vector<uint8_t> readFile(const std::string &Path) {
  std::vector<uint8_t> Out;
  FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr);
  if (!F)
    return Out;
  uint8_t Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.insert(Out.end(), Buf, Buf + N);
  std::fclose(F);
  return Out;
}

/// Fully replays \p In against \p C with output verification on and
/// returns the replayed events; any decode or divergence failure is a
/// test failure.
std::vector<OutputEvent> replayVerified(const Compilation &C, TraceInput &In) {
  TraceDecoder Dec(&C.Compiled);
  EXPECT_TRUE(In.readHeader(Dec)) << Dec.error().str();
  StreamEnvironment Env(Dec.spec());
  Env.setVerifyOutputs(true);
  Env.setCollectOutputs(true);
  VmExecutor Vm(C.Compiled);
  replayTrace(In, Dec, Env, Vm, Dec.spec().FrameInstants);
  EXPECT_TRUE(Dec.error().ok()) << Dec.error().str();
  EXPECT_TRUE(Dec.finished());
  EXPECT_EQ(Env.divergence(), "");
  return Env.outputs();
}

/// Walks \p In to the first decode failure and returns the positioned
/// error. EXPECTs that a failure happens.
TraceError walkToError(TraceInput &In) {
  TraceDecoder Dec;
  TraceFrame F;
  TraceFrameStatus St;
  while ((St = In.next(Dec, F)) == TraceFrameStatus::Frame ||
         St == TraceFrameStatus::Header)
    ;
  EXPECT_EQ(static_cast<int>(St), static_cast<int>(TraceFrameStatus::Error));
  return Dec.error();
}

/// Opens \p Path as a streamed TraceInput reading through \p Sys.
std::unique_ptr<TraceInput> openFaulty(const std::string &Path,
                                       IoSyscalls *Sys) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  EXPECT_GE(Fd, 0) << Path;
  return std::make_unique<TraceInput>(Fd, /*OwnsFd=*/true, Sys);
}

} // namespace

//===----------------------------------------------------------------------===//
// Failure class 1: short writes — the sink's retry loop
//===----------------------------------------------------------------------===//

TEST(FaultInjection, ByteAtATimeWritesProduceAnIdenticalRecording) {
  auto C = compileMixed();
  std::vector<uint8_t> Ref = recordBytes(*C, 24, 8);

  FaultPlan Plan;
  Plan.WriteTail = FaultOp::shortIo(1); // Every write moves one byte.
  FaultSyscalls Sys(Plan);
  std::string Path = writeTempTrace({});
  std::string Error;
  int Fd = FdSink::openFile(Path, Error);
  ASSERT_GE(Fd, 0) << Error;
  {
    FdSink Sink(Fd, /*OwnsFd=*/true, &Sys);
    recordInto(*C, 24, 8, Sink);
    EXPECT_EQ(Sink.written(), Ref.size());
    EXPECT_TRUE(Sink.errorDetail().empty()) << Sink.errorDetail();
  }
  // The retry loop really ran byte-at-a-time...
  EXPECT_EQ(Sys.writeCalls(), Ref.size());
  // ...and the recording is still byte-identical to the in-memory one.
  EXPECT_EQ(readFile(Path), Ref);
  ::unlink(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Failure classes 2 and 3: short reads and split frame headers
//===----------------------------------------------------------------------===//

TEST(FaultInjection, ByteAtATimeReadsDecodeTheSameReplayAsMmap) {
  auto C = compileMixed();
  std::vector<uint8_t> Ref = recordBytes(*C, 24, 8);
  std::string Path = writeTempTrace(Ref);

  TraceInput Mmap;
  std::string Error;
  ASSERT_TRUE(Mmap.open(Path, Error)) << Error;
  std::vector<OutputEvent> Expected = replayVerified(*C, Mmap);

  FaultPlan Plan;
  Plan.ReadTail = FaultOp::shortIo(1); // The kernel yields one byte per call.
  FaultSyscalls Sys(Plan);
  auto Src = openFaulty(Path, &Sys);
  std::vector<OutputEvent> Got = replayVerified(*C, *Src);
  EXPECT_EQ(Got.size(), Expected.size());
  // One call per byte; the reader stops at the trailer without an extra
  // EOF probe.
  EXPECT_EQ(Sys.readCalls(), Ref.size());
  ::unlink(Path.c_str());
}

TEST(FaultInjection, FrameHeaderSplitAcrossReadsDecodesIdentically) {
  auto C = compileMixed();
  std::vector<uint8_t> Ref = recordBytes(*C, 24, 8);
  std::string Path = writeTempTrace(Ref);

  TraceInput Mmap;
  std::string Error;
  ASSERT_TRUE(Mmap.open(Path, Error)) << Error;
  std::vector<OutputEvent> Expected = replayVerified(*C, Mmap);

  // Deliver the header in one read, then 7 bytes per call: every 16-byte
  // frame header is split across at least two reads, and payloads arrive
  // misaligned with their frames.
  FaultPlan Plan;
  Plan.Reads = {FaultOp::shortIo(headerLen(Ref))};
  Plan.ReadTail = FaultOp::shortIo(7);
  FaultSyscalls Sys(Plan);
  auto Src = openFaulty(Path, &Sys);
  std::vector<OutputEvent> Got = replayVerified(*C, *Src);
  EXPECT_EQ(Got.size(), Expected.size());
  ::unlink(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Failure class 4: EINTR storms on both directions
//===----------------------------------------------------------------------===//

TEST(FaultInjection, EintrStormsAreRetriedAndCountedOnReadsAndWrites) {
  auto C = compileMixed();
  std::vector<uint8_t> Ref = recordBytes(*C, 24, 8);

  // Writes: three EINTRs before every real write.
  {
    FaultPlan Plan;
    for (int I = 0; I < 64; ++I) {
      Plan.Writes.push_back(FaultOp::eintr());
      Plan.Writes.push_back(FaultOp::eintr());
      Plan.Writes.push_back(FaultOp::eintr());
      Plan.Writes.push_back(FaultOp::pass());
    }
    FaultSyscalls Sys(Plan);
    std::string Path = writeTempTrace({});
    std::string Error;
    int Fd = FdSink::openFile(Path, Error);
    ASSERT_GE(Fd, 0) << Error;
    {
      FdSink Sink(Fd, /*OwnsFd=*/true, &Sys);
      recordInto(*C, 24, 8, Sink);
      EXPECT_TRUE(Sink.errorDetail().empty()) << Sink.errorDetail();
    }
    EXPECT_EQ(readFile(Path), Ref);
    uint64_t Real = Sys.writeCalls() - Sys.eintrReturns();
    EXPECT_EQ(Sys.eintrReturns(), 3 * Real)
        << "every real write paid exactly three EINTRs";
    ::unlink(Path.c_str());
  }

  // Reads: an EINTR before every refill, invisible in the replay.
  {
    std::string Path = writeTempTrace(Ref);
    FaultPlan Plan;
    for (int I = 0; I < 256; ++I) {
      Plan.Reads.push_back(FaultOp::eintr());
      Plan.Reads.push_back(FaultOp::pass());
    }
    FaultSyscalls Sys(Plan);
    auto Src = openFaulty(Path, &Sys);
    replayVerified(*C, *Src);
    EXPECT_GT(Sys.eintrReturns(), 0u);
    EXPECT_EQ(Sys.eintrReturns(), Sys.readCalls() - Sys.eintrReturns())
        << "EINTRs and real reads alternated one to one";
    ::unlink(Path.c_str());
  }
}

//===----------------------------------------------------------------------===//
// Failure class 5: mid-payload truncation, diagnostics pinned across
// sources
//===----------------------------------------------------------------------===//

TEST(FaultInjection, MidPayloadTruncationDiagnosticMatchesAllSources) {
  auto C = compileMixed();
  std::vector<uint8_t> Ref = recordBytes(*C, 24, 8);
  size_t H = headerLen(Ref);
  uint64_t Cut = H + TraceFrameHeaderBytes + 3; // Inside the first payload.

  // Fd source over the full file, stream scripted to end at Cut.
  std::string Path = writeTempTrace(Ref);
  FaultPlan Plan;
  Plan.TruncateReadAt = Cut;
  FaultSyscalls Sys(Plan);
  auto Fd = openFaulty(Path, &Sys);
  TraceError FdErr = walkToError(*Fd);

  // Memory source over the same prefix.
  std::vector<uint8_t> Prefix(Ref.begin(),
                              Ref.begin() + static_cast<long>(Cut));
  TraceInput Mem(Prefix);
  TraceError MemErr = walkToError(Mem);

  // Mmap source over a truncated file on disk.
  std::string CutPath = writeTempTrace(Prefix);
  TraceInput Mmap;
  std::string Error;
  ASSERT_TRUE(Mmap.open(CutPath, Error)) << Error;
  TraceError MmapErr = walkToError(Mmap);

  EXPECT_EQ(static_cast<int>(FdErr.Kind),
            static_cast<int>(TraceErrorKind::Truncated));
  EXPECT_EQ(FdErr.Offset, Cut);
  EXPECT_EQ(FdErr.str(), MemErr.str())
      << "buffered-fd diagnostic differs from the memory source";
  EXPECT_EQ(FdErr.str(), MmapErr.str())
      << "buffered-fd diagnostic differs from the mmap source";
  ::unlink(Path.c_str());
  ::unlink(CutPath.c_str());
}

//===----------------------------------------------------------------------===//
// Failure class 6: in-flight byte corruption, diagnostics pinned across
// sources
//===----------------------------------------------------------------------===//

TEST(FaultInjection, InFlightCorruptionDiagnosticMatchesAllSources) {
  auto C = compileMixed();
  std::vector<uint8_t> Ref = recordBytes(*C, 24, 8);
  size_t H = headerLen(Ref);
  uint64_t At = H + TraceFrameHeaderBytes; // First payload byte.

  // Fd source over the intact file; the byte is damaged in flight.
  std::string Path = writeTempTrace(Ref);
  FaultPlan Plan;
  Plan.CorruptReadAt = At;
  Plan.CorruptXor = 0x40;
  FaultSyscalls Sys(Plan);
  auto Fd = openFaulty(Path, &Sys);
  TraceError FdErr = walkToError(*Fd);

  // The same damage applied at rest, decoded from memory and mmap.
  std::vector<uint8_t> Damaged = Ref;
  Damaged[At] ^= 0x40;
  TraceInput Mem(Damaged);
  TraceError MemErr = walkToError(Mem);
  std::string DamagedPath = writeTempTrace(Damaged);
  TraceInput Mmap;
  std::string Error;
  ASSERT_TRUE(Mmap.open(DamagedPath, Error)) << Error;
  TraceError MmapErr = walkToError(Mmap);

  EXPECT_EQ(static_cast<int>(FdErr.Kind),
            static_cast<int>(TraceErrorKind::Corrupt));
  EXPECT_EQ(FdErr.Offset, At);
  EXPECT_NE(FdErr.Message.find("checksum"), std::string::npos) << FdErr.str();
  EXPECT_EQ(FdErr.str(), MemErr.str());
  EXPECT_EQ(FdErr.str(), MmapErr.str());
  ::unlink(Path.c_str());
  ::unlink(DamagedPath.c_str());
}

//===----------------------------------------------------------------------===//
// Failure class 7: write failure at an exact byte — ENOSPC and EPIPE
//===----------------------------------------------------------------------===//

TEST(FaultInjection, WriteFailureLatchesExactByteOffsetDiagnostic) {
  auto C = compileMixed();
  std::vector<uint8_t> Ref = recordBytes(*C, 24, 8);
  uint64_t FailAt = headerLen(Ref) + 5; // Inside the first frame flush.

  for (int Errno : {ENOSPC, EPIPE}) {
    FaultPlan Plan;
    Plan.FailWriteAt = FailAt;
    Plan.FailWriteErrno = Errno;
    FaultSyscalls Sys(Plan);
    std::string Path = writeTempTrace({});
    std::string Error;
    int Fd = FdSink::openFile(Path, Error);
    ASSERT_GE(Fd, 0) << Error;
    {
      FdSink Sink(Fd, /*OwnsFd=*/true, &Sys);
      TraceWriter W(Sink, TraceSpec::fromStep(C->Compiled, "P", 8));
      RandomEnvironment Rnd(11);
      RecordingEnvironment Rec(Rnd, W);
      VmExecutor Vm(C->Compiled);
      runWindows(Vm, Rec, 0, 24, 8);
      EXPECT_FALSE(W.finish(24)) << "the failed flush must be reported";
      EXPECT_FALSE(W.ok());
      // Everything below the failing byte reached the file for real, so
      // the diagnostic names the exact resume point.
      EXPECT_EQ(Sink.written(), FailAt);
      std::string Want =
          "at byte " + std::to_string(FailAt) + ": " + std::strerror(Errno);
      EXPECT_EQ(Sink.errorDetail(), Want);
    }
    std::vector<uint8_t> OnDisk = readFile(Path);
    EXPECT_EQ(OnDisk.size(), FailAt);
    EXPECT_TRUE(std::equal(OnDisk.begin(), OnDisk.end(), Ref.begin()));
    ::unlink(Path.c_str());
  }
}
