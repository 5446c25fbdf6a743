//===--- trace_io_test.cpp - Trace format, writer, reader, replay ---------===//
///
/// Tests of the binary trace pipeline:
///   * writer/reader round trips over every signal type, multi-frame
///     traces with a partial last frame, and the empty (zero-instant)
///     trace,
///   * the framing invariant: the bytes a recording produces do not
///     depend on the delivery batch size, and a verified replay echoed
///     through a writer with the same frame capacity is byte-identical,
///   * input equivalence: a mapped file and the same file read(2) in
///     chunks decode the same trace, and a non-regular file is read as a
///     stream,
///   * the corrupt-input regression suite: truncated header, bad magic,
///     unsupported version, byteswapped endian mark, header-hash damage,
///     interface mismatch, mid-frame EOF, oversized frame lengths and
///     payload corruption must each produce a positioned diagnostic of
///     the right kind — never UB, never a crash.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/VmExecutor.h"
#include "io/TraceEnvironment.h"
#include "io/TraceWriter.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>

using namespace sigc;
using namespace sigc::test;

namespace {

/// A process exercising every wire value encoding: integer, boolean and
/// real inputs; sampled integer, boolean and real outputs.
std::unique_ptr<Compilation> compileMixed() {
  return compileOk(proc("? integer A; boolean C1; real R; "
                        "! integer Y; boolean B; real S;",
                        "   Y := (A + 1) when C1\n"
                        "   | B := not C1\n"
                        "   | S := R * 2.0"));
}

struct Recording {
  std::vector<uint8_t> Bytes;
  std::vector<OutputEvent> Events;
};

/// Records \p Instants instants of \p C under a seeded random environment
/// into an in-memory trace. \p Batch 0 runs unbatched (per-instant
/// queries only); otherwise the run is stepN-batched.
Recording record(const Compilation &C, unsigned Instants, unsigned FrameCap,
                 unsigned Batch, uint64_t Seed = 11) {
  Recording R;
  MemorySink Sink;
  TraceWriter W(Sink, TraceSpec::fromStep(C.Compiled, "P", FrameCap));
  RandomEnvironment Rnd(Seed);
  RecordingEnvironment Rec(Rnd, W);
  VmExecutor Vm(C.Compiled);
  if (Batch == 0)
    Vm.run(Rec, Instants);
  else
    Vm.runBatched(Rec, Instants, Batch);
  EXPECT_TRUE(W.finish(Instants));
  R.Bytes = Sink.takeBytes();
  R.Events = Rnd.outputs();
  return R;
}

/// Replays \p In against \p C, verifying the recorded outputs, and
/// returns the replayed events.
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

/// Parses the header of \p Bytes (which must be valid) and returns its
/// length, i.e. the offset of the first frame.
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
  std::string Path = ::testing::TempDir() + "sigc_trace_" +
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

} // namespace

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

TEST(TraceRoundTrip, AllValueTypesSurviveRecordAndReplay) {
  auto C = compileMixed();
  Recording R = record(*C, 40, 8, 8);
  ASSERT_FALSE(R.Events.empty());

  TraceInput In(R.Bytes);
  std::vector<OutputEvent> Replayed = replayVerified(*C, In);
  EXPECT_EQ(Replayed, R.Events);
}

TEST(TraceRoundTrip, PartialLastFrameAndTrailerAccounting) {
  auto C = compileMixed();
  // 21 instants at frame capacity 8: two full frames, one 5-instant
  // partial, then the trailer.
  Recording R = record(*C, 21, 8, 4);

  TraceInput In(R.Bytes);
  TraceDecoder Dec;
  ASSERT_TRUE(In.readHeader(Dec)) << Dec.error().str();
  EXPECT_EQ(Dec.spec().FrameInstants, 8u);

  TraceFrame F;
  std::vector<std::pair<unsigned, unsigned>> Seen;
  for (;;) {
    TraceFrameStatus St = In.next(Dec, F);
    if (St == TraceFrameStatus::End)
      break;
    ASSERT_EQ(St, TraceFrameStatus::Frame) << Dec.error().str();
    Seen.push_back({F.Start, F.Count});
  }
  std::vector<std::pair<unsigned, unsigned>> Expected = {
      {0, 8}, {8, 8}, {16, 5}};
  EXPECT_EQ(Seen, Expected);
  EXPECT_EQ(Dec.nextInstant(), 21u);
  EXPECT_EQ(Dec.offset(), R.Bytes.size()) << "trailer ends the stream";
}

TEST(TraceRoundTrip, ZeroInstantTraceIsHeaderPlusTrailer) {
  auto C = compileMixed();
  Recording R = record(*C, 0, 8, 0);
  EXPECT_TRUE(R.Events.empty());

  TraceInput In(R.Bytes);
  TraceDecoder Dec;
  ASSERT_TRUE(In.readHeader(Dec)) << Dec.error().str();
  TraceFrame F;
  EXPECT_EQ(In.next(Dec, F), TraceFrameStatus::End) << Dec.error().str();
  EXPECT_EQ(Dec.nextInstant(), 0u);
}

TEST(TraceRoundTrip, RecordedBytesAreIndependentOfBatchSize) {
  // The writer owns the framing: batched runs delivering windows of 1, 5
  // and 13 instants all fetch the stimulus densely and must produce
  // identical bytes regardless of how the windows land on frame seams.
  auto C = compileMixed();
  Recording Batched1 = record(*C, 30, 8, 1);
  Recording Batched5 = record(*C, 30, 8, 5);
  Recording Batched13 = record(*C, 30, 8, 13);
  EXPECT_EQ(Batched1.Events, Batched5.Events);
  EXPECT_EQ(Batched1.Bytes, Batched5.Bytes)
      << "recorded bytes must not depend on the execution batch size";
  EXPECT_EQ(Batched1.Bytes, Batched13.Bytes);
}

TEST(TraceRoundTrip, UnbatchedRunStillReplaysCorrectly) {
  // A run that never batches records via the per-instant overrides only
  // (absent input instants stay at their defaults); the trace still
  // verifies and replays to the same events.
  auto C = compileMixed();
  Recording R = record(*C, 30, 8, 0);
  TraceInput In(R.Bytes);
  std::vector<OutputEvent> Replayed = replayVerified(*C, In);
  EXPECT_EQ(Replayed, R.Events);
}

TEST(TraceRoundTrip, VerifiedReplayEchoesByteIdenticalTrace) {
  auto C = compileMixed();
  Recording R = record(*C, 50, 8, 8);

  TraceInput In(R.Bytes);
  TraceDecoder Dec(&C->Compiled);
  ASSERT_TRUE(In.readHeader(Dec)) << Dec.error().str();

  MemorySink EchoSink;
  TraceWriter Echo(EchoSink, Dec.spec());
  StreamEnvironment Env(Dec.spec());
  Env.setVerifyOutputs(true);
  Env.setEcho(&Echo);
  VmExecutor Vm(C->Compiled);
  // A replay window coprime with the frame capacity: every frame seam is
  // crossed mid-window at least once.
  unsigned At = replayTrace(In, Dec, Env, Vm, 7);
  ASSERT_TRUE(Dec.error().ok()) << Dec.error().str();
  EXPECT_EQ(Env.divergence(), "");
  EXPECT_TRUE(Echo.finish(At));
  EXPECT_EQ(EchoSink.bytes(), R.Bytes)
      << "re-recorded replay must be byte-identical to the original";
}

TEST(TraceRoundTrip, PerInstantReplayEchoesAUsableStream) {
  // A replay in the unbatched executor's windows (UnbatchedWindow, which
  // neither the recording's batches of 5 nor the 27-instant end align
  // with) mirrors what it serves into the echo writer byte for byte, and
  // replaying the echoed stream reproduces the original events.
  // Regression for an echo that only hooked some exchange paths and
  // emitted an empty stimulus stream.
  auto C = compileMixed();
  Recording R = record(*C, 27, 8, 5);

  TraceInput In(R.Bytes);
  TraceDecoder Dec(&C->Compiled);
  ASSERT_TRUE(In.readHeader(Dec)) << Dec.error().str();
  MemorySink EchoSink;
  TraceWriter Echo(EchoSink, Dec.spec());
  StreamEnvironment Env(Dec.spec());
  Env.setVerifyOutputs(true);
  Env.setEcho(&Echo);
  VmExecutor Vm(C->Compiled);
  ASSERT_EQ(replayTrace(In, Dec, Env, Vm, UnbatchedWindow), 27u)
      << Dec.error().str();
  EXPECT_EQ(Env.divergence(), "");
  EXPECT_EQ(Env.outputCount(), R.Events.size());
  ASSERT_TRUE(Echo.finish(27));
  ASSERT_GT(EchoSink.bytes().size(), headerLen(EchoSink.bytes()))
      << "echo must carry frames, not just a header";
  EXPECT_EQ(EchoSink.bytes(), R.Bytes)
      << "re-recorded replay must be byte-identical to the original";

  TraceInput EchoIn(EchoSink.bytes());
  std::vector<OutputEvent> Replayed = replayVerified(*C, EchoIn);
  EXPECT_EQ(Replayed, R.Events);
}

TEST(TraceRoundTrip, MmapAndBufferedSourcesDecodeTheSameFile) {
  auto C = compileMixed();
  Recording R = record(*C, 33, 8, 8);
  std::string Path = writeTempTrace(R.Bytes);

  TraceInput Mapped;
  std::string Error;
  ASSERT_TRUE(Mapped.open(Path, Error)) << Error;
  EXPECT_FALSE(Mapped.streamed()) << "a regular file is mapped";
  std::vector<OutputEvent> ViaMmap = replayVerified(*C, Mapped);

  // The same file through the read(2) path pipes take (the fault
  // injection suite drives it a byte at a time).
  int Fd = ::open(Path.c_str(), O_RDONLY);
  ASSERT_GE(Fd, 0) << Path;
  TraceInput Buffered(Fd, /*OwnsFd=*/true);
  std::vector<OutputEvent> ViaRead = replayVerified(*C, Buffered);

  EXPECT_EQ(ViaMmap, R.Events);
  EXPECT_EQ(ViaRead, R.Events);
  ::unlink(Path.c_str());
}

TEST(TraceRoundTrip, NonRegularFilesAreReadAsStreams) {
  // fstat, not a flag, picks the input: a character device (like a pipe)
  // is read in chunks, and its empty stream is a positioned truncation.
  TraceInput In;
  std::string Error;
  ASSERT_TRUE(In.open("/dev/null", Error)) << Error;
  EXPECT_TRUE(In.streamed());
  TraceDecoder Dec;
  EXPECT_FALSE(In.readHeader(Dec));
  EXPECT_EQ(static_cast<int>(Dec.error().Kind),
            static_cast<int>(TraceErrorKind::Truncated))
      << Dec.error().str();
  EXPECT_EQ(Dec.error().Offset, 0u);
}

//===----------------------------------------------------------------------===//
// Corrupt-input regressions: every damaged stream is a positioned
// diagnostic of the right kind.
//===----------------------------------------------------------------------===//

namespace {

/// Reads the header of \p Bytes and expects it to fail with \p Kind.
TraceError expectHeaderError(const std::vector<uint8_t> &Bytes,
                             TraceErrorKind Kind) {
  TraceInput In(Bytes);
  TraceDecoder Dec;
  EXPECT_FALSE(In.readHeader(Dec));
  EXPECT_EQ(static_cast<int>(Dec.error().Kind), static_cast<int>(Kind))
      << Dec.error().str();
  return Dec.error();
}

/// Reads the header (expecting success), then expects the frame walk to
/// fail with \p Kind.
TraceError expectFrameError(const std::vector<uint8_t> &Bytes,
                            TraceErrorKind Kind) {
  TraceInput In(Bytes);
  TraceDecoder Dec;
  EXPECT_TRUE(In.readHeader(Dec)) << Dec.error().str();
  TraceFrame F;
  TraceFrameStatus St;
  while ((St = In.next(Dec, F)) == TraceFrameStatus::Frame)
    ;
  EXPECT_EQ(static_cast<int>(St), static_cast<int>(TraceFrameStatus::Error));
  EXPECT_EQ(static_cast<int>(Dec.error().Kind), static_cast<int>(Kind))
      << Dec.error().str();
  return Dec.error();
}

} // namespace

TEST(TraceCorruption, TruncatedHeaderIsAPositionedTruncation) {
  auto C = compileMixed();
  Recording R = record(*C, 16, 8, 8);
  for (size_t Keep : {size_t(0), size_t(3), size_t(9), headerLen(R.Bytes) - 1}) {
    std::vector<uint8_t> Cut(R.Bytes.begin(), R.Bytes.begin() + Keep);
    TraceError E = expectHeaderError(Cut, TraceErrorKind::Truncated);
    EXPECT_EQ(E.Offset, Keep) << "truncation points at the stream end";
  }
}

TEST(TraceCorruption, BadMagicIsDiagnosedAtOffsetZero) {
  auto C = compileMixed();
  Recording R = record(*C, 8, 8, 8);
  R.Bytes[0] ^= 0xFF;
  TraceError E = expectHeaderError(R.Bytes, TraceErrorKind::BadMagic);
  EXPECT_EQ(E.Offset, 0u);
  EXPECT_NE(E.Message.find("SGTR"), std::string::npos) << E.Message;
}

TEST(TraceCorruption, UnsupportedVersionNamesBothVersions) {
  auto C = compileMixed();
  Recording R = record(*C, 8, 8, 8);
  R.Bytes[4] = 0x63; // version 99
  TraceError E = expectHeaderError(R.Bytes, TraceErrorKind::BadVersion);
  EXPECT_EQ(E.Offset, 4u);
  EXPECT_NE(E.Message.find("99"), std::string::npos) << E.Message;
}

TEST(TraceCorruption, ByteswappedEndianMarkIsDiagnosedNotGuessed) {
  auto C = compileMixed();
  Recording R = record(*C, 8, 8, 8);
  std::swap(R.Bytes[6], R.Bytes[7]);
  TraceError E = expectHeaderError(R.Bytes, TraceErrorKind::BadEndian);
  EXPECT_EQ(E.Offset, 6u);
  EXPECT_NE(E.Message.find("byteswapped"), std::string::npos) << E.Message;
}

TEST(TraceCorruption, DamagedHeaderBytesFailTheInterfaceHash) {
  auto C = compileMixed();
  Recording R = record(*C, 8, 8, 8);
  // Flip one bit inside the process name region; the stored FNV-1a64 no
  // longer matches.
  R.Bytes[12] ^= 0x01;
  TraceError E =
      expectHeaderError(R.Bytes, TraceErrorKind::InterfaceMismatch);
  EXPECT_NE(E.Message.find("hash"), std::string::npos) << E.Message;
}

TEST(TraceCorruption, InterfaceMismatchNamesTheFirstDifference) {
  auto C = compileMixed();
  Recording R = record(*C, 8, 8, 8);
  auto Other = compileOk(proc("? integer A; ! integer Y;", "   Y := A + 1"));
  TraceInput In(R.Bytes);
  TraceDecoder Dec(&Other->Compiled);
  EXPECT_FALSE(In.readHeader(Dec));
  EXPECT_EQ(static_cast<int>(Dec.error().Kind),
            static_cast<int>(TraceErrorKind::InterfaceMismatch));
  EXPECT_NE(Dec.error().Message.find("does not match"), std::string::npos)
      << Dec.error().str();
}

TEST(TraceCorruption, MidFrameEofIsATruncationPastTheHeader) {
  auto C = compileMixed();
  Recording R = record(*C, 16, 8, 8);
  size_t H = headerLen(R.Bytes);
  // Cut inside the first frame: once mid-header, once mid-payload.
  for (size_t Keep : {H + 7, H + TraceFrameHeaderBytes + 3}) {
    std::vector<uint8_t> Cut(R.Bytes.begin(), R.Bytes.begin() + Keep);
    TraceError E = expectFrameError(Cut, TraceErrorKind::Truncated);
    EXPECT_EQ(E.Offset, Keep);
    EXPECT_NE(E.Message.find("stream ends inside"), std::string::npos)
        << E.Message;
  }
}

TEST(TraceCorruption, MissingTrailerIsATruncationNotASilentEnd) {
  auto C = compileMixed();
  Recording R = record(*C, 16, 8, 8);
  // Drop exactly the 16-byte trailer: every data frame is intact, but
  // the stream must not pass as complete.
  std::vector<uint8_t> Cut(R.Bytes.begin(), R.Bytes.end() - 16);
  TraceError E = expectFrameError(Cut, TraceErrorKind::Truncated);
  EXPECT_NE(E.Message.find("no trailer"), std::string::npos) << E.Message;
}

TEST(TraceCorruption, OversizedFrameLengthIsMalformedNotAnAllocation) {
  auto C = compileMixed();
  Recording R = record(*C, 16, 8, 8);
  size_t H = headerLen(R.Bytes);
  // Patch the first frame's payload length to ~2GB. The reader must
  // reject it against the interface's maximum instead of trying to
  // buffer it.
  R.Bytes[H + 0] = 0xFF;
  R.Bytes[H + 1] = 0xFF;
  R.Bytes[H + 2] = 0xFF;
  R.Bytes[H + 3] = 0x7F;
  TraceError E = expectFrameError(R.Bytes, TraceErrorKind::Malformed);
  EXPECT_EQ(E.Offset, H);
  EXPECT_NE(E.Message.find("oversized frame"), std::string::npos)
      << E.Message;
}

TEST(TraceCorruption, FlippedPayloadByteFailsTheChecksum) {
  auto C = compileMixed();
  Recording R = record(*C, 16, 8, 8);
  size_t H = headerLen(R.Bytes);
  R.Bytes[H + TraceFrameHeaderBytes] ^= 0x40;
  TraceError E = expectFrameError(R.Bytes, TraceErrorKind::Corrupt);
  EXPECT_EQ(E.Offset, H + TraceFrameHeaderBytes);
  EXPECT_NE(E.Message.find("checksum"), std::string::npos) << E.Message;
}

TEST(TraceCorruption, OvercountedFrameInstantsAreMalformed) {
  auto C = compileMixed();
  Recording R = record(*C, 16, 8, 8);
  size_t H = headerLen(R.Bytes);
  // Claim 9 instants in a capacity-8 stream.
  R.Bytes[H + 8] = 9;
  TraceError E = expectFrameError(R.Bytes, TraceErrorKind::Malformed);
  EXPECT_NE(E.Message.find("frame capacity"), std::string::npos)
      << E.Message;
}

TEST(TraceCorruption, MidStreamPartialFrameIsMalformedNotAHang) {
  // Two self-consistent 5-instant frames in a capacity-8 stream: each
  // decodes cleanly in isolation and they are contiguous, but a partial
  // frame anywhere except the end of the stream would break the replay
  // window's constant-time frame indexing (release builds would loop
  // forever copying zero instants per round). The second frame's start
  // is not a multiple of the capacity and must be rejected.
  TraceSpec Spec;
  Spec.ProcName = "P";
  Spec.FrameInstants = 8;
  Spec.Clocks.push_back("C");
  std::vector<uint8_t> Bytes = encodeTraceHeader(Spec);
  TraceFrame F;
  F.shape(Spec);
  F.Count = 5;
  F.Start = 0;
  encodeTraceFrame(Spec, F, Bytes);
  F.Start = 5;
  encodeTraceFrame(Spec, F, Bytes);
  encodeTraceTrailer(10, Bytes);

  TraceError E = expectFrameError(Bytes, TraceErrorKind::Malformed);
  EXPECT_NE(E.Message.find("final frame"), std::string::npos) << E.Message;
  EXPECT_NE(E.Message.find("instant 5"), std::string::npos) << E.Message;
}

TEST(TraceCorruption, NonContiguousFrameStartIsMalformed) {
  auto C = compileMixed();
  Recording R = record(*C, 16, 8, 8);
  size_t H = headerLen(R.Bytes);
  // Shift the first frame's start instant: contiguity breaks (and the
  // checksum stays valid, since only the header changed).
  R.Bytes[H + 4] = 3;
  TraceError E = expectFrameError(R.Bytes, TraceErrorKind::Malformed);
  EXPECT_NE(E.Message.find("instant"), std::string::npos) << E.Message;
}

TEST(TraceReplay, DivergenceNamesInstantSignalAndBothValuesByDeclaredType) {
  // X is declared real and carries the integers of I + 1. Replaying the
  // recording against I + 2 diverges at X's first occurrence, and the
  // diagnostic renders both values by X's declared type, in one 16-instant
  // window and one instant at a time alike.
  auto Rec = compileOk(proc("? integer I; ! real X;", "   X := I + 1"));
  auto Other = compileOk(proc("? integer I; ! real X;", "   X := I + 2"));
  Recording R = record(*Rec, 16, 8, 8);
  ASSERT_FALSE(R.Events.empty());
  const OutputEvent &First = R.Events.front();
  const std::string Want =
      "instant " + std::to_string(First.Instant) + ": output X = " +
      Value::makeReal(First.Val.Real + 1).str() + ", trace recorded " +
      Value::makeReal(First.Val.Real).str();
  EXPECT_NE(Want.find(".000000, trace recorded "), std::string::npos) << Want;

  for (unsigned Window : {16u, 1u}) {
    TraceInput In(R.Bytes);
    TraceDecoder Dec(&Other->Compiled);
    ASSERT_TRUE(In.readHeader(Dec)) << Dec.error().str();
    StreamEnvironment Env(Dec.spec());
    Env.setVerifyOutputs(true);
    VmExecutor Vm(Other->Compiled);
    ASSERT_EQ(replayTrace(In, Dec, Env, Vm, Window), 16u)
        << Dec.error().str();
    EXPECT_EQ(Env.divergence(), Want) << "window " << Window;
  }
}
