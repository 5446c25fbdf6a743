//===--- serve_test.cpp - signalc --serve session front end ---------------===//
///
/// End-to-end tests of the trace-stream server: a bounded `signalc
/// --serve` subprocess on a Unix domain socket, driven by real clients.
///
///   * two concurrent sessions receive correct, independent outputs-only
///     response streams, and the per-session counters the server prints
///     equal the scalar VM run on the same stimulus,
///   * a client disconnecting mid-frame tears its session down as
///     "disconnected" while a full session on the same server completes
///     cleanly,
///   * a stimulus recorded against a different interface is rejected as
///     an interface mismatch, not executed,
///   * every corrupt stream ends with the positioned diagnostic
///     `--replay` prints for the same bytes, beside a clean session.
///
/// Requests are built in-process with TraceWriter against the same
/// compiled interface the server loads (--builtin FIG5_ALARM).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/VmExecutor.h"
#include "io/TraceEnvironment.h"
#include "io/TraceFormat.h"
#include "io/TraceWriter.h"
#include "programs/Programs.h"
#include "native/NativeCache.h"
#include "native/StepHash.h"
#include "testing/Oracle.h"
#include "testing/RandomProgram.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <tuple>

using namespace sigc;
using namespace sigc::test;

namespace {

//===----------------------------------------------------------------------===//
// Server subprocess management
//===----------------------------------------------------------------------===//

struct ScopedServer {
  pid_t Pid = -1;
  std::string Sock, LogPath;

  /// Spawns `signalc <Program>... --serve SOCK <Extra>...` with stderr
  /// captured to a log file. \p Program defaults to the FIG5 alarm
  /// builtin; pass e.g. {"/path/prog.sig"} to serve a file.
  void spawnArgs(const std::vector<std::string> &Extra,
                 const std::vector<std::string> &Program = {"--builtin",
                                                           "FIG5_ALARM"}) {
    static int Counter = 0;
    std::string Base = ::testing::TempDir() + "sigc_serve_" +
                       std::to_string(::getpid()) + "_" +
                       std::to_string(Counter++);
    Sock = Base + ".sock";
    LogPath = Base + ".log";
    ::unlink(Sock.c_str());
    std::vector<std::string> Args;
    Args.push_back(SIGNALC_BIN);
    Args.insert(Args.end(), Program.begin(), Program.end());
    Args.push_back("--serve");
    Args.push_back(Sock);
    Args.insert(Args.end(), Extra.begin(), Extra.end());
    Pid = ::fork();
    ASSERT_NE(Pid, -1);
    if (Pid == 0) {
      int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (Log >= 0) {
        ::dup2(Log, 1);
        ::dup2(Log, 2);
        ::close(Log);
      }
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      ::execv(SIGNALC_BIN, Argv.data());
      _exit(127);
    }
  }

  void spawn(unsigned MaxSessions, unsigned Limit, unsigned Batch = 0) {
    std::vector<std::string> Extra = {"--max-sessions",
                                      std::to_string(MaxSessions),
                                      "--serve-limit", std::to_string(Limit)};
    if (Batch) {
      Extra.push_back("--batch");
      Extra.push_back(std::to_string(Batch));
    }
    spawnArgs(Extra);
  }

  /// Waits for the bounded server to exit and returns its exit code.
  int wait() {
    int St = 0;
    ::waitpid(Pid, &St, 0);
    Pid = -1;
    return WIFEXITED(St) ? WEXITSTATUS(St) : -1;
  }

  std::string log() const {
    std::ifstream In(LogPath);
    std::ostringstream SS;
    SS << In.rdbuf();
    return SS.str();
  }

  /// Polls the log until \p Needle has appeared \p Times times (the
  /// cross-process rendezvous: e.g. "the session was parked").
  bool waitForLog(const std::string &Needle, unsigned Times = 1) const {
    for (int Try = 0; Try < 3000; ++Try) {
      std::string L = log();
      size_t Seen = 0, At = 0;
      while ((At = L.find(Needle, At)) != std::string::npos) {
        ++Seen;
        At += Needle.size();
      }
      if (Seen >= Times)
        return true;
      ::usleep(10 * 1000);
    }
    return false;
  }

  ~ScopedServer() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    if (!Sock.empty())
      ::unlink(Sock.c_str());
    if (!LogPath.empty())
      ::unlink(LogPath.c_str());
  }
};

/// Connects to \p Sock, retrying while the server is still starting.
int connectClient(const std::string &Sock) {
  for (int Try = 0; Try < 1000; ++Try) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Sock.c_str(), sizeof(Addr.sun_path) - 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0) {
      // A stuck server must fail the test, not hang it.
      timeval TV{30, 0};
      ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
      return Fd;
    }
    ::close(Fd);
    ::usleep(10 * 1000);
  }
  return -1;
}

bool sendAll(int Fd, const uint8_t *Data, size_t Len) {
  size_t At = 0;
  while (At < Len) {
    ssize_t N = ::send(Fd, Data + At, Len - At, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    At += static_cast<size_t>(N);
  }
  return true;
}

/// Reads until the server closes the connection.
std::vector<uint8_t> recvAll(int Fd) {
  std::vector<uint8_t> Out;
  uint8_t Buf[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof Buf, 0);
    if (N > 0) {
      Out.insert(Out.end(), Buf, Buf + N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    break; // EOF, timeout, or reset after teardown: caller validates.
  }
  return Out;
}

/// Reads exactly \p Len bytes (fails the test on EOF/timeout short of it).
std::vector<uint8_t> recvExactly(int Fd, size_t Len) {
  std::vector<uint8_t> Out;
  uint8_t Buf[4096];
  while (Out.size() < Len) {
    size_t Want = std::min(sizeof Buf, Len - Out.size());
    ssize_t N = ::recv(Fd, Buf, Want, 0);
    if (N > 0) {
      Out.insert(Out.end(), Buf, Buf + N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    ADD_FAILURE() << "connection ended after " << Out.size() << " of " << Len
                  << " bytes";
    break;
  }
  return Out;
}

/// Splits the fixed-size Hello control frame off the front of a session
/// response, returning the resume token through \p Token. The remainder
/// is the response trace stream itself.
std::vector<uint8_t> stripHello(const std::vector<uint8_t> &Resp,
                                uint64_t &Token) {
  if (Resp.size() < ServeHelloBytes) {
    ADD_FAILURE() << "response shorter than a Hello: " << Resp.size();
    return {};
  }
  ServeCtrl C;
  size_t Consumed = 0;
  TraceError Err;
  TraceFrameStatus St = decodeServeCtrl(Resp.data(), Resp.size(), 0, C,
                                        Consumed, Err);
  EXPECT_EQ(static_cast<int>(St), static_cast<int>(TraceFrameStatus::Frame))
      << Err.str();
  EXPECT_EQ(static_cast<int>(C.Type),
            static_cast<int>(ServeCtrlType::Hello));
  EXPECT_EQ(Consumed, static_cast<size_t>(ServeHelloBytes));
  Token = C.Token;
  return {Resp.begin() + ServeHelloBytes, Resp.end()};
}

std::vector<uint8_t> stripHello(const std::vector<uint8_t> &Resp) {
  uint64_t Token = 0;
  return stripHello(Resp, Token);
}

/// Decodes a response that must be a single typed Reject frame.
ServeCtrl decodeReject(const std::vector<uint8_t> &Resp) {
  ServeCtrl C;
  size_t Consumed = 0;
  TraceError Err;
  TraceFrameStatus St = decodeServeCtrl(Resp.data(), Resp.size(), 0, C,
                                        Consumed, Err);
  EXPECT_EQ(static_cast<int>(St), static_cast<int>(TraceFrameStatus::Frame))
      << Err.str();
  EXPECT_EQ(static_cast<int>(C.Type),
            static_cast<int>(ServeCtrlType::Reject));
  EXPECT_EQ(Consumed, Resp.size()) << "trailing bytes after the reject";
  return C;
}

/// The Resume preamble a reconnecting client sends.
std::vector<uint8_t> encodeResume(uint64_t Token, uint64_t Hash,
                                  unsigned Instant) {
  ServeCtrl C;
  C.Type = ServeCtrlType::Resume;
  C.Token = Token;
  C.InterfaceHash = Hash;
  C.ResumeInstant = Instant;
  std::vector<uint8_t> Out;
  encodeServeCtrl(C, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Stimulus construction and response decoding
//===----------------------------------------------------------------------===//

struct Stimulus {
  std::vector<uint8_t> Bytes;
  std::vector<OutputEvent> Events; ///< The live run's outputs.
  uint64_t GuardTests = 0, Executed = 0;
};

/// Records \p Instants instants of \p C under seed \p Seed into a
/// request trace (frame capacity 8), remembering the live outputs and
/// the scalar VM counters the server must reproduce lane-for-lane.
Stimulus recordStimulus(const Compilation &C, unsigned Instants,
                        uint64_t Seed, const std::string &ProcName = "ALARM") {
  Stimulus St;
  MemorySink Sink;
  TraceWriter W(Sink, TraceSpec::fromStep(C.Compiled, ProcName, 8));
  RandomEnvironment Rnd(Seed);
  RecordingEnvironment Rec(Rnd, W);
  VmExecutor Vm(C.Compiled);
  Vm.runBatched(Rec, Instants, 8);
  EXPECT_TRUE(W.finish(Instants));
  St.Bytes = Sink.takeBytes();
  St.Events = Rnd.outputs();
  St.GuardTests = Vm.guardTests();
  St.Executed = Vm.executed();
  return St;
}

/// The exact response stream an uninterrupted session must produce for
/// \p St: the stimulus replayed through the scalar VM with an
/// outputs-only echo writer — an in-process oracle the server's bytes
/// (Hello stripped) are compared against byte for byte.
std::vector<uint8_t> expectedResponse(const Compilation &C,
                                      const Stimulus &St) {
  TraceInput In(St.Bytes);
  TraceDecoder Dec;
  EXPECT_TRUE(In.readHeader(Dec)) << Dec.error().str();
  StreamEnvironment Env(Dec.spec());
  MemorySink Sink;
  TraceWriter Echo(Sink, Dec.spec().outputsOnly());
  Env.setEcho(&Echo);
  VmExecutor Vm(C.Compiled);
  unsigned At = replayTrace(In, Dec, Env, Vm, Dec.spec().FrameInstants);
  EXPECT_TRUE(Dec.finished()) << Dec.error().str();
  EXPECT_TRUE(Echo.finish(At));
  return Sink.takeBytes();
}

uint32_t readU32(const std::vector<uint8_t> &B, size_t At) {
  return static_cast<uint32_t>(B[At]) |
         static_cast<uint32_t>(B[At + 1]) << 8 |
         static_cast<uint32_t>(B[At + 2]) << 16 |
         static_cast<uint32_t>(B[At + 3]) << 24;
}

/// Length of the prefix of a (Hello-less) trace stream that covers its
/// header plus every frame ending at or before instant \p K — i.e. the
/// bytes a client has seen once the server flushed outputs through K.
size_t prefixLenThrough(const std::vector<uint8_t> &Stream, unsigned K) {
  TraceSpec Spec;
  size_t HeaderLen = 0;
  TraceError Err;
  EXPECT_TRUE(parseTraceHeader(Stream.data(), Stream.size(), Spec, HeaderLen,
                               Err))
      << Err.str();
  size_t At = HeaderLen;
  while (At + TraceFrameHeaderBytes <= Stream.size()) {
    uint32_t PayloadLen = readU32(Stream, At);
    uint32_t Start = readU32(Stream, At + 4);
    uint32_t Count = Stream[At + 8] | Stream[At + 9] << 8;
    if (Count == 0 || Start + Count > K)
      break; // Trailer, or a frame past K.
    At += TraceFrameHeaderBytes + PayloadLen;
  }
  return At;
}

/// Decodes an outputs-only response stream into output events.
std::vector<OutputEvent> parseResponse(const std::vector<uint8_t> &Bytes) {
  std::vector<OutputEvent> Events;
  TraceInput In(Bytes);
  TraceDecoder Dec;
  EXPECT_TRUE(In.readHeader(Dec)) << Dec.error().str();
  if (!Dec.error().ok())
    return Events;
  const TraceSpec &Spec = Dec.spec();
  EXPECT_TRUE(Spec.Clocks.empty()) << "response must be outputs-only";
  EXPECT_TRUE(Spec.Inputs.empty()) << "response must be outputs-only";
  TraceFrame F;
  for (;;) {
    TraceFrameStatus StFr = In.next(Dec, F);
    if (StFr == TraceFrameStatus::End)
      break;
    EXPECT_EQ(static_cast<int>(StFr),
              static_cast<int>(TraceFrameStatus::Frame))
        << Dec.error().str();
    if (StFr != TraceFrameStatus::Frame)
      break;
    for (unsigned I = 0; I < F.Count; ++I)
      for (size_t O = 0; O < Spec.Outputs.size(); ++O)
        if (F.OutPresent[O * F.Cap + I])
          Events.push_back({F.Start + I, Spec.Outputs[O].Name,
                            fromSlot(F.OutVals[O * F.Cap + I],
                                     Spec.Outputs[O].Type)});
  }
  return Events;
}

/// Canonical order for comparing event lists that may interleave
/// same-instant outputs differently (emission order vs descriptor order).
std::vector<OutputEvent> sorted(std::vector<OutputEvent> E) {
  std::sort(E.begin(), E.end(), [](const OutputEvent &A,
                                   const OutputEvent &B) {
    return std::make_tuple(A.Instant, A.Signal, A.Val.str()) <
           std::make_tuple(B.Instant, B.Signal, B.Val.str());
  });
  return E;
}

struct SessionStats {
  unsigned Instants = 0;
  unsigned long long Outputs = 0, GuardTests = 0, Executed = 0;
  std::string How;
};

/// Parses every per-session teardown line out of the server's log.
std::vector<SessionStats> parseSessionLines(const std::string &Log) {
  std::vector<SessionStats> Out;
  std::istringstream In(Log);
  std::string Line;
  while (std::getline(In, Line)) {
    SessionStats S;
    unsigned Id = 0;
    if (std::sscanf(Line.c_str(),
                    "session %u: instants=%u outputs=%llu guard_tests=%llu "
                    "executed=%llu",
                    &Id, &S.Instants, &S.Outputs, &S.GuardTests,
                    &S.Executed) != 5)
      continue;
    // First '(' to last ')': teardown kinds may nest parens, e.g.
    // "(stalled (idle timeout))"; the counters never contain one.
    size_t L = Line.find('('), R = Line.rfind(')');
    if (L != std::string::npos && R != std::string::npos && R > L)
      S.How = Line.substr(L + 1, R - L - 1);
    Out.push_back(S);
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Tests
//===----------------------------------------------------------------------===//

TEST(Serve, TwoConcurrentSessionsGetIndependentCorrectResponses) {
  auto C = compileOk(alarmFigure5Source());
  // 320 instants at the default 64-instant serve batch: each session
  // needs several round-robin scheduler passes, so the two lanes
  // genuinely interleave at different instants.
  Stimulus A = recordStimulus(*C, 320, 21);
  Stimulus B = recordStimulus(*C, 320, 22);
  ASSERT_NE(A.Bytes, B.Bytes);

  ScopedServer Server;
  Server.spawn(/*MaxSessions=*/2, /*Limit=*/2);
  ASSERT_GT(Server.Pid, 0);

  std::vector<uint8_t> RespA, RespB;
  std::thread TA([&] {
    int Fd = connectClient(Server.Sock);
    ASSERT_GE(Fd, 0);
    ASSERT_TRUE(sendAll(Fd, A.Bytes.data(), A.Bytes.size()));
    RespA = recvAll(Fd);
    ::close(Fd);
  });
  std::thread TB([&] {
    int Fd = connectClient(Server.Sock);
    ASSERT_GE(Fd, 0);
    ASSERT_TRUE(sendAll(Fd, B.Bytes.data(), B.Bytes.size()));
    RespB = recvAll(Fd);
    ::close(Fd);
  });
  TA.join();
  TB.join();
  EXPECT_EQ(Server.wait(), 0);

  // Each client got exactly its own session's outputs, behind its own
  // Hello (distinct resume tokens).
  uint64_t TokA = 0, TokB = 0;
  EXPECT_EQ(sorted(parseResponse(stripHello(RespA, TokA))), sorted(A.Events));
  EXPECT_EQ(sorted(parseResponse(stripHello(RespB, TokB))), sorted(B.Events));
  EXPECT_NE(TokA, TokB);

  // The per-session counters the server prints are the scalar VM's
  // numbers for the same stimulus — lane execution is counter-faithful.
  std::string Log = Server.log();
  std::vector<SessionStats> Stats = parseSessionLines(Log);
  ASSERT_EQ(Stats.size(), 2u) << Log;
  unsigned long long Outputs = 0, Guards = 0, Executed = 0;
  for (const SessionStats &S : Stats) {
    EXPECT_EQ(S.How, "clean") << Log;
    EXPECT_EQ(S.Instants, 320u) << Log;
    Outputs += S.Outputs;
    Guards += S.GuardTests;
    Executed += S.Executed;
  }
  EXPECT_EQ(Outputs, A.Events.size() + B.Events.size()) << Log;
  EXPECT_EQ(Guards, A.GuardTests + B.GuardTests) << Log;
  EXPECT_EQ(Executed, A.Executed + B.Executed) << Log;
  EXPECT_NE(Log.find("served 2 session(s)"), std::string::npos) << Log;
}

TEST(Serve, MidFrameDisconnectTearsDownWithoutDisturbingOthers) {
  auto C = compileOk(alarmFigure5Source());
  Stimulus Full = recordStimulus(*C, 160, 33);

  // A prefix ending inside the first frame's payload.
  TraceSpec Spec;
  size_t HeaderLen = 0;
  TraceError Err;
  ASSERT_TRUE(parseTraceHeader(Full.Bytes.data(), Full.Bytes.size(), Spec,
                               HeaderLen, Err))
      << Err.str();
  size_t CutLen = HeaderLen + TraceFrameHeaderBytes + 3;
  ASSERT_LT(CutLen, Full.Bytes.size());

  ScopedServer Server;
  Server.spawn(/*MaxSessions=*/2, /*Limit=*/2);
  ASSERT_GT(Server.Pid, 0);

  // Session 1: header plus a partial frame, then a hard close.
  int FdA = connectClient(Server.Sock);
  ASSERT_GE(FdA, 0);
  ASSERT_TRUE(sendAll(FdA, Full.Bytes.data(), CutLen));
  ::close(FdA);

  // Session 2: a complete trace on the same server must be unaffected.
  int FdB = connectClient(Server.Sock);
  ASSERT_GE(FdB, 0);
  ASSERT_TRUE(sendAll(FdB, Full.Bytes.data(), Full.Bytes.size()));
  std::vector<uint8_t> Resp = recvAll(FdB);
  ::close(FdB);

  EXPECT_EQ(Server.wait(), 0);
  EXPECT_EQ(sorted(parseResponse(stripHello(Resp))), sorted(Full.Events));

  std::string Log = Server.log();
  EXPECT_NE(Log.find("(disconnected)"), std::string::npos) << Log;
  EXPECT_NE(Log.find("(clean)"), std::string::npos) << Log;
  EXPECT_NE(Log.find("served 2 session(s)"), std::string::npos) << Log;
}

TEST(Serve, HalfClosedClientUnderInboundFlowControlCompletesCleanly) {
  // The whole stimulus — trailer included — is sent and the write side
  // shut down before the server executes anything. Two regressions in
  // one: (1) an EOF with a complete session still buffered must not be
  // torn down as a disconnect, and (2) a 1-instant batch caps the
  // resident inbound window far below the 200-instant stream, so the
  // server must repeatedly pause parsing (inbound flow control) and
  // resume as execution catches up, instead of decoding everything
  // up front.
  auto C = compileOk(alarmFigure5Source());
  Stimulus St = recordStimulus(*C, 200, 44);

  ScopedServer Server;
  Server.spawn(/*MaxSessions=*/1, /*Limit=*/1, /*Batch=*/1);
  ASSERT_GT(Server.Pid, 0);

  int Fd = connectClient(Server.Sock);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, St.Bytes.data(), St.Bytes.size()));
  ASSERT_EQ(::shutdown(Fd, SHUT_WR), 0);
  std::vector<uint8_t> Resp = recvAll(Fd);
  ::close(Fd);

  EXPECT_EQ(Server.wait(), 0);
  EXPECT_EQ(sorted(parseResponse(stripHello(Resp))), sorted(St.Events));

  std::string Log = Server.log();
  std::vector<SessionStats> Stats = parseSessionLines(Log);
  ASSERT_EQ(Stats.size(), 1u) << Log;
  EXPECT_EQ(Stats[0].How, "clean") << Log;
  EXPECT_EQ(Stats[0].Instants, 200u) << Log;
  EXPECT_EQ(Stats[0].Outputs, St.Events.size()) << Log;
}

TEST(Serve, WrongInterfaceIsRejectedNotExecuted) {
  // A stimulus recorded against a different process interface.
  auto Other = compileOk(proc("? integer A; ! integer Y;", "   Y := A + 1"));
  Stimulus Wrong = recordStimulus(*Other, 20, 5);

  ScopedServer Server;
  Server.spawn(/*MaxSessions=*/1, /*Limit=*/1);
  ASSERT_GT(Server.Pid, 0);

  int Fd = connectClient(Server.Sock);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, Wrong.Bytes.data(), Wrong.Bytes.size()));
  std::vector<uint8_t> Resp = recvAll(Fd);
  ::close(Fd);

  EXPECT_EQ(Server.wait(), 0);
  // The refusal is a typed control frame, not a silent close: the client
  // can tell an interface mismatch from a capacity reject.
  ServeCtrl Reject = decodeReject(Resp);
  EXPECT_EQ(static_cast<int>(Reject.Reason),
            static_cast<int>(ServeRejectReason::InterfaceMismatch));
  EXPECT_NE(Reject.Message.find("does not match the served process"),
            std::string::npos)
      << Reject.Message;

  std::string Log = Server.log();
  EXPECT_NE(Log.find("does not match the served process"), std::string::npos)
      << Log;
  EXPECT_NE(Log.find("(interface mismatch)"), std::string::npos) << Log;
}

//===----------------------------------------------------------------------===//
// Corrupt streams: the decoder's diagnostics, served
//===----------------------------------------------------------------------===//

namespace {

/// The positioned diagnostic `signalc --replay` prints for \p Bytes
/// against FIG5_ALARM (its "signalc: FILE: " prefix removed); empty when
/// the replay succeeds.
std::string replayDiagnostic(const std::vector<uint8_t> &Bytes,
                             const std::string &Path) {
  {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
  }
  std::string Cmd = std::string(SIGNALC_BIN) +
                    " --builtin FIG5_ALARM --replay " + Path + " 2>&1";
  FILE *P = ::popen(Cmd.c_str(), "r");
  std::string Output;
  char Buf[4096];
  size_t N;
  while (P && (N = std::fread(Buf, 1, sizeof Buf, P)) > 0)
    Output.append(Buf, N);
  if (P)
    ::pclose(P);
  ::unlink(Path.c_str());
  std::string Prefix = "signalc: " + Path + ": ";
  size_t At = Output.find(Prefix);
  if (At == std::string::npos)
    return "";
  At += Prefix.size();
  return Output.substr(At, Output.find('\n', At) - At);
}

} // namespace

TEST(ServeCorruption, CorruptStreamsEndWithTheReplayDiagnostic) {
  // Each corrupt stream the TraceCorruption suite builds, plus the
  // decoder's own contiguity and trailer checks, sent to a live server
  // next to a clean session. Each ends with exactly the positioned
  // diagnostic `--replay` prints for the same bytes: a damaged header as
  // a typed interface-mismatch Reject carrying it, a stream that ends
  // before its trailer as a disconnect (that is what a lost client looks
  // like, and it stays resumable), everything else as a protocol error.
  // The clean session's response stays byte-identical.
  auto C = compileOk(alarmFigure5Source());
  Stimulus Clean = recordStimulus(*C, 320, 61);
  const std::vector<uint8_t> CleanRef = expectedResponse(*C, Clean);
  const std::vector<uint8_t> Base = recordStimulus(*C, 16, 62).Bytes;
  TraceSpec Spec;
  size_t H = 0;
  TraceError Err;
  ASSERT_TRUE(parseTraceHeader(Base.data(), Base.size(), Spec, H, Err))
      << Err.str();
  const size_t H2 = H + TraceFrameHeaderBytes + readU32(Base, H);
  const size_t Trailer = Base.size() - TraceFrameHeaderBytes;

  struct Case {
    const char *Name;
    const char *How; ///< Expected teardown kind.
    std::vector<uint8_t> Bytes;
  };
  std::vector<Case> Cases;
  auto Damage = [&](const char *Name, const char *How, auto Fn) {
    std::vector<uint8_t> B = Base;
    Fn(B);
    Cases.push_back({Name, How, std::move(B)});
  };
  Damage("bad magic", "protocol error", [](auto &B) { B[0] ^= 0xFF; });
  Damage("bad version", "protocol error", [](auto &B) { B[4] = 0x63; });
  Damage("byteswapped endian mark", "protocol error",
         [](auto &B) { std::swap(B[6], B[7]); });
  Damage("damaged header", "interface mismatch",
         [](auto &B) { B[12] ^= 0x01; });
  Damage("oversized frame length", "protocol error", [&](auto &B) {
    B[H] = B[H + 1] = B[H + 2] = 0xFF;
    B[H + 3] = 0x7F;
  });
  Damage("flipped payload byte", "protocol error",
         [&](auto &B) { B[H + TraceFrameHeaderBytes] ^= 0x40; });
  Damage("overcounted instants", "protocol error",
         [&](auto &B) { B[H + 8] = 9; });
  Damage("unaligned frame start", "protocol error",
         [&](auto &B) { B[H + 4] = 3; });
  Damage("skipped frame", "protocol error",
         [&](auto &B) { B[H2 + 4] = 16; });
  Damage("trailer miscount", "protocol error",
         [&](auto &B) { B[Trailer + 4] = 24; });
  Damage("missing trailer", "disconnected",
         [&](auto &B) { B.resize(Trailer); });
  {
    // Two self-consistent 5-instant frames in a capacity-8 stream.
    std::vector<uint8_t> B = encodeTraceHeader(Spec);
    TraceFrame F;
    F.shape(Spec);
    F.Count = 5;
    encodeTraceFrame(Spec, F, B);
    F.Start = 5;
    encodeTraceFrame(Spec, F, B);
    encodeTraceTrailer(10, B);
    Cases.push_back({"mid-stream partial frame", "protocol error", B});
  }

  std::vector<std::string> Want;
  for (const Case &K : Cases) {
    Want.push_back(replayDiagnostic(
        K.Bytes, ::testing::TempDir() + "sigc_corrupt_" +
                     std::to_string(::getpid()) + ".sgtr"));
    EXPECT_NE(Want.back().find("offset "), std::string::npos)
        << K.Name << ": replay printed no positioned diagnostic";
  }

  const unsigned Sessions = static_cast<unsigned>(Cases.size()) + 1;
  ScopedServer Server;
  Server.spawn(Sessions, Sessions);
  ASSERT_GT(Server.Pid, 0);
  std::vector<std::vector<uint8_t>> Resp(Sessions);
  std::vector<std::thread> Clients;
  for (unsigned I = 0; I < Sessions; ++I)
    Clients.emplace_back([&, I] {
      const std::vector<uint8_t> &B =
          I < Cases.size() ? Cases[I].Bytes : Clean.Bytes;
      int Fd = connectClient(Server.Sock);
      ASSERT_GE(Fd, 0);
      // A refused stream may be closed on mid-send; only the response
      // and the log are checked.
      sendAll(Fd, B.data(), B.size());
      ::shutdown(Fd, SHUT_WR);
      Resp[I] = recvAll(Fd);
      ::close(Fd);
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Server.wait(), 0);
  EXPECT_EQ(stripHello(Resp.back()), CleanRef);

  std::string Log = Server.log();
  EXPECT_NE(Log.find("served " + std::to_string(Sessions) + " session(s)"),
            std::string::npos)
      << Log;
  for (size_t I = 0; I < Cases.size(); ++I) {
    SCOPED_TRACE(Cases[I].Name);
    // "session N: <diagnostic>", then N's teardown line.
    size_t At = Log.find(": " + Want[I] + "\n");
    ASSERT_NE(At, std::string::npos) << Want[I] << "\n" << Log;
    unsigned Id = 0;
    ASSERT_EQ(std::sscanf(Log.c_str() + Log.rfind('\n', At) + 1,
                          "session %u:", &Id),
              1);
    size_t Line = Log.find("session " + std::to_string(Id) + ": instants=");
    ASSERT_NE(Line, std::string::npos) << Log;
    std::string Teardown = Log.substr(Line, Log.find('\n', Line) - Line);
    EXPECT_NE(Teardown.find(std::string("(") + Cases[I].How + ")"),
              std::string::npos)
        << Teardown;
    if (std::string(Cases[I].How) == "interface mismatch") {
      ServeCtrl Reject = decodeReject(Resp[I]);
      EXPECT_EQ(static_cast<int>(Reject.Reason),
                static_cast<int>(ServeRejectReason::InterfaceMismatch));
      EXPECT_EQ(Reject.Message, Want[I]);
    }
  }
}

//===----------------------------------------------------------------------===//
// Fault tolerance: kill-and-resume byte identity
//===----------------------------------------------------------------------===//

namespace {

enum class KillMode {
  Close, ///< The client hard-closes the connection.
  Stall, ///< The client goes silent; the idle deadline tears it down.
};

/// The kill-and-resume oracle. Runs a session against its own bounded
/// server, kills the connection once outputs through frame boundary
/// \p K have arrived (the server has then provably executed exactly K
/// instants), reconnects with Resume(token, hash, K), streams the rest
/// of the stimulus, and demands the two connections' response bytes —
/// Hellos stripped — concatenate to the uninterrupted run's exact
/// bytes. Nothing is replayed: the resumed connection starts at K from
/// a lane-state checkpoint.
void checkKillResume(const Compilation &C, const std::string &ProcName,
                     const std::vector<std::string> &Program,
                     unsigned Instants, uint64_t Seed, unsigned K,
                     KillMode Mode = KillMode::Close,
                     const std::vector<std::string> &ExtraArgs = {}) {
  SCOPED_TRACE("kill at instant " + std::to_string(K));
  Stimulus St = recordStimulus(C, Instants, Seed, ProcName);
  std::vector<uint8_t> Ref = expectedResponse(C, St);
  uint64_t Hash = traceSpecHash(TraceSpec::fromStep(C.Compiled, ProcName, 8));
  size_t StimCut = prefixLenThrough(St.Bytes, K);
  size_t RespCut = prefixLenThrough(Ref, K);

  ScopedServer Server;
  std::vector<std::string> Extra = {"--max-sessions", "1", "--resume", "2",
                                    "--serve-limit", "2"};
  if (Mode == KillMode::Stall) {
    Extra.push_back("--idle-timeout");
    Extra.push_back("100");
  }
  Extra.insert(Extra.end(), ExtraArgs.begin(), ExtraArgs.end());
  Server.spawnArgs(Extra, Program);
  ASSERT_GT(Server.Pid, 0);

  // Connection 1: stimulus through K only. Reading the outputs through K
  // guarantees the server's execution frontier is exactly K before the
  // kill — output frames flush only after their batch executed.
  int Fd1 = connectClient(Server.Sock);
  ASSERT_GE(Fd1, 0);
  ASSERT_TRUE(sendAll(Fd1, St.Bytes.data(), StimCut));
  std::vector<uint8_t> Resp1 = recvExactly(Fd1, ServeHelloBytes + RespCut);
  if (Mode == KillMode::Close)
    ::close(Fd1);
  // Otherwise: stay connected but silent; the idle deadline kills us.
  ASSERT_TRUE(Server.waitForLog("parked at instant " + std::to_string(K)))
      << Server.log();
  if (Mode == KillMode::Stall)
    ::close(Fd1);
  uint64_t Token = 0;
  std::vector<uint8_t> Part1 = stripHello(Resp1, Token);

  // Connection 2: Resume preamble, the original header again, then the
  // stimulus from frame K on.
  int Fd2 = connectClient(Server.Sock);
  ASSERT_GE(Fd2, 0);
  std::vector<uint8_t> Req = encodeResume(Token, Hash, K);
  TraceSpec Spec;
  size_t HeaderLen = 0;
  TraceError Err;
  ASSERT_TRUE(parseTraceHeader(St.Bytes.data(), St.Bytes.size(), Spec,
                               HeaderLen, Err))
      << Err.str();
  Req.insert(Req.end(), St.Bytes.begin(), St.Bytes.begin() + HeaderLen);
  Req.insert(Req.end(), St.Bytes.begin() + StimCut, St.Bytes.end());
  ASSERT_TRUE(sendAll(Fd2, Req.data(), Req.size()));
  std::vector<uint8_t> Resp2 = recvAll(Fd2);
  ::close(Fd2);
  EXPECT_EQ(Server.wait(), 0) << Server.log();
  uint64_t Token2 = 0;
  std::vector<uint8_t> Part2 = stripHello(Resp2, Token2);
  EXPECT_EQ(Token2, Token) << "a resumed session keeps its token";

  // The pin: concatenated responses == the uninterrupted run, byte for
  // byte (header, every output frame, trailer).
  std::vector<uint8_t> Concat = Part1;
  Concat.insert(Concat.end(), Part2.begin(), Part2.end());
  EXPECT_EQ(Concat, Ref) << Server.log();

  // Per-connection work sums to the whole stream: nothing re-executed.
  std::vector<SessionStats> Stats = parseSessionLines(Server.log());
  ASSERT_EQ(Stats.size(), 2u) << Server.log();
  EXPECT_EQ(Stats[0].Instants, K) << Server.log();
  EXPECT_EQ(Stats[0].How, Mode == KillMode::Close
                              ? "disconnected"
                              : "stalled (idle timeout)")
      << Server.log();
  EXPECT_EQ(Stats[1].Instants, Instants - K) << Server.log();
  EXPECT_EQ(Stats[1].How, "clean") << Server.log();
}

/// Writes \p Source to a throwaway .sig file and returns its path.
std::string writeProgramFile(const std::string &Source) {
  static int Counter = 0;
  std::string Path = ::testing::TempDir() + "sigc_serve_prog_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(Counter++) + ".sig";
  std::ofstream Out(Path);
  Out << Source;
  return Path;
}

/// A process producing one dense 8-byte output per instant: response
/// volume scales with instants, which makes write-side backpressure
/// (small --sndbuf, unread client) reachable with short tests.
std::string denseOutputSource() {
  return proc("? integer A; ! integer Y;", "   Y := A + 1");
}

long residentRssBytes(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/statm");
  long Pages = 0, Resident = 0;
  In >> Pages >> Resident;
  return Resident * ::sysconf(_SC_PAGESIZE);
}

} // namespace

TEST(ServeResume, KillAndResumeAtEveryFrameBoundaryIsByteIdentical) {
  auto C = compileOk(alarmFigure5Source());
  // 80 instants, frame capacity 8: every boundary 0, 8, ..., 72 is a
  // kill-and-resume point, each against a fresh bounded server.
  for (unsigned K = 0; K < 80; K += 8)
    checkKillResume(*C, "ALARM", {"--builtin", "FIG5_ALARM"}, 80, 1234 + K,
                    K);
}

TEST(ServeResume, IdleStalledSessionParksAndResumesByteIdentical) {
  auto C = compileOk(alarmFigure5Source());
  // The deadline teardown path parks too: a client that goes silent past
  // --idle-timeout can still come back.
  checkKillResume(*C, "ALARM", {"--builtin", "FIG5_ALARM"}, 80, 77, 24,
                  KillMode::Stall);
}

TEST(ServeResume, RandomProgramSweepResumesByteIdentical) {
  // Same oracle over generated programs served from files: resume is a
  // property of the protocol and the checkpoint mechanism, not of one
  // hand-written builtin.
  for (uint64_t Seed : {101u, 202u}) {
    std::string Source = generateRandomProgram("RND", Seed);
    auto C = compileOk(Source);
    std::string File = writeProgramFile(Source);
    checkKillResume(*C, "RND", {File}, 48, Seed, 24);
    ::unlink(File.c_str());
  }
}

TEST(ServeResume, BadTokenHashAndInstantAreTypedRejects) {
  auto C = compileOk(alarmFigure5Source());
  Stimulus St = recordStimulus(*C, 80, 5);
  std::vector<uint8_t> Ref = expectedResponse(*C, St);
  uint64_t Hash = traceSpecHash(TraceSpec::fromStep(C->Compiled, "ALARM", 8));
  size_t StimCut = prefixLenThrough(St.Bytes, 8);
  size_t RespCut = prefixLenThrough(Ref, 8);

  ScopedServer Server;
  Server.spawnArgs({"--max-sessions", "1", "--resume", "2", "--serve-limit",
                    "4"});
  ASSERT_GT(Server.Pid, 0);

  // An unknown token is refused before any trace bytes are read.
  int FdA = connectClient(Server.Sock);
  ASSERT_GE(FdA, 0);
  std::vector<uint8_t> Bogus = encodeResume(999999, Hash, 8);
  ASSERT_TRUE(sendAll(FdA, Bogus.data(), Bogus.size()));
  ServeCtrl RejA = decodeReject(recvAll(FdA));
  ::close(FdA);
  EXPECT_EQ(static_cast<int>(RejA.Reason),
            static_cast<int>(ServeRejectReason::BadResume));
  EXPECT_NE(RejA.Message.find("unknown or expired session token"),
            std::string::npos)
      << RejA.Message;

  // Park a real session at instant 8.
  int FdB = connectClient(Server.Sock);
  ASSERT_GE(FdB, 0);
  ASSERT_TRUE(sendAll(FdB, St.Bytes.data(), StimCut));
  std::vector<uint8_t> RespB = recvExactly(FdB, ServeHelloBytes + RespCut);
  ::close(FdB);
  ASSERT_TRUE(Server.waitForLog("parked at instant 8")) << Server.log();
  uint64_t Token = 0;
  stripHello(RespB, Token);

  // Right token, wrong interface hash.
  int FdC = connectClient(Server.Sock);
  ASSERT_GE(FdC, 0);
  std::vector<uint8_t> WrongHash = encodeResume(Token, Hash ^ 1, 8);
  ASSERT_TRUE(sendAll(FdC, WrongHash.data(), WrongHash.size()));
  ServeCtrl RejC = decodeReject(recvAll(FdC));
  ::close(FdC);
  EXPECT_EQ(static_cast<int>(RejC.Reason),
            static_cast<int>(ServeRejectReason::InterfaceMismatch));

  // Right token and hash, but no checkpoint at a mid-frame instant.
  int FdD = connectClient(Server.Sock);
  ASSERT_GE(FdD, 0);
  std::vector<uint8_t> WrongAt = encodeResume(Token, Hash, 5);
  ASSERT_TRUE(sendAll(FdD, WrongAt.data(), WrongAt.size()));
  ServeCtrl RejD = decodeReject(recvAll(FdD));
  ::close(FdD);
  EXPECT_EQ(static_cast<int>(RejD.Reason),
            static_cast<int>(ServeRejectReason::BadResume));
  EXPECT_NE(RejD.Message.find("no checkpoint at instant 5"),
            std::string::npos)
      << RejD.Message;

  EXPECT_EQ(Server.wait(), 0) << Server.log();
}

namespace {

/// Serves \p St in one session to a server running \p Program, and
/// replays the same stimulus with `signalc <Program> --replay --stats`:
/// the session's teardown counters must be the replay's run counters.
void checkTeardownCountersMatchReplay(const std::vector<std::string> &Program,
                                      const Stimulus &St) {
  std::string Trace = ::testing::TempDir() + "sigc_serve_replay_" +
                      std::to_string(::getpid()) + ".sgtr";
  {
    std::ofstream Out(Trace, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(St.Bytes.data()),
              static_cast<std::streamsize>(St.Bytes.size()));
  }
  std::string Cmd = SIGNALC_BIN;
  for (const std::string &A : Program)
    Cmd += " " + A;
  Cmd += " --replay " + Trace + " --stats 2>&1";
  std::string Replay;
  FILE *P = ::popen(Cmd.c_str(), "r");
  ASSERT_NE(P, nullptr);
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof Buf, P)) > 0)
    Replay.append(Buf, N);
  EXPECT_EQ(::pclose(P), 0) << Replay;
  ::unlink(Trace.c_str());
  unsigned Instants = 0;
  unsigned long long Executed = 0, Guards = 0;
  size_t At = Replay.find("stats: mode=vm ");
  ASSERT_NE(At, std::string::npos) << Replay;
  ASSERT_EQ(std::sscanf(Replay.c_str() + At,
                        "stats: mode=vm instants=%u executed=%llu "
                        "guard_tests=%llu",
                        &Instants, &Executed, &Guards),
            3)
      << Replay;

  ScopedServer Server;
  Server.spawnArgs({"--max-sessions", "1", "--serve-limit", "1"}, Program);
  ASSERT_GT(Server.Pid, 0);
  int Fd = connectClient(Server.Sock);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, St.Bytes.data(), St.Bytes.size()));
  recvAll(Fd);
  ::close(Fd);
  EXPECT_EQ(Server.wait(), 0) << Server.log();
  std::vector<SessionStats> Stats = parseSessionLines(Server.log());
  ASSERT_EQ(Stats.size(), 1u) << Server.log();
  EXPECT_EQ(Stats[0].How, "clean") << Server.log();
  EXPECT_EQ(Stats[0].Instants, Instants) << Server.log();
  EXPECT_EQ(Stats[0].GuardTests, Guards) << Server.log() << Replay;
  EXPECT_EQ(Stats[0].Executed, Executed) << Server.log() << Replay;
}

} // namespace

TEST(Serve, TeardownCountersEqualReplayStats) {
  auto C = compileOk(alarmFigure5Source());
  checkTeardownCountersMatchReplay({"--builtin", "FIG5_ALARM"},
                                   recordStimulus(*C, 200, 41));
  std::string Source = generateRandomProgram("RND", 303);
  auto G = compileOk(Source);
  std::string File = writeProgramFile(Source);
  checkTeardownCountersMatchReplay({File}, recordStimulus(*G, 96, 303, "RND"));
  ::unlink(File.c_str());
}

namespace {

struct ServeCounters {
  unsigned long long Wakeups = 0, Batches = 0, Recvs = 0, Sends = 0,
                     BytesIn = 0, BytesOut = 0;
};

/// Parses the `serve:` counter line the server prints at exit; it must
/// directly follow the `served N session(s)` line.
bool parseServeCounters(const std::string &Log, ServeCounters &C) {
  size_t At = Log.find("served ");
  if (At == std::string::npos)
    return false;
  At = Log.find('\n', At);
  return At != std::string::npos &&
         std::sscanf(Log.c_str() + At + 1,
                     "serve: wakeups=%llu batches=%llu recvs=%llu "
                     "sends=%llu bytes_in=%llu bytes_out=%llu",
                     &C.Wakeups, &C.Batches, &C.Recvs, &C.Sends, &C.BytesIn,
                     &C.BytesOut) == 6;
}

/// Splits a trace stream at its header and frame boundaries (the
/// trailer is the last chunk).
std::vector<std::vector<uint8_t>> splitFrames(const std::vector<uint8_t> &S) {
  TraceSpec Spec;
  size_t At = 0;
  TraceError Err;
  EXPECT_TRUE(parseTraceHeader(S.data(), S.size(), Spec, At, Err))
      << Err.str();
  std::vector<std::vector<uint8_t>> Chunks = {{S.begin(), S.begin() + At}};
  while (At < S.size()) {
    size_t End = At + TraceFrameHeaderBytes + readU32(S, At);
    Chunks.emplace_back(S.begin() + At, S.begin() + End);
    At = End;
  }
  return Chunks;
}

} // namespace

TEST(Serve, LayerCountersAccountForBatchesAndBytes) {
  // --batch 8 over 80 instants in 8-instant frames: exactly ten stepN
  // calls, whatever the wakeups look like; every stimulus byte comes in
  // and the Hello plus the response trace go out.
  auto C = compileOk(alarmFigure5Source());
  Stimulus St = recordStimulus(*C, 80, 51);
  std::vector<uint8_t> Ref = expectedResponse(*C, St);

  ScopedServer Server;
  Server.spawn(/*MaxSessions=*/1, /*Limit=*/1, /*Batch=*/8);
  ASSERT_GT(Server.Pid, 0);
  int Fd = connectClient(Server.Sock);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, St.Bytes.data(), St.Bytes.size()));
  std::vector<uint8_t> Resp = recvAll(Fd);
  ::close(Fd);
  EXPECT_EQ(Server.wait(), 0) << Server.log();
  EXPECT_EQ(stripHello(Resp), Ref);

  ServeCounters Cnt;
  ASSERT_TRUE(parseServeCounters(Server.log(), Cnt)) << Server.log();
  EXPECT_EQ(Cnt.Batches, 10u) << Server.log();
  EXPECT_EQ(Cnt.BytesIn, St.Bytes.size()) << Server.log();
  EXPECT_EQ(Cnt.BytesOut, ServeHelloBytes + Ref.size()) << Server.log();
  EXPECT_EQ(Cnt.BytesOut, Resp.size()) << Server.log();
  EXPECT_GE(Cnt.Wakeups, 1u) << Server.log();
  EXPECT_GE(Cnt.Recvs, 1u) << Server.log();
  EXPECT_GE(Cnt.Sends, 1u) << Server.log();
}

TEST(Serve, ResponseDoesNotDependOnBatchSizeOrWakeupShape) {
  // The response is a function of the stimulus alone: the stepN size
  // (--batch 1, the default, 4096) and how the stimulus arrives (all at
  // once behind a half-close, or one frame per wakeup) change how many
  // passes and wakeups a session takes, never its bytes.
  auto Fig5 = compileOk(alarmFigure5Source());
  std::string Source = generateRandomProgram("RND", 404);
  auto Rnd = compileOk(Source);
  std::string File = writeProgramFile(Source);
  struct Case {
    const Compilation &C;
    std::vector<std::string> Program;
    Stimulus St;
  } Cases[] = {
      {*Fig5, {"--builtin", "FIG5_ALARM"}, recordStimulus(*Fig5, 300, 71)},
      {*Rnd, {File}, recordStimulus(*Rnd, 120, 404, "RND")},
  };
  for (const Case &K : Cases) {
    std::vector<uint8_t> Ref = expectedResponse(K.C, K.St);
    std::vector<std::vector<uint8_t>> Frames = splitFrames(K.St.Bytes);
    for (const char *Batch : {"1", "", "4096"}) {
      SCOPED_TRACE(K.Program.back() + " --batch " + Batch);
      std::vector<std::string> Args = {"--max-sessions", "1",
                                       "--serve-limit", "2"};
      if (*Batch)
        Args.insert(Args.end(), {"--batch", Batch});
      ScopedServer Server;
      Server.spawnArgs(Args, K.Program);
      ASSERT_GT(Server.Pid, 0);

      int Fd = connectClient(Server.Sock);
      ASSERT_GE(Fd, 0);
      ASSERT_TRUE(sendAll(Fd, K.St.Bytes.data(), K.St.Bytes.size()));
      ASSERT_EQ(::shutdown(Fd, SHUT_WR), 0);
      std::vector<uint8_t> AtOnce = recvAll(Fd);
      ::close(Fd);
      EXPECT_EQ(stripHello(AtOnce), Ref) << Server.log();

      Fd = connectClient(Server.Sock);
      ASSERT_GE(Fd, 0);
      for (const std::vector<uint8_t> &F : Frames) {
        ASSERT_TRUE(sendAll(Fd, F.data(), F.size()));
        ::usleep(1000);
      }
      std::vector<uint8_t> Trickled = recvAll(Fd);
      ::close(Fd);
      EXPECT_EQ(stripHello(Trickled), Ref) << Server.log();
      EXPECT_EQ(Server.wait(), 0) << Server.log();
    }
  }
  ::unlink(File.c_str());
}

//===----------------------------------------------------------------------===//
// Tiered native execution under --serve
//===----------------------------------------------------------------------===//

namespace {

/// A fresh tier cache directory, removed with contents.
struct ServeCacheDir {
  std::string Path;
  ServeCacheDir() {
    char Template[] = "/tmp/sigc-serve-cache-XXXXXX";
    Path = mkdtemp(Template);
  }
  ~ServeCacheDir() { std::system(("rm -rf " + Path).c_str()); }
};

} // namespace

TEST(ServeTier, ForceNativeKillResumeIsByteIdentical) {
  // The resume oracle with every lane running native from instant 0:
  // checkpoints are the delay state the native executor exports, so
  // parking and resuming must stay byte-exact.
  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  ServeCacheDir Cache;
  auto C = compileOk(alarmFigure5Source());
  for (unsigned K : {0u, 24u, 64u})
    checkKillResume(*C, "ALARM", {"--builtin", "FIG5_ALARM"}, 80, 900 + K, K,
                    KillMode::Close,
                    {"--native", "force", "--cache-dir", Cache.Path});
}

TEST(ServeTier, AutoWarmSwapMidStreamResumesByteIdentical) {
  // Warm cache + --tier-after 16: sessions start on the VM and every
  // lane hot-swaps to native at a batch boundary mid-stream. The kill
  // points straddle the swap (before at 8, after at 40); both must
  // resume byte-identically — the swap is invisible to the protocol.
  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  ServeCacheDir Cache;
  auto C = compileOk(alarmFigure5Source());
  std::string Err;
  ASSERT_NE(NativeCache(Cache.Path).compileAndPublish(
                C->Compiled, hashCompiledStep(C->Compiled), Err),
            nullptr)
      << Err;
  for (unsigned K : {8u, 40u})
    checkKillResume(*C, "ALARM", {"--builtin", "FIG5_ALARM"}, 80, 700 + K, K,
                    KillMode::Close,
                    {"--native", "auto", "--tier-after", "16", "--cache-dir",
                     Cache.Path});
}

TEST(ServeTier, AutoSwapIsLoggedAndResponseIsExact) {
  // One clean session across the swap: the response equals the VM-only
  // run byte for byte, the server logs the swap of every lane, and the tier
  // summary reports a warm cache hit (which also pins that the served
  // builtin hashes identically to the in-process compile).
  if (!hostCCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  ServeCacheDir Cache;
  auto C = compileOk(alarmFigure5Source());
  std::string Err;
  ASSERT_NE(NativeCache(Cache.Path).compileAndPublish(
                C->Compiled, hashCompiledStep(C->Compiled), Err),
            nullptr)
      << Err;
  Stimulus St = recordStimulus(*C, 80, 61);
  std::vector<uint8_t> Ref = expectedResponse(*C, St);

  ScopedServer Server;
  Server.spawnArgs({"--max-sessions", "1", "--serve-limit", "1", "--batch",
                    "8", "--native", "auto", "--tier-after", "16",
                    "--cache-dir", Cache.Path});
  ASSERT_GT(Server.Pid, 0);

  int Fd = connectClient(Server.Sock);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, St.Bytes.data(), St.Bytes.size()));
  ASSERT_EQ(::shutdown(Fd, SHUT_WR), 0);
  std::vector<uint8_t> Resp = recvAll(Fd);
  ::close(Fd);
  EXPECT_EQ(Server.wait(), 0) << Server.log();
  EXPECT_EQ(stripHello(Resp), Ref) << Server.log();

  std::string Log = Server.log();
  EXPECT_NE(Log.find("tier: sessions now run native (cache hit"),
            std::string::npos)
      << Log;
  // Deterministic split: --batch 8, swap at the first batch boundary
  // past --tier-after 16, the remaining 64 instants native.
  EXPECT_NE(Log.find("tier: vm_instants=16 native_instants=64 cache=hit"),
            std::string::npos)
      << Log;
}

//===----------------------------------------------------------------------===//
// Overload admission
//===----------------------------------------------------------------------===//

TEST(ServeOverload, SaturatedLanesGetTypedRejectWithBoundedRss) {
  auto C = compileOk(alarmFigure5Source());
  Stimulus St = recordStimulus(*C, 80, 6);
  TraceSpec Spec;
  size_t HeaderLen = 0;
  TraceError Err;
  ASSERT_TRUE(parseTraceHeader(St.Bytes.data(), St.Bytes.size(), Spec,
                               HeaderLen, Err));

  ScopedServer Server;
  Server.spawnArgs({"--max-sessions", "1", "--serve-limit", "1"});
  ASSERT_GT(Server.Pid, 0);

  // Occupy the only lane: header sent, Hello received, stream held open.
  int Held = connectClient(Server.Sock);
  ASSERT_GE(Held, 0);
  ASSERT_TRUE(sendAll(Held, St.Bytes.data(), HeaderLen));
  std::vector<uint8_t> Hello = recvExactly(Held, ServeHelloBytes);
  ASSERT_EQ(Hello.size(), static_cast<size_t>(ServeHelloBytes));

  long RssBefore = residentRssBytes(Server.Pid);
  ASSERT_GT(RssBefore, 0);
  for (int I = 0; I < 40; ++I) {
    int Fd = connectClient(Server.Sock);
    ASSERT_GE(Fd, 0);
    ServeCtrl Rej = decodeReject(recvAll(Fd));
    ::close(Fd);
    EXPECT_EQ(static_cast<int>(Rej.Reason),
              static_cast<int>(ServeRejectReason::AtCapacity));
    EXPECT_NE(Rej.Message.find("no free session lane"), std::string::npos)
        << Rej.Message;
  }
  long RssAfter = residentRssBytes(Server.Pid);
  // A reject allocates no session state: a reject storm must not grow
  // the server. Generous slack for allocator noise.
  EXPECT_LT(RssAfter, RssBefore + (8 << 20))
      << "RSS grew from " << RssBefore << " to " << RssAfter;

  // The held session still completes untouched.
  ASSERT_TRUE(sendAll(Held, St.Bytes.data() + HeaderLen,
                      St.Bytes.size() - HeaderLen));
  std::vector<uint8_t> Resp = recvAll(Held);
  ::close(Held);
  EXPECT_EQ(Server.wait(), 0) << Server.log();
  // Hello was read separately above; the remainder is the trace stream.
  EXPECT_EQ(sorted(parseResponse(Resp)), sorted(St.Events));

  std::string Log = Server.log();
  EXPECT_NE(Log.find("rejected 40 connection(s) (at capacity 40, "
                     "draining 0)"),
            std::string::npos)
      << Log;
}

TEST(ServeOverload, BatchBudgetRejectsEvenWithFreeLanes) {
  auto C = compileOk(alarmFigure5Source());
  Stimulus St = recordStimulus(*C, 80, 7);
  TraceSpec Spec;
  size_t HeaderLen = 0;
  TraceError Err;
  ASSERT_TRUE(parseTraceHeader(St.Bytes.data(), St.Bytes.size(), Spec,
                               HeaderLen, Err));

  // Each admitted session reserves MaxAheadBatches(4) * --batch(8) = 32
  // instants against the budget. Budget 32 admits exactly one session;
  // the second is rejected although three lanes are free.
  ScopedServer Server;
  Server.spawnArgs({"--max-sessions", "4", "--batch", "8", "--batch-budget",
                    "32", "--serve-limit", "1"});
  ASSERT_GT(Server.Pid, 0);

  int Held = connectClient(Server.Sock);
  ASSERT_GE(Held, 0);
  ASSERT_TRUE(sendAll(Held, St.Bytes.data(), HeaderLen));
  ASSERT_EQ(recvExactly(Held, ServeHelloBytes).size(),
            static_cast<size_t>(ServeHelloBytes));

  int Fd = connectClient(Server.Sock);
  ASSERT_GE(Fd, 0);
  ServeCtrl Rej = decodeReject(recvAll(Fd));
  ::close(Fd);
  EXPECT_EQ(static_cast<int>(Rej.Reason),
            static_cast<int>(ServeRejectReason::AtCapacity));
  EXPECT_NE(Rej.Message.find("batch budget exhausted"), std::string::npos)
      << Rej.Message;

  ASSERT_TRUE(sendAll(Held, St.Bytes.data() + HeaderLen,
                      St.Bytes.size() - HeaderLen));
  std::vector<uint8_t> Resp = recvAll(Held);
  ::close(Held);
  EXPECT_EQ(Server.wait(), 0) << Server.log();
  EXPECT_EQ(sorted(parseResponse(Resp)), sorted(St.Events));
}

//===----------------------------------------------------------------------===//
// Deadlines
//===----------------------------------------------------------------------===//

TEST(ServeDeadline, IdleClientIsTornDownWithCountersIntact) {
  auto C = compileOk(alarmFigure5Source());
  Stimulus St = recordStimulus(*C, 80, 8);
  std::vector<uint8_t> Ref = expectedResponse(*C, St);
  size_t StimCut = prefixLenThrough(St.Bytes, 8);
  size_t RespCut = prefixLenThrough(Ref, 8);

  ScopedServer Server;
  Server.spawnArgs({"--max-sessions", "1", "--serve-limit", "1",
                    "--idle-timeout", "100"});
  ASSERT_GT(Server.Pid, 0);

  // One frame of stimulus, then silence: the server must not wait
  // forever on a stalled client.
  int Fd = connectClient(Server.Sock);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, St.Bytes.data(), StimCut));
  std::vector<uint8_t> Resp = recvAll(Fd); // Until the teardown EOF.
  ::close(Fd);
  EXPECT_EQ(Server.wait(), 0) << Server.log();

  // Everything sent before the stall was executed and answered: the
  // response is the uninterrupted run's exact prefix through instant 8.
  std::vector<uint8_t> Got = stripHello(Resp);
  EXPECT_EQ(Got, std::vector<uint8_t>(Ref.begin(), Ref.begin() + RespCut));

  std::string Log = Server.log();
  EXPECT_NE(Log.find("no stimulus for 100 ms"), std::string::npos) << Log;
  std::vector<SessionStats> Stats = parseSessionLines(Log);
  ASSERT_EQ(Stats.size(), 1u) << Log;
  EXPECT_EQ(Stats[0].How, "stalled (idle timeout)") << Log;
  EXPECT_EQ(Stats[0].Instants, 8u) << Log;
}

TEST(ServeDeadline, UnresponsiveReaderHitsWriteTimeout) {
  auto C = compileOk(denseOutputSource());
  Stimulus St = recordStimulus(*C, 4000, 9, "P");
  std::string File = writeProgramFile(denseOutputSource());

  // A small SO_SNDBUF makes the ~32 KiB response stream overrun the
  // in-flight window of a client that never reads; with no write
  // deadline the flush would wait forever.
  ScopedServer Server;
  Server.spawnArgs({"--max-sessions", "1", "--serve-limit", "1",
                    "--write-timeout", "200", "--sndbuf", "4096"},
                   {File});
  ASSERT_GT(Server.Pid, 0);

  int Fd = connectClient(Server.Sock);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, St.Bytes.data(), St.Bytes.size()));
  // Never read. The server must diagnose us and exit on its own.
  EXPECT_EQ(Server.wait(), 0) << Server.log();
  ::close(Fd);
  ::unlink(File.c_str());

  std::string Log = Server.log();
  EXPECT_NE(Log.find("accepted no output for 200 ms"), std::string::npos)
      << Log;
  std::vector<SessionStats> Stats = parseSessionLines(Log);
  ASSERT_EQ(Stats.size(), 1u) << Log;
  EXPECT_EQ(Stats[0].How, "stalled (write timeout)") << Log;
}

//===----------------------------------------------------------------------===//
// Graceful drain
//===----------------------------------------------------------------------===//

TEST(ServeDrain, SigtermFinishesResidentFramesAndExitsZero) {
  auto C = compileOk(alarmFigure5Source());
  Stimulus St = recordStimulus(*C, 80, 10);
  std::vector<uint8_t> Ref = expectedResponse(*C, St);
  size_t StimCut = prefixLenThrough(St.Bytes, 16);
  size_t RespCut = prefixLenThrough(Ref, 16);

  ScopedServer Server;
  Server.spawnArgs({"--max-sessions", "1"}); // Unbounded: only the signal
                                             // ends this server.
  ASSERT_GT(Server.Pid, 0);

  // Two frames in flight, outputs read back (so the server provably
  // executed them), then SIGTERM mid-session.
  int Fd = connectClient(Server.Sock);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, St.Bytes.data(), StimCut));
  std::vector<uint8_t> Part = recvExactly(Fd, ServeHelloBytes + RespCut);
  ASSERT_EQ(::kill(Server.Pid, SIGTERM), 0);
  std::vector<uint8_t> Rest = recvAll(Fd); // Early trailer, then EOF.
  ::close(Fd);
  EXPECT_EQ(Server.wait(), 0) << Server.log();

  // The shortened response is still a well-formed trace: everything
  // resident executed, closed by a trailer at the drain point.
  std::vector<uint8_t> Resp = stripHello(Part);
  Resp.insert(Resp.end(), Rest.begin(), Rest.end());
  std::vector<OutputEvent> Expect;
  for (const OutputEvent &E : St.Events)
    if (E.Instant < 16)
      Expect.push_back(E);
  EXPECT_EQ(sorted(parseResponse(Resp)), sorted(Expect));

  std::string Log = Server.log();
  EXPECT_NE(Log.find("draining: finishing 1 session(s)"), std::string::npos)
      << Log;
  std::vector<SessionStats> Stats = parseSessionLines(Log);
  ASSERT_EQ(Stats.size(), 1u) << Log;
  EXPECT_EQ(Stats[0].How, "drained") << Log;
  EXPECT_EQ(Stats[0].Instants, 16u) << Log;
  EXPECT_NE(Log.find("served 1 session(s) (drained)"), std::string::npos)
      << Log;
}

TEST(ServeDrain, SigtermOnceTheSocketExistsDrainsInsteadOfKilling) {
  // The drain handler is installed before bind(): from the moment a
  // client could connect, SIGTERM must drain (exit 0), never kill.
  ScopedServer Server;
  Server.spawn(/*MaxSessions=*/1, /*Limit=*/0);
  ASSERT_GT(Server.Pid, 0);
  struct stat SB;
  for (int Try = 0; Try < 30000 && ::stat(Server.Sock.c_str(), &SB) != 0;
       ++Try)
    ::usleep(100);
  ASSERT_EQ(::stat(Server.Sock.c_str(), &SB), 0) << Server.log();
  ASSERT_EQ(::kill(Server.Pid, SIGTERM), 0);
  EXPECT_EQ(Server.wait(), 0) << Server.log();
  EXPECT_NE(Server.log().find("draining: finishing 0 session(s)"),
            std::string::npos)
      << Server.log();
}

TEST(ServeDrain, SecondSignalForcesExitOne) {
  auto C = compileOk(denseOutputSource());
  Stimulus St = recordStimulus(*C, 4000, 11, "P");
  std::string File = writeProgramFile(denseOutputSource());

  // An unread ~32 KiB response against a 4 KiB SO_SNDBUF cannot flush:
  // the drain never completes on its own, so the second signal must
  // force the exit.
  ScopedServer Server;
  Server.spawnArgs({"--max-sessions", "1", "--sndbuf", "4096"}, {File});
  ASSERT_GT(Server.Pid, 0);

  int Fd = connectClient(Server.Sock);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, St.Bytes.data(), St.Bytes.size()));
  ASSERT_EQ(recvExactly(Fd, ServeHelloBytes).size(),
            static_cast<size_t>(ServeHelloBytes));
  ASSERT_EQ(::kill(Server.Pid, SIGTERM), 0);
  ASSERT_TRUE(Server.waitForLog("draining:")) << Server.log();
  ASSERT_EQ(::kill(Server.Pid, SIGINT), 0);
  EXPECT_EQ(Server.wait(), 1) << Server.log();
  ::close(Fd);
  ::unlink(File.c_str());

  std::string Log = Server.log();
  EXPECT_NE(Log.find("second signal: forcing exit"), std::string::npos)
      << Log;
  std::vector<SessionStats> Stats = parseSessionLines(Log);
  ASSERT_EQ(Stats.size(), 1u) << Log;
  EXPECT_EQ(Stats[0].How, "forced") << Log;
}

TEST(ServeDrain, DrainGraceExpiryForcesExitZero) {
  auto C = compileOk(denseOutputSource());
  Stimulus St = recordStimulus(*C, 4000, 12, "P");
  std::string File = writeProgramFile(denseOutputSource());

  ScopedServer Server;
  Server.spawnArgs({"--max-sessions", "1", "--sndbuf", "4096",
                    "--drain-grace", "150"},
                   {File});
  ASSERT_GT(Server.Pid, 0);

  int Fd = connectClient(Server.Sock);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, St.Bytes.data(), St.Bytes.size()));
  ASSERT_EQ(recvExactly(Fd, ServeHelloBytes).size(),
            static_cast<size_t>(ServeHelloBytes));
  ASSERT_EQ(::kill(Server.Pid, SIGTERM), 0);
  // One signal only: the grace deadline bounds the drain.
  EXPECT_EQ(Server.wait(), 0) << Server.log();
  ::close(Fd);
  ::unlink(File.c_str());

  std::string Log = Server.log();
  EXPECT_NE(Log.find("drain grace expired: forcing exit"), std::string::npos)
      << Log;
  EXPECT_NE(Log.find("(forced)"), std::string::npos) << Log;
}

TEST(ServeDrain, ClientDisconnectDuringDrainStillExitsZero) {
  auto C = compileOk(denseOutputSource());
  Stimulus St = recordStimulus(*C, 4000, 13, "P");
  std::string File = writeProgramFile(denseOutputSource());

  ScopedServer Server;
  Server.spawnArgs({"--max-sessions", "1", "--sndbuf", "4096"}, {File});
  ASSERT_GT(Server.Pid, 0);

  int Fd = connectClient(Server.Sock);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, St.Bytes.data(), St.Bytes.size()));
  ASSERT_EQ(recvExactly(Fd, ServeHelloBytes).size(),
            static_cast<size_t>(ServeHelloBytes));
  ASSERT_EQ(::kill(Server.Pid, SIGTERM), 0);
  ASSERT_TRUE(Server.waitForLog("draining:")) << Server.log();
  // The client gives up mid-drain instead of reading its queued bytes.
  ::close(Fd);
  EXPECT_EQ(Server.wait(), 0) << Server.log();
  ::unlink(File.c_str());

  std::string Log = Server.log();
  EXPECT_NE(Log.find("(disconnected)"), std::string::npos) << Log;
  EXPECT_NE(Log.find("served 1 session(s) (drained)"), std::string::npos)
      << Log;
}

TEST(ServeDrain, NewConnectionsDuringDrainGetDrainingReject) {
  auto C = compileOk(denseOutputSource());
  Stimulus St = recordStimulus(*C, 4000, 14, "P");
  std::string File = writeProgramFile(denseOutputSource());

  ScopedServer Server;
  Server.spawnArgs({"--max-sessions", "2", "--sndbuf", "4096"}, {File});
  ASSERT_GT(Server.Pid, 0);

  int Held = connectClient(Server.Sock);
  ASSERT_GE(Held, 0);
  ASSERT_TRUE(sendAll(Held, St.Bytes.data(), St.Bytes.size()));
  ASSERT_EQ(recvExactly(Held, ServeHelloBytes).size(),
            static_cast<size_t>(ServeHelloBytes));
  ASSERT_EQ(::kill(Server.Pid, SIGTERM), 0);
  ASSERT_TRUE(Server.waitForLog("draining:")) << Server.log();

  int Fd = connectClient(Server.Sock);
  ASSERT_GE(Fd, 0);
  ServeCtrl Rej = decodeReject(recvAll(Fd));
  ::close(Fd);
  EXPECT_EQ(static_cast<int>(Rej.Reason),
            static_cast<int>(ServeRejectReason::Draining));
  EXPECT_NE(Rej.Message.find("server is draining"), std::string::npos)
      << Rej.Message;

  ::close(Held); // Unblocks the drain; the server exits on its own.
  EXPECT_EQ(Server.wait(), 0) << Server.log();
  ::unlink(File.c_str());
}
