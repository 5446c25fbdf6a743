//===--- Server.cpp -------------------------------------------------------===//

#include "io/Server.h"

#include "interp/VmExecutor.h"
#include "io/TraceEnvironment.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace sigc;

namespace {

/// Signals received (SIGTERM/SIGINT). The first starts a drain, the
/// second forces exit. Both stay blocked except inside ppoll(), which
/// unblocks them atomically: one that lands while the loop is busy is
/// delivered when the next wait begins, which then fails with EINTR, so
/// no signal slips between the drain check and the wait.
volatile sig_atomic_t DrainSignals = 0;

void drainSignalHandler(int) { ++DrainSignals; }

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// Monotonic milliseconds (deadline arithmetic).
int64_t nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Appends response bytes to the session's output queue.
struct QueueSink : TraceSink {
  std::vector<uint8_t> *Q = nullptr;
  bool write(const uint8_t *Data, size_t Len) override {
    Q->insert(Q->end(), Data, Data + Len);
    return true;
  }
};

/// A lane's delay state at a frame boundary: a copy of its state
/// block's delay slots, whichever tier ran.
struct Checkpoint {
  unsigned Instant = 0;
  std::vector<VmSlot> State;
};

/// What survives a disconnected session for a later resume.
struct Parked {
  uint64_t Token = 0;
  unsigned Id = 0; ///< The original session id (diagnostics).
  TraceSpec Spec;
  std::deque<Checkpoint> Checkpoints;
};

struct Session {
  int Fd = -1;
  unsigned Id = 0;   ///< Monotone session number (diagnostics).
  unsigned Lane = 0; ///< Executor lane this session owns.
  uint64_t Token = 0;

  // Inbound stream.
  std::vector<uint8_t> In;
  size_t InPos = 0;   ///< Consumed prefix of In.
  bool InEof = false; ///< No more inbound bytes will ever arrive.
  bool PreambleDone = false; ///< Resume-or-fresh decided.
  /// Decodes the trace stream that follows the preamble.
  TraceDecoder Dec;

  /// Parked state this connection resumes (set while parsing the
  /// preamble, consumed when the header arrives).
  std::optional<Parked> Resume;

  // Execution (set up once the header is in).
  std::unique_ptr<StreamEnvironment> Env;
  unsigned StartInstant = 0; ///< 0, or the resume point.
  unsigned Executed = 0;     ///< Absolute instant cursor.
  bool Finished = false;     ///< Response trailer (or reject) written.
  const char *FinKind = "clean"; ///< Teardown label once flushed.
  uint64_t GuardTests = 0, Instrs = 0;
  std::deque<Checkpoint> Checkpoints;

  // Deadlines (monotonic ms of the last inbound/outbound progress).
  int64_t LastInMs = 0, LastOutMs = 0;

  // Outbound stream.
  QueueSink Sink;
  std::unique_ptr<TraceWriter> Echo;
  std::vector<uint8_t> Out;
  size_t OutPos = 0;

  size_t queuedBytes() const { return Out.size() - OutPos; }
};

class Server {
public:
  /// \p WaitMask is the signal mask in force while the server waits.
  Server(const CompiledStep &CS, const std::string &ProcName,
         const ServeOptions &Opts, const sigset_t &WaitMask)
      : CS(CS), Opts(Opts), Expected(TraceSpec::fromStep(CS, ProcName)),
        WaitMask(WaitMask), Slots(Opts.MaxSessions) {
    Lanes.reserve(Opts.MaxSessions);
    for (unsigned L = 0; L < Opts.MaxSessions; ++L) {
      Lanes.emplace_back(CS);
      FreeLanes.push_back(Opts.MaxSessions - 1 - L);
    }
  }

  int run();

private:
  void acceptClients();
  void rejectConnection(int Fd, ServeRejectReason Reason,
                        const std::string &Message);
  void readSession(Session &S);
  bool parseSession(Session &S); ///< False: session torn down.
  bool parsePreamble(Session &S); ///< False: torn down.
  void startSession(Session &S);
  bool refuseStream(Session &S); ///< False: torn down.
  void queueReject(Session &S, ServeRejectReason Reason,
                   const std::string &Message, const char *Kind);
  void pushCheckpoint(Session &S);
  bool stepSession(Session &S);  ///< True when progress was made.
  void sendSession(Session &S);
  void teardown(Session &S, const char *How);
  void forceTeardownAll(const char *How);
  void checkDeadlines(int64_t Now);
  int pollTimeout(bool Runnable, int64_t Now) const;

  bool resumeEnabled() const { return Opts.MaxParkedSessions > 0; }
  /// The inbound run-ahead window one session reserves against the
  /// global batch budget at admission.
  uint64_t sessionReservation() const {
    return static_cast<uint64_t>(std::max(Opts.MaxAheadBatches, 1u)) *
           Opts.BatchInstants;
  }
  bool budgetExhausted() const {
    if (!Opts.BatchBudgetInstants)
      return false;
    unsigned Active = 0;
    for (const auto &Slot : Slots)
      Active += Slot != nullptr;
    return (Active + 1) * sessionReservation() > Opts.BatchBudgetInstants;
  }
  /// Inbound flow control: instants the resident frame window may run
  /// ahead of execution. At least one client-chosen frame, so parsing
  /// can always make progress.
  unsigned maxAheadInstants(const Session &S) const {
    unsigned Ahead = std::max(Opts.MaxAheadBatches, 1u) * Opts.BatchInstants;
    return std::max(Ahead, S.Env->streamSpec().FrameInstants);
  }
  /// True while the session's window is far enough ahead that reading
  /// and parsing should pause (the kernel buffer backpressures the
  /// client) until execution catches up.
  bool windowFull(const Session &S) const {
    return S.Env &&
           S.Env->residentEnd() >= S.Executed + maxAheadInstants(S);
  }
  Session *sessionAt(size_t Slot) { return Slots[Slot].get(); }

  const CompiledStep &CS;
  const ServeOptions &Opts;
  TraceSpec Expected;
  sigset_t WaitMask;
  std::vector<VmExecutor> Lanes; ///< One executor per session lane.
  std::vector<std::unique_ptr<Session>> Slots; ///< Indexed by lane.
  std::vector<unsigned> FreeLanes;
  std::deque<Parked> ParkedSessions; ///< Oldest first.
  int ListenFd = -1;
  unsigned NextId = 0;
  uint64_t NextToken = 0;
  unsigned Ended = 0;
  unsigned Rejected = 0, RejectedCapacity = 0, RejectedDraining = 0;
  bool Draining = false;
  int64_t DrainStartMs = 0;
  std::vector<uint8_t> CtrlBuf; ///< Reused control-frame encode buffer.
  size_t RR = 0; ///< Round-robin scan start.
  // Tiered native execution: the controller compiles/loads off the
  // serving thread and counts every lane's instants per tier; runWindows
  // swaps a lane between batches once the lanes' VM instants reach
  // --tier-after, so every session crosses tiers at a batch boundary and
  // checkpoints stay tier-agnostic.
  std::unique_ptr<TierController> Tier;
  bool NativeLogged = false; ///< The `tier: sessions now run native` line.
  // Serve-layer counters, printed at exit: ppoll returns, stepN calls,
  // recv and send syscalls, and the bytes they moved.
  uint64_t Wakeups = 0, Batches = 0, Recvs = 0, Sends = 0, BytesIn = 0,
           BytesOut = 0;
};

void Server::teardown(Session &S, const char *How) {
  // Always printed: scripted drivers (and the CI smoke test) sum these.
  std::fprintf(stderr,
               "session %u: instants=%u outputs=%llu guard_tests=%llu "
               "executed=%llu (%s)\n",
               S.Id, S.Executed - S.StartInstant,
               static_cast<unsigned long long>(S.Env ? S.Env->outputCount()
                                                     : 0),
               static_cast<unsigned long long>(S.GuardTests),
               static_cast<unsigned long long>(S.Instrs), How);
  // A mid-stream loss of the client — not a protocol failure, and not a
  // drain — parks the session so the client can come back. Everything
  // resident was executed before we got here, so the newest checkpoint
  // is the exact frontier the client saw (or will see) outputs for.
  bool Recoverable = std::strcmp(How, "disconnected") == 0 ||
                     std::strncmp(How, "stalled", 7) == 0;
  if (resumeEnabled() && !Draining && Recoverable && S.Env &&
      !S.Checkpoints.empty()) {
    Parked P;
    P.Token = S.Token;
    P.Id = S.Id;
    P.Spec = S.Env->streamSpec();
    P.Checkpoints = std::move(S.Checkpoints);
    while (ParkedSessions.size() >= Opts.MaxParkedSessions)
      ParkedSessions.pop_front();
    std::fprintf(stderr, "session %u: parked at instant %u for resume\n",
                 S.Id, P.Checkpoints.back().Instant);
    ParkedSessions.push_back(std::move(P));
  }
  ::close(S.Fd);
  FreeLanes.push_back(S.Lane);
  Slots[S.Lane].reset();
  ++Ended;
}

void Server::forceTeardownAll(const char *How) {
  for (auto &Slot : Slots)
    if (Slot)
      teardown(*Slot, How);
}

void Server::rejectConnection(int Fd, ServeRejectReason Reason,
                              const std::string &Message) {
  // Best effort on a connection we never admitted: one nonblocking send
  // of the typed reject frame, then close. No per-connection state is
  // allocated — CtrlBuf is reused — so a reject storm cannot grow the
  // server.
  CtrlBuf.clear();
  ServeCtrl C;
  C.Type = ServeCtrlType::Reject;
  C.Reason = Reason;
  C.Message = Message;
  encodeServeCtrl(C, CtrlBuf);
  ssize_t N = ::send(Fd, CtrlBuf.data(), CtrlBuf.size(), MSG_NOSIGNAL);
  ++Sends;
  BytesOut += N > 0 ? static_cast<uint64_t>(N) : 0;
  ::close(Fd);
  ++Rejected;
  if (Reason == ServeRejectReason::Draining)
    ++RejectedDraining;
  else
    ++RejectedCapacity;
  std::fprintf(stderr, "rejected connection (%s): %s\n",
               serveRejectReasonName(Reason), Message.c_str());
}

void Server::acceptClients() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      return; // EAGAIN (or a transient error): try again next wakeup.
    if (!setNonBlocking(Fd)) {
      ::close(Fd);
      continue;
    }
    if (Draining) {
      rejectConnection(Fd, ServeRejectReason::Draining,
                       "server is draining");
      continue;
    }
    if (FreeLanes.empty()) {
      rejectConnection(Fd, ServeRejectReason::AtCapacity,
                       "no free session lane");
      continue;
    }
    if (budgetExhausted()) {
      rejectConnection(Fd, ServeRejectReason::AtCapacity,
                       "batch budget exhausted");
      continue;
    }
    if (Opts.SessionLimit && NextId >= Opts.SessionLimit) {
      rejectConnection(Fd, ServeRejectReason::AtCapacity,
                       "session limit reached");
      continue;
    }
    if (Opts.SendBufBytes) {
      int Buf = static_cast<int>(Opts.SendBufBytes);
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Buf, sizeof(Buf));
    }
    unsigned Lane = FreeLanes.back();
    FreeLanes.pop_back();
    auto S = std::make_unique<Session>();
    S->Fd = Fd;
    S->Id = NextId++;
    S->Lane = Lane;
    S->LastInMs = S->LastOutMs = nowMs();
    S->Dec = TraceDecoder(&CS);
    Slots[Lane] = std::move(S);
  }
}

void Server::readSession(Session &S) {
  uint8_t Buf[1 << 16];
  bool Any = false;
  while (!S.InEof) {
    ssize_t N = ::recv(S.Fd, Buf, sizeof(Buf), 0);
    ++Recvs;
    if (N > 0) {
      BytesIn += static_cast<uint64_t>(N);
      S.In.insert(S.In.end(), Buf, Buf + N);
      Any = true;
      if (static_cast<size_t>(N) == sizeof(Buf))
        continue; // More may be pending.
      break;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    if (N < 0 && errno == EINTR)
      continue;
    // EOF or a hard error: nothing further will arrive, but bytes
    // already buffered may still hold complete frames — even the
    // trailer, when the client half-closes right after sending it.
    // parseSession decides whether this was a mid-stream disconnect.
    S.InEof = true;
  }
  if (Any)
    S.LastInMs = nowMs();
  if (!parseSession(S))
    return;
  // Reclaim the consumed prefix once it dominates the buffer.
  if (S.InPos > (64u << 10) && S.InPos > S.In.size() / 2) {
    S.In.erase(S.In.begin(), S.In.begin() + static_cast<long>(S.InPos));
    S.InPos = 0;
  }
}

void Server::queueReject(Session &S, ServeRejectReason Reason,
                         const std::string &Message, const char *Kind) {
  CtrlBuf.clear();
  ServeCtrl C;
  C.Type = ServeCtrlType::Reject;
  C.Reason = Reason;
  C.Message = Message;
  encodeServeCtrl(C, CtrlBuf);
  S.Sink.Q = &S.Out;
  S.Out.insert(S.Out.end(), CtrlBuf.begin(), CtrlBuf.end());
  S.Finished = true;
  S.FinKind = Kind;
  // Stop reading: the stream is refused whatever else the client sends.
  S.InEof = true;
}

/// Decides resume-vs-fresh from the first bytes of the connection.
/// Returns false when the session was torn down.
bool Server::parsePreamble(Session &S) {
  if (S.In.size() - S.InPos < 4) {
    if (!S.InEof)
      return true; // Wait for the magic.
    std::fprintf(stderr, "session %u: offset 0: stream ends before a "
                         "preamble or trace header\n",
                 S.Id);
    teardown(S, "disconnected");
    return false;
  }
  if (std::memcmp(S.In.data() + S.InPos, ServeCtrlMagic, 4) != 0) {
    // A plain trace header: a fresh session.
    S.PreambleDone = true;
    return true;
  }
  ServeCtrl C;
  size_t Consumed = 0;
  TraceError Err;
  TraceFrameStatus St =
      decodeServeCtrl(S.In.data() + S.InPos, S.In.size() - S.InPos, 0, C,
                      Consumed, Err);
  if (St == TraceFrameStatus::NeedMore) {
    if (S.InEof) {
      std::fprintf(stderr, "session %u: %s\n", S.Id, Err.str().c_str());
      teardown(S, "disconnected");
      return false;
    }
    return true;
  }
  if (St == TraceFrameStatus::Error) {
    std::fprintf(stderr, "session %u: %s\n", S.Id, Err.str().c_str());
    teardown(S, "protocol error");
    return false;
  }
  S.InPos += Consumed;
  S.PreambleDone = true;
  if (C.Type != ServeCtrlType::Resume) {
    std::fprintf(stderr,
                 "session %u: unexpected control frame type %u (only "
                 "Resume is accepted from clients)\n",
                 S.Id, static_cast<unsigned>(C.Type));
    teardown(S, "protocol error");
    return false;
  }
  auto It = std::find_if(ParkedSessions.begin(), ParkedSessions.end(),
                         [&](const Parked &P) { return P.Token == C.Token; });
  if (It == ParkedSessions.end()) {
    queueReject(S, ServeRejectReason::BadResume,
                "unknown or expired session token", "resume rejected");
    return true;
  }
  if (traceSpecHash(It->Spec) != C.InterfaceHash) {
    queueReject(S, ServeRejectReason::InterfaceMismatch,
                "resume interface hash does not match the parked session",
                "resume rejected");
    return true;
  }
  auto Ck = std::find_if(It->Checkpoints.begin(), It->Checkpoints.end(),
                         [&](const Checkpoint &K) {
                           return K.Instant == C.ResumeInstant;
                         });
  if (Ck == It->Checkpoints.end()) {
    queueReject(S, ServeRejectReason::BadResume,
                "no checkpoint at instant " +
                    std::to_string(C.ResumeInstant),
                "resume rejected");
    return true;
  }
  // Checkpoints above the resume point are about to be re-executed from
  // possibly different stimulus: drop them.
  It->Checkpoints.erase(Ck + 1, It->Checkpoints.end());
  S.Resume = std::move(*It);
  ParkedSessions.erase(It);
  // The re-sent stream's first frame starts at the resume point.
  S.Dec = TraceDecoder(&CS, C.ResumeInstant);
  std::fprintf(stderr, "session %u: resuming session %u at instant %u\n",
               S.Id, S.Resume->Id, C.ResumeInstant);
  return true;
}

/// Sets a session up for execution, fresh or resumed, once its header
/// has decoded.
void Server::startSession(Session &S) {
  const TraceSpec &Spec = S.Dec.spec();
  if (S.Resume && Spec != S.Resume->Spec) {
    std::fprintf(stderr,
                 "session %u: resume header differs from the parked "
                 "session's (frame capacity or interface changed)\n",
                 S.Id);
    queueReject(S, ServeRejectReason::InterfaceMismatch,
                "resume header differs from the parked session's",
                "resume rejected");
    return;
  }
  unsigned R0 = S.Dec.nextInstant();
  S.Env = std::make_unique<StreamEnvironment>(Spec);
  S.Sink.Q = &S.Out;
  // Hello first: the session is admitted, and the token is what a
  // future Resume must present.
  S.Token = S.Resume ? S.Resume->Token : ++NextToken;
  CtrlBuf.clear();
  ServeCtrl Hello;
  Hello.Type = ServeCtrlType::Hello;
  Hello.Token = S.Token;
  encodeServeCtrl(Hello, CtrlBuf);
  S.Out.insert(S.Out.end(), CtrlBuf.begin(), CtrlBuf.end());
  // The response stream: an outputs-only trace with the same frame
  // capacity the client chose. A resumed session continues the original
  // stream headerless from the resume point, so the concatenated
  // connections are one byte-identical stream.
  S.Echo = std::make_unique<TraceWriter>(S.Sink, Spec.outputsOnly(), R0,
                                         /*EmitHeader=*/!S.Resume);
  S.Env->setEcho(S.Echo.get());
  // The lane starts from the initial delay state with zero counters; a
  // resume then restores the checkpoint's delay state.
  Lanes[S.Lane].reset();
  Lanes[S.Lane].resetCounters();
  S.StartInstant = S.Executed = R0;
  if (S.Resume) {
    S.Env->rebase(R0);
    Lanes[S.Lane].setStateSlots(S.Resume->Checkpoints.back().State);
    S.Checkpoints = std::move(S.Resume->Checkpoints);
    S.Resume.reset();
  } else if (resumeEnabled()) {
    pushCheckpoint(S);
  }
}

/// Ends a session whose stream the decoder refused, with the decoder's
/// positioned diagnostic: an interface mismatch is a typed Reject, a
/// stream that ended early a disconnect (so it parks for resume), and
/// anything else a protocol error. Returns false when torn down.
bool Server::refuseStream(Session &S) {
  const TraceError &E = S.Dec.error();
  std::fprintf(stderr, "session %u: %s\n", S.Id, E.str().c_str());
  if (E.Kind == TraceErrorKind::InterfaceMismatch) {
    queueReject(S, ServeRejectReason::InterfaceMismatch, E.str(),
                "interface mismatch");
    return true;
  }
  teardown(S, E.Kind == TraceErrorKind::Truncated ? "disconnected"
                                                   : "protocol error");
  return false;
}

void Server::pushCheckpoint(Session &S) {
  if (S.Checkpoints.size() >= std::max(Opts.ResumeCheckpoints, 1u))
    S.Checkpoints.pop_front();
  S.Checkpoints.push_back({S.Executed, Lanes[S.Lane].stateSlots()});
}

bool Server::parseSession(Session &S) {
  if (!S.PreambleDone && !parsePreamble(S))
    return false;
  // Inbound flow control: stop decoding (leaving bytes buffered and, via
  // the poll loop, unread in the kernel) once the resident window is far
  // enough ahead of execution; the scheduler resumes parsing after each
  // batch it executes.
  while (S.PreambleDone && !S.Finished && !S.Dec.finished() &&
         !windowFull(S)) {
    TraceFrame F = S.Env ? S.Env->takeRecycledFrame() : TraceFrame();
    size_t Consumed = 0;
    TraceFrameStatus St =
        S.Dec.next(S.In.data() + S.InPos, S.In.size() - S.InPos, S.InEof, F,
                   Consumed);
    if (St == TraceFrameStatus::NeedMore)
      return true;
    if (St == TraceFrameStatus::Error)
      return refuseStream(S);
    S.InPos += Consumed;
    if (St == TraceFrameStatus::Header)
      startSession(S);
    else if (St == TraceFrameStatus::Frame)
      S.Env->pushFrame(std::move(F));
  }
  return true;
}

bool Server::stepSession(Session &S) {
  if (!S.Env || S.Finished)
    return false;
  unsigned Resident = S.Env->residentEnd();
  if (S.Executed < Resident && S.queuedBytes() <= Opts.MaxQueuedBytes) {
    unsigned N = std::min(Opts.BatchInstants, Resident - S.Executed);
    if (resumeEnabled()) {
      // Land every batch on a frame boundary, so a checkpoint exists at
      // each one; only the stream's final partial frame may end between
      // boundaries (and is then past every resumable point anyway).
      unsigned W = S.Env->streamSpec().FrameInstants;
      N = std::min(N, W - S.Executed % W);
    }
    VmExecutor &L = Lanes[S.Lane];
    runWindows(L, *S.Env, S.Executed, N, N, Tier.get());
    ++Batches;
    if (L.native() && !NativeLogged) {
      NativeLogged = true;
      std::fprintf(stderr, "tier: sessions now run native (%s, hash %s)\n",
                   Tier->cacheHit() ? "cache hit" : "background compile",
                   Tier->hash().c_str());
    }
    S.GuardTests = L.guardTests();
    S.Instrs = L.executed();
    S.Executed += N;
    S.Env->release(S.Executed);
    if (resumeEnabled() &&
        S.Executed % S.Env->streamSpec().FrameInstants == 0)
      pushCheckpoint(S);
    return true;
  }
  if (S.Dec.finished() && S.Executed == Resident) {
    S.Echo->finish(Resident);
    S.Finished = true;
    return true;
  }
  if (Draining && S.Executed == Resident) {
    // Graceful drain: everything resident has executed and flushed into
    // the queue; close the response stream with an early trailer so the
    // client sees a well-formed (if shortened) trace.
    S.Echo->finish(S.Executed);
    S.Finished = true;
    S.FinKind = "drained";
    return true;
  }
  return false;
}

void Server::sendSession(Session &S) {
  bool Any = false;
  while (S.OutPos < S.Out.size()) {
    ssize_t N = ::send(S.Fd, S.Out.data() + S.OutPos, S.Out.size() - S.OutPos,
                       MSG_NOSIGNAL);
    ++Sends;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (Any)
          S.LastOutMs = nowMs();
        return;
      }
      teardown(S, "disconnected");
      return;
    }
    S.OutPos += static_cast<size_t>(N);
    BytesOut += static_cast<uint64_t>(N);
    Any = true;
  }
  S.Out.clear();
  S.OutPos = 0;
  S.LastOutMs = nowMs();
  if (S.Finished)
    teardown(S, S.FinKind);
}

void Server::checkDeadlines(int64_t Now) {
  for (size_t L = 0; L < Slots.size(); ++L) {
    Session *S = sessionAt(L);
    if (!S)
      continue;
    if (Opts.WriteTimeoutMs && S->queuedBytes() > 0 &&
        Now - S->LastOutMs >= static_cast<int64_t>(Opts.WriteTimeoutMs)) {
      std::fprintf(stderr,
                   "session %u: client accepted no output for %u ms "
                   "(%zu bytes queued)\n",
                   S->Id, Opts.WriteTimeoutMs, S->queuedBytes());
      teardown(*S, "stalled (write timeout)");
      continue;
    }
    // Idle: the session is waiting on stimulus it is not receiving.
    bool AwaitingInbound =
        !S->InEof && !S->Dec.finished() && !windowFull(*S) &&
        (!S->Env || S->Executed == S->Env->residentEnd());
    if (Opts.IdleTimeoutMs && !Draining && AwaitingInbound &&
        Now - S->LastInMs >= static_cast<int64_t>(Opts.IdleTimeoutMs)) {
      std::fprintf(stderr, "session %u: no stimulus for %u ms\n", S->Id,
                   Opts.IdleTimeoutMs);
      teardown(*S, "stalled (idle timeout)");
    }
  }
}

int Server::pollTimeout(bool Runnable, int64_t Now) const {
  if (Runnable)
    return 0;
  int64_t Next = -1;
  auto Consider = [&](int64_t Deadline) {
    if (Next < 0 || Deadline < Next)
      Next = Deadline;
  };
  for (const auto &Slot : Slots) {
    const Session *S = Slot.get();
    if (!S)
      continue;
    if (Opts.WriteTimeoutMs && S->queuedBytes() > 0)
      Consider(S->LastOutMs + Opts.WriteTimeoutMs);
    bool AwaitingInbound =
        !S->InEof && !S->Dec.finished() && !windowFull(*S) &&
        (!S->Env || S->Executed == S->Env->residentEnd());
    if (Opts.IdleTimeoutMs && !Draining && AwaitingInbound)
      Consider(S->LastInMs + Opts.IdleTimeoutMs);
  }
  if (Draining && Opts.DrainGraceMs)
    Consider(DrainStartMs + Opts.DrainGraceMs);
  if (Next < 0)
    return -1;
  return static_cast<int>(std::max<int64_t>(Next - Now, 0));
}

int Server::run() {
  // SIGTERM/SIGINT drive the drain state machine. Installed before the
  // socket exists: a signal that lands once a client can connect must
  // drain, not kill.
  DrainSignals = 0;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = drainSignalHandler;
  ::sigemptyset(&SA.sa_mask);
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
  if (Opts.Tier.Mode != NativeMode::Off) {
    Tier = std::make_unique<TierController>(CS, Opts.Tier);
    if (!Tier->start()) {
      std::fprintf(stderr, "signalc: --native force failed: %s\n",
                   Tier->error().c_str());
      return 2;
    }
  }
  if (Opts.SocketPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
    std::fprintf(stderr, "signalc: socket path too long: %s\n",
                 Opts.SocketPath.c_str());
    return 2;
  }
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    std::fprintf(stderr, "signalc: socket: %s\n", std::strerror(errno));
    return 2;
  }
  ::unlink(Opts.SocketPath.c_str());
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(ListenFd, 64) < 0 || !setNonBlocking(ListenFd)) {
    std::fprintf(stderr, "signalc: cannot serve on %s: %s\n",
                 Opts.SocketPath.c_str(), std::strerror(errno));
    ::close(ListenFd);
    return 2;
  }
  std::fprintf(stderr,
               "serving %s on %s (max %u sessions, batch %u)\n",
               Expected.ProcName.c_str(), Opts.SocketPath.c_str(),
               Opts.MaxSessions, Opts.BatchInstants);

  int Exit = 0;
  std::vector<pollfd> Polls;
  std::vector<size_t> PollSlot; // Poll index -> lane (listen fd excluded).
  for (;;) {
    if (DrainSignals >= 2) {
      std::fprintf(stderr, "second signal: forcing exit\n");
      forceTeardownAll("forced");
      Exit = 1;
      break;
    }
    if (DrainSignals && !Draining) {
      Draining = true;
      DrainStartMs = nowMs();
      unsigned Active = 0;
      for (auto &Slot : Slots)
        Active += Slot != nullptr;
      std::fprintf(stderr,
                   "draining: finishing %u session(s), rejecting new "
                   "connections\n",
                   Active);
      // Sessions that never completed a header have nothing to flush.
      for (auto &Slot : Slots)
        if (Slot && !Slot->Env)
          teardown(*Slot, "drained");
    }
    if (Draining) {
      bool Active = false;
      for (auto &Slot : Slots)
        Active |= Slot != nullptr;
      if (!Active)
        break;
      if (Opts.DrainGraceMs && nowMs() - DrainStartMs >=
                                   static_cast<int64_t>(Opts.DrainGraceMs)) {
        std::fprintf(stderr, "drain grace expired: forcing exit\n");
        forceTeardownAll("forced");
        break;
      }
    }

    if (Opts.SessionLimit && Ended >= Opts.SessionLimit) {
      bool Active = false;
      for (auto &Slot : Slots)
        Active |= Slot != nullptr;
      if (!Active)
        break;
    }

    Polls.clear();
    PollSlot.clear();
    // The listen fd is always polled: admission (or a typed reject)
    // happens at accept time, so even a saturated or limit-bound server
    // answers every connection instead of leaving it queued.
    Polls.push_back({ListenFd, POLLIN, 0});
    bool Runnable = false;
    for (size_t L = 0; L < Slots.size(); ++L) {
      Session *S = sessionAt(L);
      if (!S)
        continue;
      short Ev = 0;
      // Inbound flow control: while the resident window is full (or the
      // stream already ended, or the server is draining), leave arriving
      // bytes in the kernel buffer so the client blocks in send instead
      // of growing our memory.
      if (!S->Dec.finished() && !S->InEof && !windowFull(*S) && !Draining)
        Ev |= POLLIN;
      if (S->queuedBytes() > 0)
        Ev |= POLLOUT;
      Polls.push_back({S->Fd, Ev, 0});
      PollSlot.push_back(L);
      if (S->Env && !S->Finished &&
          ((S->Executed < S->Env->residentEnd() &&
            S->queuedBytes() <= Opts.MaxQueuedBytes) ||
           (S->Dec.finished() && S->Executed == S->Env->residentEnd()) ||
           (Draining && S->Executed == S->Env->residentEnd())))
        Runnable = true;
    }

    int Timeout = pollTimeout(Runnable, nowMs());
    timespec Wait = {Timeout / 1000, (Timeout % 1000) * 1000000L};
    int Ready = ::ppoll(Polls.data(), Polls.size(),
                        Timeout < 0 ? nullptr : &Wait, &WaitMask);
    if (Ready < 0) {
      if (errno == EINTR)
        continue; // A signal: the loop top reevaluates the drain state.
      std::fprintf(stderr, "signalc: ppoll: %s\n", std::strerror(errno));
      break;
    }
    ++Wakeups;
    checkDeadlines(nowMs());

    if (Polls[0].revents & POLLIN)
      acceptClients();
    for (size_t P = 1; P < Polls.size(); ++P) {
      Session *S = sessionAt(PollSlot[P - 1]);
      if (!S || S->Fd != Polls[P].fd)
        continue; // Torn down while handling an earlier event.
      if (Polls[P].revents & (POLLIN | POLLHUP | POLLERR))
        readSession(*S);
      S = sessionAt(PollSlot[P - 1]);
      if (S && S->Fd == Polls[P].fd &&
          (Polls[P].revents & (POLLOUT | POLLHUP | POLLERR)) &&
          S->queuedBytes() > 0)
        sendSession(*S);
    }

    // Scheduler: fair round-robin passes (the scan starts one lane later
    // each wakeup), one batch per runnable session per pass, re-parsing
    // buffered inbound bytes that flow control paused once execution
    // advanced. The passes stop when no session can advance on the bytes
    // this wakeup already read (or its queue is over MaxQueuedBytes);
    // only then does each queue go out, in one send per session.
    size_t NumSlots = Slots.size();
    RR = NumSlots ? (RR + 1) % NumSlots : 0;
    for (bool Progress = true; Progress;) {
      Progress = false;
      for (size_t Scan = 0; Scan < NumSlots; ++Scan) {
        Session *S = sessionAt((RR + Scan) % NumSlots);
        if (!S)
          continue;
        if (!stepSession(*S))
          continue;
        Progress = true;
        // stepSession never tears down, so S is still live here;
        // parseSession may.
        if (!S->Dec.finished() && S->In.size() > S->InPos)
          parseSession(*S);
      }
    }
    // A freshly rejected session may have its frame queued with no poll
    // event pending: it goes out here too.
    for (size_t L = 0; L < NumSlots; ++L)
      if (Session *S = sessionAt(L); S && S->queuedBytes() > 0)
        sendSession(*S);
  }

  ::close(ListenFd);
  ::unlink(Opts.SocketPath.c_str());
  if (Rejected)
    std::fprintf(stderr,
                 "rejected %u connection(s) (at capacity %u, draining %u)\n",
                 Rejected, RejectedCapacity, RejectedDraining);
  if (Tier) {
    TierStats T = Tier->stats();
    std::fprintf(stderr,
                 "tier: vm_instants=%llu native_instants=%llu cache=%s%s%s\n",
                 static_cast<unsigned long long>(T.VmInstants),
                 static_cast<unsigned long long>(T.NativeInstants),
                 T.CacheHit ? "hit" : "miss", T.Error.empty() ? "" : " error=",
                 T.Error.c_str());
  }
  std::fprintf(stderr, "served %u session(s)%s\n", Ended,
               Draining ? " (drained)" : "");
  std::fprintf(stderr,
               "serve: wakeups=%llu batches=%llu recvs=%llu sends=%llu "
               "bytes_in=%llu bytes_out=%llu\n",
               static_cast<unsigned long long>(Wakeups),
               static_cast<unsigned long long>(Batches),
               static_cast<unsigned long long>(Recvs),
               static_cast<unsigned long long>(Sends),
               static_cast<unsigned long long>(BytesIn),
               static_cast<unsigned long long>(BytesOut));
  return Exit;
}

} // namespace

int sigc::runTraceServer(const CompiledStep &CS, const std::string &ProcName,
                         const ServeOptions &Opts) {
  sigset_t Drain, Unblocked;
  ::sigemptyset(&Drain);
  ::sigaddset(&Drain, SIGTERM);
  ::sigaddset(&Drain, SIGINT);
  ::pthread_sigmask(SIG_BLOCK, &Drain, &Unblocked);
  int Exit = Server(CS, ProcName, Opts, Unblocked).run();
  ::pthread_sigmask(SIG_SETMASK, &Unblocked, nullptr);
  return Exit;
}
