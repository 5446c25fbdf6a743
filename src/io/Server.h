//===--- Server.h - Trace-stream session server -----------------*- C++-*-===//
///
/// \file
/// `signalc --serve`: a Unix-domain-socket front end that runs compiled
/// reactive sessions, each on its own scalar executor. Each client
/// connection is one session speaking the binary trace format in both
/// directions:
///
///   client -> server   an optional Resume control frame, then a full
///                      trace stream (header, stimulus frames, trailer)
///                      against the compiled process interface;
///   server -> client   a Hello control frame carrying the session's
///                      resume token, then an outputs-only trace stream
///                      of what the process produced, frame by frame as
///                      batches execute — or a single typed Reject frame
///                      (at-capacity / draining / interface-mismatch /
///                      bad-resume) when the connection is refused.
///
/// Each session feeds the bytes it has received to its own TraceDecoder,
/// the decoder `--replay` uses, so a stream passes exactly the checks a
/// replay of the same bytes does and fails with the same positioned
/// diagnostic: an interface mismatch ends as a typed Reject carrying it,
/// a stream that ends early as a disconnect, anything else as a protocol
/// error. The server itself keeps only session logic: admission and
/// Reject, Hello, resume, and flow control.
///
/// Fault tolerance is part of the protocol. A session that disconnects
/// (or stalls past a deadline) mid-stream is parked: its trace spec and
/// a ring of delay-state checkpoints, one per executed frame boundary,
/// survive the connection. A client reconnecting with Resume(token,
/// interface hash, instant k) is rebound onto a fresh lane whose delay
/// state is restored from the checkpoint at k; it re-sends its header
/// and the stimulus from frame k on, nothing is re-executed, and the
/// response continues headerless at k — concatenating the connections'
/// response bytes (minus the fixed-size Hellos) reproduces an
/// uninterrupted run byte for byte. SIGTERM/SIGINT starts a graceful
/// drain: accepting stops (new connections get the draining reject),
/// resident frames finish, output queues flush behind early trailers,
/// and the server exits 0; a second signal — or the drain grace
/// deadline — forces exit with per-session teardown counters.
///
/// Sessions map onto lanes: the server builds --max-sessions executors
/// over the one shared CompiledStep at start, a joining session claims a
/// free lane (resetting that executor's delay state and counters). Each
/// scheduler wakeup runs round-robin passes, one stepN batch per
/// runnable session per pass, until no session can advance on the bytes
/// already read (or its output queue is over its bound), and then sends
/// each session's queue once. A lane is one VmExecutor, and each batch
/// is one runWindows call (interp/VmExecutor.h), the loop every run goes
/// through: a lane interprets the bytecode until the native tier is
/// ready and the lanes' VM instants together reach --tier-after, then
/// gets the native module attached before its next batch and runs the
/// compiled step on the same state block. A checkpoint is a copy of the
/// lane's delay slots, whichever tier took it.
///
/// Flow control is explicit in both directions: a session whose
/// un-drained response bytes exceed the queue bound stops being stepped
/// until the client reads (outbound backpressure), and a session whose
/// resident inbound frame window runs more than a few batches ahead of
/// execution stops being read and parsed until execution catches up —
/// the kernel socket buffer then backpressures the client, so a fast
/// sender cannot grow server memory without bound. Runnable sessions are
/// drained fair round-robin, and a client disconnecting mid-frame tears
/// its session down cleanly — the lane returns to the free list,
/// everyone else is untouched. A client that half-closes after its
/// trailer is normal: buffered bytes are parsed before an EOF is
/// declared a disconnect.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_IO_SERVER_H
#define SIGNALC_IO_SERVER_H

#include "interp/CompiledStep.h"
#include "native/TierController.h"

#include <string>

namespace sigc {

struct ServeOptions {
  std::string SocketPath;
  /// Concurrent-session capacity: the number of lanes, one scalar
  /// executor each.
  unsigned MaxSessions = 4;
  /// Instants per stepN call: a runnable session advances by one batch
  /// per scheduler pass, and a wakeup runs as many passes as the bytes
  /// it read allow.
  unsigned BatchInstants = 64;
  /// Un-drained response bytes above which a session is not stepped.
  size_t MaxQueuedBytes = 1 << 20;
  /// Batches of instants the inbound resident frame window may run
  /// ahead of execution before the session stops being read and parsed
  /// (inbound flow control; at least one client frame is always
  /// admitted so parsing can progress).
  unsigned MaxAheadBatches = 4;
  /// Exit after this many sessions have ended (0 = serve forever) —
  /// lets tests and scripted drivers run a bounded server.
  unsigned SessionLimit = 0;
  /// Disconnected (or deadline-stalled) sessions parked for resume, at
  /// most this many (oldest evicted first); 0 disables session resume
  /// entirely. While resume is enabled, execution batches are clamped
  /// to frame boundaries so every boundary has a lane checkpoint.
  unsigned MaxParkedSessions = 0;
  /// Delay-state checkpoints retained per session (the resume window:
  /// a client may resume at any of the last this-many frame
  /// boundaries).
  unsigned ResumeCheckpoints = 8;
  /// Global in-flight-batch budget, in instants: each admitted session
  /// reserves its maximum inbound run-ahead window
  /// (MaxAheadBatches * BatchInstants) against this budget, and a
  /// connection whose reservation does not fit is rejected at capacity
  /// even when lanes are free. 0 = unlimited (bounded by MaxSessions
  /// alone).
  uint64_t BatchBudgetInstants = 0;
  /// A session waiting on stimulus that receives no inbound bytes for
  /// this long is torn down as stalled. 0 = no idle deadline.
  unsigned IdleTimeoutMs = 0;
  /// A session with queued response bytes whose client accepts none of
  /// them for this long is torn down as stalled. 0 = no write deadline.
  unsigned WriteTimeoutMs = 0;
  /// Draining (first SIGTERM/SIGINT): sessions that cannot flush within
  /// this long are forcibly torn down and the server exits anyway.
  /// 0 = wait indefinitely (a second signal still forces exit).
  unsigned DrainGraceMs = 0;
  /// SO_SNDBUF for accepted connections (0 = kernel default). Shrinking
  /// it makes outbound backpressure — and therefore the write deadline
  /// — reachable with small streams; an ops/testing knob.
  unsigned SendBufBytes = 0;
  /// Tiered native execution (--native/--cache-dir/--tier-after). Once
  /// the module may run, each lane swaps before its next batch, so
  /// every session sees the handoff at a batch boundary and checkpoints
  /// keep resuming identically.
  TierOptions Tier;
};

/// Serves sessions of \p CS (compiled from process \p ProcName) until
/// SessionLimit is reached. \returns a process exit code: 0 on a clean
/// bounded run or a completed drain, 1 when a second signal forced
/// exit, 2 on a setup failure (socket path, listen).
int runTraceServer(const CompiledStep &CS, const std::string &ProcName,
                   const ServeOptions &Opts);

} // namespace sigc

#endif // SIGNALC_IO_SERVER_H
