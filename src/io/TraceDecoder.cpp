//===--- TraceDecoder.cpp -------------------------------------------------===//

#include "io/TraceDecoder.h"

#include "io/FaultInjection.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace sigc;

namespace {

/// Bytes one refill asks read(2) for.
constexpr size_t ChunkBytes = 1 << 16;

} // namespace

//===----------------------------------------------------------------------===//
// TraceDecoder
//===----------------------------------------------------------------------===//

TraceFrameStatus TraceDecoder::fail(TraceErrorKind Kind, std::string Message) {
  Err = {Kind, Offset, std::move(Message)};
  return TraceFrameStatus::Error;
}

TraceFrameStatus TraceDecoder::header(const uint8_t *Data, size_t Len,
                                      bool AtEnd, size_t &Consumed) {
  size_t HeaderLen = 0;
  if (!parseTraceHeader(Data, Len, Spec, HeaderLen, Err)) {
    if (!Err.needMoreData() || AtEnd)
      return TraceFrameStatus::Error;
    if (Len > TraceMaxHeaderBytes) {
      Err = {TraceErrorKind::Malformed, TraceMaxHeaderBytes,
             "stream header exceeds " + std::to_string(TraceMaxHeaderBytes) +
                 " bytes"};
      return TraceFrameStatus::Error;
    }
    Err = TraceError();
    return TraceFrameStatus::NeedMore;
  }
  if (Expect) {
    std::string Diff = Spec.diff(
        TraceSpec::fromStep(*Expect, Spec.ProcName, Spec.FrameInstants));
    if (!Diff.empty()) {
      Err = {TraceErrorKind::InterfaceMismatch, HeaderLen,
             "trace interface does not match the served process: " + Diff};
      return TraceFrameStatus::Error;
    }
  }
  Consumed = HeaderLen;
  Offset = HeaderLen;
  HeaderDone = true;
  return TraceFrameStatus::Header;
}

TraceFrameStatus TraceDecoder::next(const uint8_t *Data, size_t Len,
                                    bool AtEnd, TraceFrame &F,
                                    size_t &Consumed) {
  Consumed = 0;
  if (!Err.ok())
    return TraceFrameStatus::Error;
  if (Finished)
    return TraceFrameStatus::End;
  if (!HeaderDone)
    return header(Data, Len, AtEnd, Consumed);

  unsigned Total = 0;
  size_t Used = 0;
  TraceFrameStatus St =
      decodeTraceFrame(Spec, Data, Len, Offset, F, Used, Total, Err);
  if (St == TraceFrameStatus::NeedMore) {
    if (AtEnd)
      return TraceFrameStatus::Error; // Err is the positioned truncation.
    Err = TraceError();
    return St;
  }
  if (St == TraceFrameStatus::Error)
    return St;
  if (St == TraceFrameStatus::Frame) {
    if (F.Start != Next)
      return fail(TraceErrorKind::Malformed,
                  "frame starts at instant " + std::to_string(F.Start) +
                      " but the stream is at instant " +
                      std::to_string(Next));
    Next = F.end();
  } else if (Total != Next) {
    return fail(TraceErrorKind::Malformed,
                "trailer declares " + std::to_string(Total) +
                    " instants but frames covered " + std::to_string(Next));
  } else {
    Finished = true;
  }
  Consumed = Used;
  Offset += Used;
  return St;
}

//===----------------------------------------------------------------------===//
// TraceInput
//===----------------------------------------------------------------------===//

TraceInput::TraceInput(int Fd, bool OwnsFd, IoSyscalls *Sys)
    : Eof(false), Fd(Fd), OwnsFd(OwnsFd),
      Sys(Sys ? Sys : &IoSyscalls::system()) {}

TraceInput::~TraceInput() {
  if (Map)
    ::munmap(Map, Len);
  if (OwnsFd)
    ::close(Fd);
}

bool TraceInput::open(const std::string &Path, std::string &Error) {
  int F = ::open(Path.c_str(), O_RDONLY);
  struct stat St;
  if (F < 0 || ::fstat(F, &St) != 0) {
    Error = Path + ": " + std::strerror(errno);
    if (F >= 0)
      ::close(F);
    return false;
  }
  if (!S_ISREG(St.st_mode)) {
    Fd = F;
    OwnsFd = true;
    Sys = &IoSyscalls::system();
    Eof = false;
    return true;
  }
  size_t Size = static_cast<size_t>(St.st_size);
  if (Size > 0) {
    void *M = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, F, 0);
    if (M == MAP_FAILED) {
      Error = Path + ": mmap failed: " + std::strerror(errno);
      ::close(F);
      return false;
    }
    Map = M;
    Data = static_cast<const uint8_t *>(M);
    Len = Size;
  }
  ::close(F);
  return true;
}

bool TraceInput::refill(std::string &Why) {
  if (Pos) {
    std::memmove(Buf.data(), Buf.data() + Pos, Len - Pos);
    Len -= Pos;
    Pos = 0;
  }
  if (Buf.size() < Len + ChunkBytes)
    Buf.resize(Len + ChunkBytes);
  Data = Buf.data();
  for (;;) {
    ssize_t N = Sys->read(Fd, Buf.data() + Len, Buf.size() - Len);
    if (N > 0) {
      Len += static_cast<size_t>(N);
      return true;
    }
    if (N == 0) {
      Eof = true;
      return true;
    }
    if (errno != EINTR) {
      Why = std::strerror(errno);
      return false;
    }
  }
}

TraceFrameStatus TraceInput::next(TraceDecoder &Dec, TraceFrame &F) {
  for (;;) {
    size_t Used = 0;
    TraceFrameStatus St = Dec.next(Data + Pos, Len - Pos, Eof, F, Used);
    Pos += Used;
    if (St != TraceFrameStatus::NeedMore)
      return St;
    std::string Why;
    if (!refill(Why))
      return Dec.fail(TraceErrorKind::Io, "read failed: " + Why);
  }
}

bool TraceInput::readHeader(TraceDecoder &Dec) {
  TraceFrame Unused;
  return next(Dec, Unused) == TraceFrameStatus::Header;
}
