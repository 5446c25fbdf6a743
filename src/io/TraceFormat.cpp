//===--- TraceFormat.cpp --------------------------------------------------===//

#include "io/TraceFormat.h"

#include <algorithm>
#include <cstring>

using namespace sigc;

//===----------------------------------------------------------------------===//
// Wire primitives
//===----------------------------------------------------------------------===//

namespace {

void putU16(std::vector<uint8_t> &Out, uint16_t V) {
  Out.push_back(static_cast<uint8_t>(V & 0xFF));
  Out.push_back(static_cast<uint8_t>(V >> 8));
}

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<uint8_t>((V >> (8 * I)) & 0xFF));
}

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>((V >> (8 * I)) & 0xFF));
}

uint16_t getU16(const uint8_t *P) {
  return static_cast<uint16_t>(P[0] | (P[1] << 8));
}

uint32_t getU32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

uint64_t getU64(const uint8_t *P) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

/// Bounds-checked sequential reader over a byte span. Every failure is a
/// Truncated error at the current stream offset, so callers distinguish
/// "need more bytes" from real corruption.
struct Cursor {
  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
  uint64_t Base; ///< Stream offset of Data[0] (diagnostics).

  uint64_t offset() const { return Base + Pos; }
  bool need(size_t N, TraceError &Err, const char *What) {
    if (Len - Pos >= N)
      return true;
    Err = {TraceErrorKind::Truncated, Base + Len,
           std::string("stream ends inside ") + What};
    return false;
  }
  bool u16(uint16_t &V, TraceError &Err, const char *What) {
    if (!need(2, Err, What))
      return false;
    V = getU16(Data + Pos);
    Pos += 2;
    return true;
  }
  bool bytes(const uint8_t *&P, size_t N, TraceError &Err, const char *What) {
    if (!need(N, Err, What))
      return false;
    P = Data + Pos;
    Pos += N;
    return true;
  }
};

/// Bytes one descriptor's values occupy for \p N instants.
size_t valueBytes(TypeKind T, size_t N) {
  switch (T) {
  case TypeKind::Event:
    return 0;
  case TypeKind::Boolean:
    return (N + 7) / 8;
  default:
    return 8 * N;
  }
}

static_assert(sizeof(VmSlot) == 8, "an 8-byte slot records as 8 bytes");

/// The 8 bytes an integer or real slot records as: the integer's two's
/// complement or the real's IEEE-754 bits, whichever member it holds.
uint64_t slotBits(VmSlot S) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &S, 8);
  return Bits;
}

/// The slot of 8 recorded bytes.
VmSlot slotOfBits(const uint8_t *P) {
  uint64_t Bits = getU64(P);
  VmSlot S;
  std::memcpy(&S, &Bits, 8);
  return S;
}

/// Stores \p V little-endian in the \p Bytes bytes at \p P; returns
/// their end.
uint8_t *storeLE(uint8_t *P, uint64_t V, unsigned Bytes) {
  for (unsigned I = 0; I < Bytes; ++I)
    *P++ = static_cast<uint8_t>(V >> (8 * I));
  return P;
}

/// Writes the presence bitmap of \p Flags[0..N) (LSB-first, a nonzero
/// flag sets its bit) at \p P, eight flags per step; returns its end.
uint8_t *packBitmap(uint8_t *P, const unsigned char *Flags, size_t N) {
  for (size_t I = 0; I < N; I += 8) {
    unsigned char Tail[8] = {};
    const unsigned char *F = Flags + I;
    if (N - I < 8) {
      std::copy(F, Flags + N, Tail);
      F = Tail;
    }
    uint64_t X = 0;
    for (unsigned B = 0; B < 8; ++B)
      X |= static_cast<uint64_t>(F[B]) << (8 * B);
    // Fold each byte onto its bit 0, then gather bit 0 of byte k into
    // bit 56 + k: the multiplier's byte j is 1 << (7 - j), so only the
    // partial products with j = 7 - k reach bits 56..63, carry-free.
    X |= (X >> 4) & 0x0F0F0F0F0F0F0F0Full;
    X |= (X >> 2) & 0x0303030303030303ull;
    X |= (X >> 1) & 0x0101010101010101ull;
    X &= 0x0101010101010101ull;
    *P++ = static_cast<uint8_t>((X * 0x0102040810204080ull) >> 56);
  }
  return P;
}

bool bitmapBit(const uint8_t *Bits, size_t I) {
  return (Bits[I / 8] >> (I % 8)) & 1;
}

} // namespace

bool sigc::sameTraceValue(TypeKind T, VmSlot A, VmSlot B) {
  switch (T) {
  case TypeKind::Event:
    return true;
  case TypeKind::Boolean:
    return (A.I != 0) == (B.I != 0);
  default:
    return slotBits(A) == slotBits(B);
  }
}

uint64_t sigc::traceFnv64(const uint8_t *Data, size_t Len) {
  uint64_t H = 14695981039346656037ull;
  for (size_t I = 0; I < Len; ++I) {
    H ^= Data[I];
    H *= 1099511628211ull;
  }
  return H;
}

uint32_t sigc::traceFnv32(const uint8_t *Data, size_t Len) {
  uint32_t H = 2166136261u;
  for (size_t I = 0; I < Len; ++I) {
    H ^= Data[I];
    H *= 16777619u;
  }
  return H;
}

std::string TraceError::str() const {
  return "offset " + std::to_string(Offset) + ": " + Message;
}

//===----------------------------------------------------------------------===//
// TraceSpec
//===----------------------------------------------------------------------===//

TraceSpec TraceSpec::fromStep(const CompiledStep &CS, std::string ProcName,
                              unsigned FrameInstants) {
  TraceSpec S;
  S.ProcName = std::move(ProcName);
  S.FrameInstants = FrameInstants ? FrameInstants : 1;
  for (const auto &CI : CS.ClockInputs)
    S.Clocks.push_back(CI.Name);
  for (const auto &SI : CS.Inputs)
    S.Inputs.push_back({SI.Name, SI.Type});
  for (const auto &SO : CS.Outputs)
    S.Outputs.push_back({SO.Name, SO.Type});
  return S;
}

TraceSpec TraceSpec::outputsOnly() const {
  TraceSpec S;
  S.ProcName = ProcName;
  S.FrameInstants = FrameInstants;
  S.Outputs = Outputs;
  return S;
}

std::string TraceSpec::diff(const TraceSpec &RHS) const {
  auto SigList = [](const std::vector<Signal> &Sigs) {
    std::string Out;
    for (const Signal &S : Sigs)
      Out += (Out.empty() ? "" : ", ") + S.Name + ":" + typeName(S.Type);
    return Out.empty() ? std::string("<none>") : Out;
  };
  if (ProcName != RHS.ProcName)
    return "process '" + ProcName + "' vs '" + RHS.ProcName + "'";
  if (Clocks != RHS.Clocks) {
    std::string A, B;
    for (const std::string &C : Clocks)
      A += (A.empty() ? "" : ", ") + C;
    for (const std::string &C : RHS.Clocks)
      B += (B.empty() ? "" : ", ") + C;
    return "free clocks [" + A + "] vs [" + B + "]";
  }
  if (Inputs != RHS.Inputs)
    return "inputs [" + SigList(Inputs) + "] vs [" + SigList(RHS.Inputs) +
           "]";
  if (Outputs != RHS.Outputs)
    return "outputs [" + SigList(Outputs) + "] vs [" + SigList(RHS.Outputs) +
           "]";
  if (FrameInstants != RHS.FrameInstants)
    return "frame capacity " + std::to_string(FrameInstants) + " vs " +
           std::to_string(RHS.FrameInstants);
  return "";
}

size_t TraceSpec::maxFramePayloadBytes() const {
  const size_t W = FrameInstants;
  const size_t Bitmap = (W + 7) / 8;
  size_t Total = Clocks.size() * Bitmap;
  for (const Signal &S : Inputs)
    Total += valueBytes(S.Type, W);
  for (const Signal &S : Outputs)
    Total += Bitmap + valueBytes(S.Type, W);
  return Total;
}

void TraceFrame::shape(const TraceSpec &Spec) {
  if (Cap == Spec.FrameInstants &&
      ClockTicks.size() == Spec.Clocks.size() * static_cast<size_t>(Cap))
    return;
  Cap = Spec.FrameInstants;
  ClockTicks.assign(Spec.Clocks.size() * static_cast<size_t>(Cap), 0);
  InputVals.assign(Spec.Inputs.size() * static_cast<size_t>(Cap), VmSlot{0});
  OutPresent.assign(Spec.Outputs.size() * static_cast<size_t>(Cap), 0);
  OutVals.assign(Spec.Outputs.size() * static_cast<size_t>(Cap), VmSlot{0});
}

//===----------------------------------------------------------------------===//
// Header codec
//===----------------------------------------------------------------------===//

std::vector<uint8_t> sigc::encodeTraceHeader(const TraceSpec &Spec) {
  std::vector<uint8_t> Out;
  Out.reserve(64);
  Out.insert(Out.end(), TraceMagic, TraceMagic + 4);
  putU16(Out, TraceVersion);
  putU16(Out, TraceEndianMark);
  putU16(Out, static_cast<uint16_t>(Spec.FrameInstants));
  auto PutName = [&Out](const std::string &Name) {
    putU16(Out, static_cast<uint16_t>(Name.size()));
    Out.insert(Out.end(), Name.begin(), Name.end());
  };
  PutName(Spec.ProcName);
  putU16(Out, static_cast<uint16_t>(Spec.Clocks.size()));
  for (const std::string &C : Spec.Clocks)
    PutName(C);
  putU16(Out, static_cast<uint16_t>(Spec.Inputs.size()));
  for (const TraceSpec::Signal &S : Spec.Inputs) {
    Out.push_back(static_cast<uint8_t>(S.Type));
    PutName(S.Name);
  }
  putU16(Out, static_cast<uint16_t>(Spec.Outputs.size()));
  for (const TraceSpec::Signal &S : Spec.Outputs) {
    Out.push_back(static_cast<uint8_t>(S.Type));
    PutName(S.Name);
  }
  putU64(Out, traceFnv64(Out.data() + 4, Out.size() - 4));
  return Out;
}

bool sigc::parseTraceHeader(const uint8_t *Data, size_t Len, TraceSpec &Spec,
                            size_t &HeaderLen, TraceError &Err) {
  Err = TraceError();
  Cursor C{Data, Len, 0, 0};

  const uint8_t *Magic = nullptr;
  if (!C.bytes(Magic, 4, Err, "the trace magic"))
    return false;
  if (std::memcmp(Magic, TraceMagic, 4) != 0) {
    Err = {TraceErrorKind::BadMagic, 0,
           "not a signal trace (bad magic; expected \"SGTR\")"};
    return false;
  }

  uint16_t Version = 0, Endian = 0, FrameW = 0;
  if (!C.u16(Version, Err, "the version field"))
    return false;
  if (Version != TraceVersion) {
    Err = {TraceErrorKind::BadVersion, C.offset() - 2,
           "unsupported trace version " + std::to_string(Version) +
               " (this reader handles version " +
               std::to_string(TraceVersion) + ")"};
    return false;
  }
  if (!C.u16(Endian, Err, "the endianness mark"))
    return false;
  if (Endian != TraceEndianMark) {
    Err = {TraceErrorKind::BadEndian, C.offset() - 2,
           "endianness mark reads 0x" +
               [&] {
                 char Buf[8];
                 std::snprintf(Buf, sizeof Buf, "%04x", Endian);
                 return std::string(Buf);
               }() +
               " (byteswapped trace? this format is little-endian)"};
    return false;
  }
  if (!C.u16(FrameW, Err, "the frame capacity"))
    return false;
  if (FrameW == 0) {
    Err = {TraceErrorKind::Malformed, C.offset() - 2,
           "frame capacity must be at least 1 instant"};
    return false;
  }

  auto GetName = [&C](std::string &Name, TraceError &E,
                      const char *What) -> bool {
    uint16_t NameLen = 0;
    if (!C.u16(NameLen, E, What))
      return false;
    if (NameLen > TraceMaxNameLen) {
      E = {TraceErrorKind::Malformed, C.offset() - 2,
           std::string(What) + " length " + std::to_string(NameLen) +
               " exceeds the format limit " +
               std::to_string(TraceMaxNameLen)};
      return false;
    }
    const uint8_t *P = nullptr;
    if (!C.bytes(P, NameLen, E, What))
      return false;
    Name.assign(reinterpret_cast<const char *>(P), NameLen);
    return true;
  };

  TraceSpec S;
  S.FrameInstants = FrameW;
  if (!GetName(S.ProcName, Err, "the process name"))
    return false;

  uint16_t Count = 0;
  if (!C.u16(Count, Err, "the clock count"))
    return false;
  for (unsigned I = 0; I < Count; ++I) {
    std::string Name;
    if (!GetName(Name, Err, "a clock name"))
      return false;
    S.Clocks.push_back(std::move(Name));
  }

  auto GetSignals = [&](std::vector<TraceSpec::Signal> &Sigs,
                        const char *What) -> bool {
    uint16_t N = 0;
    if (!C.u16(N, Err, What))
      return false;
    for (unsigned I = 0; I < N; ++I) {
      const uint8_t *TypeByte = nullptr;
      if (!C.bytes(TypeByte, 1, Err, "a signal type"))
        return false;
      if (*TypeByte > static_cast<uint8_t>(TypeKind::Real)) {
        Err = {TraceErrorKind::Malformed, C.offset() - 1,
               "invalid signal type code " + std::to_string(*TypeByte)};
        return false;
      }
      TraceSpec::Signal Sig;
      Sig.Type = static_cast<TypeKind>(*TypeByte);
      if (!GetName(Sig.Name, Err, "a signal name"))
        return false;
      Sigs.push_back(std::move(Sig));
    }
    return true;
  };
  if (!GetSignals(S.Inputs, "the input count"))
    return false;
  if (!GetSignals(S.Outputs, "the output count"))
    return false;

  size_t HashedEnd = C.Pos;
  uint64_t StoredHash = 0;
  const uint8_t *HashBytes = nullptr;
  if (!C.bytes(HashBytes, 8, Err, "the interface hash"))
    return false;
  StoredHash = getU64(HashBytes);
  uint64_t Computed = traceFnv64(Data + 4, HashedEnd - 4);
  if (StoredHash != Computed) {
    Err = {TraceErrorKind::InterfaceMismatch, HashedEnd,
           "interface hash mismatch (header corrupt or rewritten: stored " +
               std::to_string(StoredHash) + ", computed " +
               std::to_string(Computed) + ")"};
    return false;
  }

  Spec = std::move(S);
  HeaderLen = C.Pos;
  return true;
}

//===----------------------------------------------------------------------===//
// Frame codec
//===----------------------------------------------------------------------===//

void sigc::encodeTraceFrame(const TraceSpec &Spec, const TraceFrame &F,
                            std::vector<uint8_t> &Out) {
  const size_t Cap = F.Cap;
  const unsigned N = F.Count;
  // The payload is written in place behind room for the frame header,
  // which is filled in once the payload's length and checksum are known.
  const size_t At = Out.size();
  Out.resize(At + TraceFrameHeaderBytes + Spec.maxFramePayloadBytes());
  uint8_t *const Payload = Out.data() + At + TraceFrameHeaderBytes;
  uint8_t *P = Payload;

  for (size_t C = 0; C < Spec.Clocks.size(); ++C)
    P = packBitmap(P, &F.ClockTicks[C * Cap], N);

  for (size_t I = 0; I < Spec.Inputs.size(); ++I) {
    const TypeKind T = Spec.Inputs[I].Type;
    const VmSlot *Row = &F.InputVals[I * Cap];
    if (T == TypeKind::Boolean) {
      for (size_t Byte = 0; Byte * 8 < N; ++Byte) {
        uint8_t B = 0;
        for (size_t Bit = 0; Bit < 8 && Byte * 8 + Bit < N; ++Bit)
          if (Row[Byte * 8 + Bit].I)
            B |= static_cast<uint8_t>(1u << Bit);
        *P++ = B;
      }
    } else if (T != TypeKind::Event) {
      for (unsigned J = 0; J < N; ++J)
        P = storeLE(P, slotBits(Row[J]), 8);
    }
  }

  for (size_t O = 0; O < Spec.Outputs.size(); ++O) {
    const TypeKind T = Spec.Outputs[O].Type;
    const unsigned char *Present = &F.OutPresent[O * Cap];
    const VmSlot *Row = &F.OutVals[O * Cap];
    P = packBitmap(P, Present, N);
    if (T == TypeKind::Boolean) {
      uint8_t B = 0;
      unsigned Bit = 0;
      for (unsigned J = 0; J < N; ++J) {
        if (!Present[J])
          continue;
        if (Row[J].I)
          B |= static_cast<uint8_t>(1u << Bit);
        if (++Bit == 8) {
          *P++ = B;
          B = 0;
          Bit = 0;
        }
      }
      if (Bit)
        *P++ = B;
    } else if (T != TypeKind::Event) {
      for (unsigned J = 0; J < N; ++J)
        if (Present[J])
          P = storeLE(P, slotBits(Row[J]), 8);
    }
  }

  const size_t Len = static_cast<size_t>(P - Payload);
  uint8_t *H = Out.data() + At;
  H = storeLE(H, Len, 4);
  H = storeLE(H, F.Start, 4);
  H = storeLE(H, N, 2);
  H = storeLE(H, 0, 2);
  storeLE(H, traceFnv32(Payload, Len), 4);
  Out.resize(At + TraceFrameHeaderBytes + Len);
}

void sigc::encodeTraceTrailer(unsigned TotalInstants,
                              std::vector<uint8_t> &Out) {
  putU32(Out, 0);
  putU32(Out, TotalInstants);
  putU16(Out, 0);
  putU16(Out, 0);
  putU32(Out, traceFnv32(nullptr, 0));
}

TraceFrameStatus sigc::decodeTraceFrame(const TraceSpec &Spec,
                                        const uint8_t *Data, size_t Len,
                                        uint64_t StreamOffset, TraceFrame &F,
                                        size_t &Consumed,
                                        unsigned &TotalInstants,
                                        TraceError &Err) {
  Err = TraceError();
  if (Len < TraceFrameHeaderBytes) {
    Err = {TraceErrorKind::Truncated, StreamOffset + Len,
           "stream ends inside a frame header (no trailer seen)"};
    return TraceFrameStatus::NeedMore;
  }
  const uint32_t PayloadLen = getU32(Data);
  const uint32_t Start = getU32(Data + 4);
  const uint16_t Count = getU16(Data + 8);
  const uint16_t Reserved = getU16(Data + 10);
  const uint32_t Checksum = getU32(Data + 12);

  if (Reserved != 0) {
    Err = {TraceErrorKind::Malformed, StreamOffset + 10,
           "reserved frame-header field is nonzero"};
    return TraceFrameStatus::Error;
  }
  if (Count == 0) {
    if (PayloadLen != 0) {
      Err = {TraceErrorKind::Malformed, StreamOffset,
             "zero-instant frame with a nonzero payload length"};
      return TraceFrameStatus::Error;
    }
    Consumed = TraceFrameHeaderBytes;
    TotalInstants = Start;
    return TraceFrameStatus::End;
  }
  if (Count > Spec.FrameInstants) {
    Err = {TraceErrorKind::Malformed, StreamOffset + 8,
           "frame carries " + std::to_string(Count) +
               " instants but the header's frame capacity is " +
               std::to_string(Spec.FrameInstants)};
    return TraceFrameStatus::Error;
  }
  // Frames cover the fixed ranges [k*W, (k+1)*W): an unaligned start
  // means the previous frame was partial mid-stream, which would break
  // the constant-time frame indexing replay windows rely on.
  if (Start % Spec.FrameInstants != 0) {
    Err = {TraceErrorKind::Malformed, StreamOffset + 4,
           "frame starts at instant " + std::to_string(Start) +
               ", which is not a multiple of the frame capacity " +
               std::to_string(Spec.FrameInstants) +
               " (only the stream's final frame may be partial)"};
    return TraceFrameStatus::Error;
  }
  if (PayloadLen > Spec.maxFramePayloadBytes()) {
    Err = {TraceErrorKind::Malformed, StreamOffset,
           "oversized frame: payload length " + std::to_string(PayloadLen) +
               " exceeds the interface's maximum of " +
               std::to_string(Spec.maxFramePayloadBytes()) + " bytes"};
    return TraceFrameStatus::Error;
  }
  if (Len < TraceFrameHeaderBytes + static_cast<size_t>(PayloadLen)) {
    Err = {TraceErrorKind::Truncated, StreamOffset + Len,
           "stream ends inside a frame payload (frame at offset " +
               std::to_string(StreamOffset) + " declares " +
               std::to_string(PayloadLen) + " payload bytes)"};
    return TraceFrameStatus::NeedMore;
  }

  const uint8_t *Payload = Data + TraceFrameHeaderBytes;
  if (traceFnv32(Payload, PayloadLen) != Checksum) {
    Err = {TraceErrorKind::Corrupt, StreamOffset + TraceFrameHeaderBytes,
           "corrupt frame: payload checksum mismatch"};
    return TraceFrameStatus::Error;
  }

  F.shape(Spec);
  F.Start = Start;
  F.Count = Count;
  const size_t Cap = F.Cap;
  Cursor C{Payload, PayloadLen, 0, StreamOffset + TraceFrameHeaderBytes};
  const size_t BitmapBytes = (Count + 7) / 8;

  auto Fail = [&](const char *What) {
    Err = {TraceErrorKind::Corrupt, C.offset(),
           std::string("corrupt frame: payload exhausted inside ") + What};
    return TraceFrameStatus::Error;
  };

  for (size_t Cl = 0; Cl < Spec.Clocks.size(); ++Cl) {
    const uint8_t *Bits = nullptr;
    if (!C.bytes(Bits, BitmapBytes, Err, "a clock bitmap"))
      return Fail("a clock bitmap");
    unsigned char *Row = &F.ClockTicks[Cl * Cap];
    for (unsigned J = 0; J < Count; ++J)
      Row[J] = bitmapBit(Bits, J) ? 1 : 0;
  }

  for (size_t I = 0; I < Spec.Inputs.size(); ++I) {
    const TypeKind T = Spec.Inputs[I].Type;
    VmSlot *Row = &F.InputVals[I * Cap];
    if (T == TypeKind::Event) {
      for (unsigned J = 0; J < Count; ++J)
        Row[J].I = 1;
    } else if (T == TypeKind::Boolean) {
      const uint8_t *Bits = nullptr;
      if (!C.bytes(Bits, BitmapBytes, Err, "an input bitmap"))
        return Fail("an input value bitmap");
      for (unsigned J = 0; J < Count; ++J)
        Row[J].I = bitmapBit(Bits, J);
    } else {
      const uint8_t *Vals = nullptr;
      if (!C.bytes(Vals, 8 * static_cast<size_t>(Count), Err,
                   "input values"))
        return Fail("an input value row");
      for (unsigned J = 0; J < Count; ++J)
        Row[J] = slotOfBits(Vals + 8 * static_cast<size_t>(J));
    }
  }

  for (size_t O = 0; O < Spec.Outputs.size(); ++O) {
    const TypeKind T = Spec.Outputs[O].Type;
    unsigned char *Present = &F.OutPresent[O * Cap];
    VmSlot *Row = &F.OutVals[O * Cap];
    const uint8_t *Bits = nullptr;
    if (!C.bytes(Bits, BitmapBytes, Err, "an output bitmap"))
      return Fail("an output presence bitmap");
    unsigned NumPresent = 0;
    for (unsigned J = 0; J < Count; ++J) {
      Present[J] = bitmapBit(Bits, J) ? 1 : 0;
      NumPresent += Present[J];
    }
    if (T == TypeKind::Event) {
      for (unsigned J = 0; J < Count; ++J)
        if (Present[J])
          Row[J].I = 1;
    } else if (T == TypeKind::Boolean) {
      const uint8_t *VBits = nullptr;
      if (!C.bytes(VBits, (NumPresent + 7) / 8, Err, "output booleans"))
        return Fail("an output boolean row");
      unsigned Bit = 0;
      for (unsigned J = 0; J < Count; ++J)
        if (Present[J])
          Row[J].I = bitmapBit(VBits, Bit++);
    } else {
      const uint8_t *Vals = nullptr;
      if (!C.bytes(Vals, 8 * static_cast<size_t>(NumPresent), Err,
                   "output values"))
        return Fail("an output value row");
      unsigned At = 0;
      for (unsigned J = 0; J < Count; ++J)
        if (Present[J])
          Row[J] = slotOfBits(Vals + 8 * static_cast<size_t>(At++));
    }
  }

  if (C.Pos != PayloadLen) {
    Err = {TraceErrorKind::Corrupt, C.offset(),
           "corrupt frame: " + std::to_string(PayloadLen - C.Pos) +
               " trailing payload byte(s) after the last descriptor"};
    return TraceFrameStatus::Error;
  }

  Consumed = TraceFrameHeaderBytes + PayloadLen;
  return TraceFrameStatus::Frame;
}

//===----------------------------------------------------------------------===//
// Serve control frames
//===----------------------------------------------------------------------===//

const char *sigc::serveRejectReasonName(ServeRejectReason R) {
  switch (R) {
  case ServeRejectReason::AtCapacity:
    return "at capacity";
  case ServeRejectReason::Draining:
    return "draining";
  case ServeRejectReason::InterfaceMismatch:
    return "interface mismatch";
  case ServeRejectReason::BadResume:
    return "bad resume";
  }
  return "unknown";
}

void sigc::encodeServeCtrl(const ServeCtrl &C, std::vector<uint8_t> &Out) {
  Out.insert(Out.end(), ServeCtrlMagic, ServeCtrlMagic + 4);
  Out.push_back(static_cast<uint8_t>(C.Type));
  Out.push_back(C.Type == ServeCtrlType::Reject
                    ? static_cast<uint8_t>(C.Reason)
                    : 0);
  switch (C.Type) {
  case ServeCtrlType::Hello:
    putU16(Out, 8);
    putU64(Out, C.Token);
    break;
  case ServeCtrlType::Reject: {
    size_t Len = std::min<size_t>(C.Message.size(), ServeCtrlMaxBody);
    putU16(Out, static_cast<uint16_t>(Len));
    Out.insert(Out.end(), C.Message.data(), C.Message.data() + Len);
    break;
  }
  case ServeCtrlType::Resume:
    putU16(Out, 20);
    putU64(Out, C.Token);
    putU64(Out, C.InterfaceHash);
    putU32(Out, C.ResumeInstant);
    break;
  }
}

TraceFrameStatus sigc::decodeServeCtrl(const uint8_t *Data, size_t Len,
                                       uint64_t StreamOffset, ServeCtrl &C,
                                       size_t &Consumed, TraceError &Err) {
  if (Len < ServeCtrlHeaderBytes) {
    Err = {TraceErrorKind::Truncated, StreamOffset + Len,
           "stream ends inside a control frame header"};
    return TraceFrameStatus::NeedMore;
  }
  if (std::memcmp(Data, ServeCtrlMagic, 4) != 0) {
    Err = {TraceErrorKind::BadMagic, StreamOffset,
           "bad control frame magic"};
    return TraceFrameStatus::Error;
  }
  uint8_t Type = Data[4], Code = Data[5];
  uint16_t BodyLen = getU16(Data + 6);
  if (BodyLen > ServeCtrlMaxBody) {
    Err = {TraceErrorKind::Malformed, StreamOffset + 6,
           "control frame body of " + std::to_string(BodyLen) +
               " bytes exceeds the limit"};
    return TraceFrameStatus::Error;
  }
  if (Len < ServeCtrlHeaderBytes + static_cast<size_t>(BodyLen)) {
    Err = {TraceErrorKind::Truncated, StreamOffset + Len,
           "stream ends inside a control frame body"};
    return TraceFrameStatus::NeedMore;
  }
  const uint8_t *Body = Data + ServeCtrlHeaderBytes;
  switch (Type) {
  case static_cast<uint8_t>(ServeCtrlType::Hello):
    if (BodyLen != 8) {
      Err = {TraceErrorKind::Malformed, StreamOffset + 6,
             "hello frame body must be 8 bytes, got " +
                 std::to_string(BodyLen)};
      return TraceFrameStatus::Error;
    }
    C.Type = ServeCtrlType::Hello;
    C.Token = getU64(Body);
    break;
  case static_cast<uint8_t>(ServeCtrlType::Reject):
    if (Code < static_cast<uint8_t>(ServeRejectReason::AtCapacity) ||
        Code > static_cast<uint8_t>(ServeRejectReason::BadResume)) {
      Err = {TraceErrorKind::Malformed, StreamOffset + 5,
             "unknown reject reason code " + std::to_string(Code)};
      return TraceFrameStatus::Error;
    }
    C.Type = ServeCtrlType::Reject;
    C.Reason = static_cast<ServeRejectReason>(Code);
    C.Message.assign(reinterpret_cast<const char *>(Body), BodyLen);
    break;
  case static_cast<uint8_t>(ServeCtrlType::Resume):
    if (BodyLen != 20) {
      Err = {TraceErrorKind::Malformed, StreamOffset + 6,
             "resume frame body must be 20 bytes, got " +
                 std::to_string(BodyLen)};
      return TraceFrameStatus::Error;
    }
    C.Type = ServeCtrlType::Resume;
    C.Token = getU64(Body);
    C.InterfaceHash = getU64(Body + 8);
    C.ResumeInstant = getU32(Body + 16);
    break;
  default:
    Err = {TraceErrorKind::Malformed, StreamOffset + 4,
           "unknown control frame type " + std::to_string(Type)};
    return TraceFrameStatus::Error;
  }
  Consumed = ServeCtrlHeaderBytes + BodyLen;
  return TraceFrameStatus::Frame;
}

uint64_t sigc::traceSpecHash(const TraceSpec &Spec) {
  // The trace header ends with its interface hash: reuse it, so a Resume
  // request's hash is exactly the one both sides already exchanged in
  // their stream headers.
  std::vector<uint8_t> Header = encodeTraceHeader(Spec);
  return getU64(Header.data() + Header.size() - 8);
}
