//===--- StepHash.cpp -----------------------------------------------------===//

#include "native/StepHash.h"

#include <cstdio>
#include <cstring>

using namespace sigc;

// -O1: the emitted step is one large function, and -O2 costs about
// twice -O1's time on it. Measured with gcc 12.2 on a 4-vCPU x86-64 host
// (this command line, median of 3): STOPWATCH's optimized step, 4,626
// lines of C, compiles in 0.33 s at -O0, 0.83 s at -O1 and 1.53 s at
// -O2; WATCH's 2,839 lines in 0.22, 0.43 and 0.61 s. A cold native start
// is almost all host cc, so -O2 would not pay back on short runs. -O1
// is also what the differential oracle compiles the emitted C with, so
// the tier inherits proven flags.
const char *sigc::nativeCcFlags() { return "-std=c99 -O1 -fPIC -shared"; }

namespace {

/// FNV-1a 64 accumulator with typed feeders. Every field is fed through a
/// fixed-width little-endian encoding so the hash is stable across hosts
/// with the same artifact ABI.
struct Fnv {
  uint64_t H = 0xcbf29ce484222325ull;

  void bytes(const void *P, size_t N) {
    const unsigned char *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 0x100000001b3ull;
    }
  }
  void u64(uint64_t V) {
    unsigned char B[8];
    for (int I = 0; I < 8; ++I)
      B[I] = static_cast<unsigned char>(V >> (8 * I));
    bytes(B, 8);
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V) {
    // Bit pattern, not value: -0.0 and 0.0 emit different literals.
    uint64_t Bits;
    std::memcpy(&Bits, &V, 8);
    u64(Bits);
  }
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
  void value(const Value &V) {
    u64(static_cast<uint64_t>(V.Kind));
    u64(V.Bool ? 1 : 0);
    i64(V.Int);
    f64(V.Real);
  }
};

} // namespace

std::string sigc::hashCompiledStep(const CompiledStep &CS) {
  Fnv F;
  F.u64(static_cast<uint64_t>(NativeFormatVersion));
  F.str(nativeCcFlags());

  F.u64(CS.NumClockSlots);
  F.u64(CS.NumValueSlots);
  F.u64(CS.NumTempSlots);

  F.u64(CS.StateInit.size());
  for (const Value &V : CS.StateInit)
    F.value(V);

  F.u64(CS.Code.size());
  for (const VmInstr &In : CS.Code) {
    F.u64(static_cast<uint64_t>(In.Op));
    F.i64(In.Target);
    F.i64(In.A);
    F.i64(In.B);
    F.i64(In.Aux);
  }

  F.u64(CS.Consts.size());
  for (const Value &V : CS.Consts)
    F.value(V);

  F.u64(CS.ClockInputs.size());
  for (const auto &CI : CS.ClockInputs) {
    F.i64(CI.Slot);
    F.str(CI.Name);
  }
  auto FeedIO = [&F](const std::vector<StepProgram::SignalIODesc> &IOs) {
    F.u64(IOs.size());
    for (const auto &SI : IOs) {
      F.i64(SI.ValueSlot);
      F.i64(SI.ClockSlot);
      F.u64(static_cast<uint64_t>(SI.Type));
      F.str(SI.Name);
    }
  };
  FeedIO(CS.Inputs);
  FeedIO(CS.Outputs);

  F.u64(CS.SignalClockSlot.size());
  for (int S : CS.SignalClockSlot)
    F.i64(S);
  F.u64(CS.SlotType.size());
  for (TypeKind T : CS.SlotType)
    F.u64(static_cast<uint64_t>(T));
  F.u64(CS.OutputFlushOrder.size());
  for (int32_t O : CS.OutputFlushOrder)
    F.i64(O);

  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx",
                static_cast<unsigned long long>(F.H));
  return Buf;
}
