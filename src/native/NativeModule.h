//===--- NativeModule.h - dlopen'ed native step artifact --------*- C++-*-===//
///
/// \file
/// The native tier's unit of deployment: one shared object holding the
/// PR 5 emitted C for a CompiledStep (under the fixed internal name
/// `sigc_unit`, so the cache is process-name independent) plus a
/// generated *shim* — a small C layer exposing a stable, struct-free
/// ABI the host can drive without knowing the emitted struct layouts:
///
///   * `sigc_native_abi_tag` / `sigc_native_hash` / `sigc_native_flags`
///     validate an artifact before use (ABI mismatch, stale content, or
///     flag drift each read as a cache miss and trigger recompilation),
///   * `sigc_native_run` marshals columnar, strided tick/input buffers
///     (exactly the VmExecutor batch layout) through `sigc_unit_step`
///     and writes presence/value output rows in flush order,
///   * state accessors move delay slots and the guard/executed counters
///     across the VM<->native boundary, which is what makes hot swap at
///     a batch boundary a plain state copy.
///
/// Values cross the boundary as `NativeValue`, a POD mirroring the three
/// C storage classes of the emitter's type mapping (double/long/int);
/// the host reconstructs tagged `Value`s from the declared descriptor
/// types, the same rule the differential oracle's C round-trip leg uses.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_NATIVE_NATIVEMODULE_H
#define SIGNALC_NATIVE_NATIVEMODULE_H

#include "interp/CompiledStep.h"

#include <string>

namespace sigc {

/// POD value crossing the host/native boundary. Mirrors the emitter's
/// C storage classes; which field is live is determined by the declared
/// descriptor or slot type on the host side.
struct NativeValue {
  double D;
  long I;
  int B;
};

/// Loaded native artifact: dlopen handle plus resolved entry points.
class NativeModule {
public:
  NativeModule() = default;
  NativeModule(const NativeModule &) = delete;
  NativeModule &operator=(const NativeModule &) = delete;
  ~NativeModule();

  /// Generates the full native compile unit for \p CS: the emitted C
  /// under the fixed internal name, then the shim. \p Hash is embedded
  /// for staleness detection.
  static std::string buildSource(const CompiledStep &CS,
                                 const std::string &Hash);

  /// Loads and validates \p Path: dlopen must succeed, every symbol must
  /// resolve, the ABI tag must equal NativeFormatVersion, the embedded
  /// flags must equal nativeCcFlags(), and the embedded hash must equal
  /// \p ExpectHash. Any failure returns false with \p Error set and the
  /// module unloaded — the caller treats the artifact as corrupt.
  bool load(const std::string &Path, const std::string &ExpectHash,
            std::string &Error);

  bool loaded() const { return Handle != nullptr; }
  const std::string &path() const { return Path; }

  //===--- Resolved entry points ------------------------------------------===//

  unsigned long stateBytes() const { return StateBytesFn(); }
  unsigned numStateSlots() const { return NumStateFn(); }
  void init(void *State) const { InitFn(State); }
  void getState(const void *State, NativeValue *Out) const {
    GetStateFn(State, Out);
  }
  void setState(void *State, const NativeValue *In) const {
    SetStateFn(State, In);
  }
  void getCounters(const void *State, unsigned long long *Guards,
                   unsigned long long *Executed) const {
    GetCountersFn(State, Guards, Executed);
  }
  void setCounters(void *State, unsigned long long Guards,
                   unsigned long long Executed) const {
    SetCountersFn(State, Guards, Executed);
  }

  /// Runs \p Count instants: Ticks[d * TickStride + i] and
  /// Ins[d * InStride + i] are columnar over descriptors, OutPresent and
  /// OutVals are row-major [i * NumOutputs + flush position].
  void run(void *State, const unsigned char *Ticks, unsigned long TickStride,
           const NativeValue *Ins, unsigned long InStride,
           unsigned char *OutPresent, NativeValue *OutVals,
           unsigned Count) const {
    RunFn(State, Ticks, TickStride, Ins, InStride, OutPresent, OutVals, Count);
  }

private:
  void close();

  void *Handle = nullptr;
  std::string Path;

  int (*AbiTagFn)() = nullptr;
  const char *(*HashFn)() = nullptr;
  const char *(*FlagsFn)() = nullptr;
  unsigned long (*StateBytesFn)() = nullptr;
  unsigned (*NumStateFn)() = nullptr;
  void (*InitFn)(void *) = nullptr;
  void (*GetStateFn)(const void *, NativeValue *) = nullptr;
  void (*SetStateFn)(void *, const NativeValue *) = nullptr;
  void (*GetCountersFn)(const void *, unsigned long long *,
                        unsigned long long *) = nullptr;
  void (*SetCountersFn)(void *, unsigned long long,
                        unsigned long long) = nullptr;
  void (*RunFn)(void *, const unsigned char *, unsigned long,
                const NativeValue *, unsigned long, unsigned char *,
                NativeValue *, unsigned) = nullptr;
};

} // namespace sigc

#endif // SIGNALC_NATIVE_NATIVEMODULE_H
