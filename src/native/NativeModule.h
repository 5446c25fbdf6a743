//===--- NativeModule.h - dlopen'ed native step artifact --------*- C++-*-===//
///
/// \file
/// The native tier's unit of deployment: one shared object holding the
/// emitted C for a CompiledStep (under the fixed internal name
/// `sigc_unit`, so the cache is process-name independent) plus a
/// generated *shim* with a small, stable ABI:
///
///   * `sigc_native_abi_tag` / `sigc_native_hash` / `sigc_native_flags`
///     validate an artifact before use (ABI mismatch, stale content, or
///     flag drift each read as a cache miss and trigger recompilation),
///     and `sigc_native_state_bytes` / `sigc_native_num_state` let the
///     loader check the state layout;
///   * `sigc_native_run` runs a batch on a state block the host owns:
///     columnar, strided tick/input buffers (exactly the VmExecutor batch
///     layout) go through `sigc_unit_step`, and presence/value output
///     rows come back in flush order. It returns the instants it ran: a
///     failed clock check stops the batch after its instant, whose code
///     it stores through its last argument.
///
/// The emitted state struct is the VM's state block byte for byte (two
/// 8-byte counters, then one 8-byte slot per delay), so the host hands
/// the VM's own block to `run` and no state is ever converted. Inputs
/// and outputs cross as VmSlots of the descriptors' declared types, in
/// the VM's own batch buffers: the tick and input columns the
/// environment filled and the flush rows it receives back, so no value
/// is converted either.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_NATIVE_NATIVEMODULE_H
#define SIGNALC_NATIVE_NATIVEMODULE_H

#include "interp/VmExecutor.h"

#include <string>

namespace sigc {

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
  /// flags must equal nativeCcFlags(), the state block must be the VM's
  /// layout (16 + 8 * N bytes for N delays), and the embedded hash must
  /// equal \p ExpectHash. Any failure returns false with \p Error set and
  /// the module unloaded — the caller treats the artifact as corrupt.
  bool load(const std::string &Path, const std::string &ExpectHash,
            std::string &Error);

  bool loaded() const { return Handle != nullptr; }
  const std::string &path() const { return Path; }

  //===--- Resolved entry points ------------------------------------------===//

  /// Delay slots of the artifact's state block.
  unsigned numStateSlots() const { return NumStateFn(); }

  /// Runs \p Count instants on the state block \p State (the layout of
  /// VmExecutor's): Ticks[d * TickStride + i] and Ins[d * InStride + i]
  /// are columnar over descriptors, OutPresent and Outs are row-major
  /// [i * NumOutputs + flush position]. \returns the instants run;
  /// \p CheckCode is 0, or the ClockCheckFailure::code of the check that
  /// failed in the last of them and stopped the batch.
  unsigned run(VmSlot *State, const unsigned char *Ticks,
               unsigned long TickStride, const VmSlot *Ins,
               unsigned long InStride, unsigned char *OutPresent, VmSlot *Outs,
               unsigned Count, int32_t &CheckCode) const {
    int Code = 0;
    unsigned Ran = RunFn(State, Ticks, TickStride, Ins, InStride, OutPresent,
                         Outs, Count, &Code);
    CheckCode = Code;
    return Ran;
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
  unsigned (*RunFn)(VmSlot *, const unsigned char *, unsigned long,
                    const VmSlot *, unsigned long, unsigned char *, VmSlot *,
                    unsigned, int *) = nullptr;
};

} // namespace sigc

#endif // SIGNALC_NATIVE_NATIVEMODULE_H
