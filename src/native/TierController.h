//===--- TierController.h - VM -> native tier promotion ---------*- C++-*-===//
///
/// \file
/// Decides and performs the tier handoff for one CompiledStep. On
/// start():
///
///   * the step is content-hashed and looked up in the NativeCache — a
///     hit loads immediately (no compiler spawn) and the session runs
///     native from instant 0;
///   * on a miss in Auto mode, execution stays on the VM while a
///     background thread emits the C, runs the host cc, publishes the
///     artifact, and loads it; the session polls shouldPromote() at
///     batch boundaries and swaps when the module is ready and the
///     warm-up threshold (--tier-after) has passed;
///   * Force mode compiles synchronously before the first instant and
///     fails hard if it cannot go native; Off never leaves the VM.
///
/// The controller also aggregates the per-tier instant counters that
/// --stats reports. It is safe to poll from the execution thread while
/// the worker compiles: the loaded module is published through an
/// acquire/release flag.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_NATIVE_TIERCONTROLLER_H
#define SIGNALC_NATIVE_TIERCONTROLLER_H

#include "native/NativeCache.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace sigc {

/// --native operating mode.
enum class NativeMode : uint8_t {
  Off,   ///< Interpret forever.
  Auto,  ///< Cache hit runs native; miss compiles in the background.
  Force, ///< Block on compile before instant 0; error if impossible.
};

struct TierOptions {
  NativeMode Mode = NativeMode::Off;
  std::string CacheDir; ///< Empty selects NativeCache::defaultDir().
  unsigned TierAfter = 0; ///< Min VM instants before promotion (Auto).
};

/// What --stats prints about the tier split.
struct TierStats {
  uint64_t VmInstants = 0;
  uint64_t NativeInstants = 0;
  bool CacheHit = false;
  bool NativeLoaded = false;
  std::string Hash;
  std::string Error; ///< Last compile/load failure (Auto keeps going).
  /// True when this controller compiled the loaded module itself (a
  /// cache miss whose compile finished); Build then holds its cost.
  bool Compiled = false;
  NativeBuildStats Build;
};

class TierController {
public:
  TierController(const CompiledStep &CS, const TierOptions &Opts);
  ~TierController();

  /// Kicks off the tier decision (see file comment). \returns false only
  /// in Force mode when native execution is impossible; Error has why.
  bool start();

  NativeMode mode() const { return Opts.Mode; }
  /// The warm-up threshold (--tier-after) shouldPromote applies.
  unsigned tierAfter() const { return Opts.TierAfter; }
  const std::string &hash() const { return Hash; }

  /// True once a validated module is loaded (cache hit or compile done).
  bool nativeReady() const { return Ready.load(std::memory_order_acquire); }
  /// Valid exactly when nativeReady().
  const NativeModule *module() const {
    return nativeReady() ? Mod.get() : nullptr;
  }

  /// Promotion gate for Auto mode: module ready and the warm-up
  /// threshold reached after \p VmInstantsSoFar interpreted instants.
  bool shouldPromote(uint64_t VmInstantsSoFar) const {
    return Opts.Mode != NativeMode::Off && nativeReady() &&
           VmInstantsSoFar >= Opts.TierAfter;
  }

  bool cacheHit() const { return Hit; }
  std::string error() const;

  void noteVmInstants(uint64_t N) { VmInstants += N; }
  void noteNativeInstants(uint64_t N) { NativeInstants += N; }
  TierStats stats() const;

private:
  void backgroundCompile();

  const CompiledStep &CS;
  TierOptions Opts;
  std::string Hash;
  NativeCache Cache;

  std::unique_ptr<NativeModule> Mod;
  std::atomic<bool> Ready{false};
  bool Hit = false;
  bool Compiled = false;  ///< Written before Ready is released.
  NativeBuildStats Build; ///< Written before Ready is released.
  std::thread Worker;
  mutable std::mutex ErrMutex;
  std::string Err;

  uint64_t VmInstants = 0;
  uint64_t NativeInstants = 0;
};

} // namespace sigc

#endif // SIGNALC_NATIVE_TIERCONTROLLER_H
