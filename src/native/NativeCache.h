//===--- NativeCache.h - Persistent compiled-step cache ---------*- C++-*-===//
///
/// \file
/// The on-disk cache of compiled native artifacts, keyed by
/// hashCompiledStep(). Layout: one `<hash>.so` per entry in a flat
/// directory (default `$XDG_CACHE_HOME/signalc`, falling back to
/// `$HOME/.cache/signalc`, then `/tmp/signalc-cache`).
///
/// Publication is crash- and race-safe: artifacts are compiled to a
/// process-unique `tmp.*` name in the cache directory and moved into
/// place with rename(2), so readers only ever observe absent or complete
/// files. Two processes compiling the same hash both succeed — the loser
/// atomically replaces the winner's identical artifact (or vice versa)
/// and both load the published path. A failed compile removes its
/// temporary and publishes nothing.
///
/// Loading validates the artifact (dlopen, symbol table, ABI tag, flag
/// string, embedded hash); anything invalid — truncated, stale, or built
/// by an incompatible runtime — is deleted and reported as a miss so the
/// caller recompiles.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_NATIVE_NATIVECACHE_H
#define SIGNALC_NATIVE_NATIVECACHE_H

#include "native/NativeModule.h"

#include <memory>
#include <string>

namespace sigc {

/// What one compileAndPublish cost: the `--stats` native line.
struct NativeBuildStats {
  size_t CLines = 0; ///< Lines of the generated C unit.
  size_t CBytes = 0; ///< Bytes of the generated C unit.
  double CcMs = 0;   ///< Wall time of the host cc run.
};

class NativeCache {
public:
  /// The default cache directory for this user (see file comment).
  static std::string defaultDir();

  /// Binds the cache to \p Dir (empty selects defaultDir()) and creates
  /// the directory if needed.
  explicit NativeCache(const std::string &Dir = std::string());

  const std::string &dir() const { return Dir; }
  std::string soPath(const std::string &Hash) const {
    return Dir + "/" + Hash + ".so";
  }

  /// Loads and validates the cached artifact for \p Hash. Returns null
  /// on a miss; an artifact that exists but fails validation is deleted
  /// (with the reason in \p Error) and also reads as a miss.
  std::unique_ptr<NativeModule> tryLoad(const std::string &Hash,
                                        std::string &Error) const;

  /// Compiles \p CS, publishes the artifact under \p Hash via atomic
  /// rename, and loads it. Null with \p Error set on failure. \p Build,
  /// when given, receives the size of the C unit and the cc time.
  std::unique_ptr<NativeModule>
  compileAndPublish(const CompiledStep &CS, const std::string &Hash,
                    std::string &Error,
                    NativeBuildStats *Build = nullptr) const;

private:
  std::string Dir;
};

} // namespace sigc

#endif // SIGNALC_NATIVE_NATIVECACHE_H
