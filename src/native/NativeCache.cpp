//===--- NativeCache.cpp --------------------------------------------------===//

#include "native/NativeCache.h"

#include "native/CcRunner.h"
#include "native/StepHash.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include <sys/stat.h>
#include <unistd.h>

using namespace sigc;

namespace {

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

/// mkdir -p: creates every missing component, tolerating races with
/// other processes creating the same directories.
void makeDirs(const std::string &Path) {
  std::string Cur;
  for (size_t I = 0; I <= Path.size(); ++I) {
    if (I == Path.size() || Path[I] == '/') {
      if (!Cur.empty())
        ::mkdir(Cur.c_str(), 0755);
      if (I < Path.size())
        Cur += '/';
      continue;
    }
    Cur += Path[I];
  }
}

/// Distinguishes concurrent publishers within one process.
std::atomic<unsigned> TmpCounter{0};

} // namespace

std::string NativeCache::defaultDir() {
  if (const char *X = std::getenv("XDG_CACHE_HOME"); X && *X)
    return std::string(X) + "/signalc";
  if (const char *H = std::getenv("HOME"); H && *H)
    return std::string(H) + "/.cache/signalc";
  return "/tmp/signalc-cache";
}

NativeCache::NativeCache(const std::string &D)
    : Dir(D.empty() ? defaultDir() : D) {
  makeDirs(Dir);
}

std::unique_ptr<NativeModule>
NativeCache::tryLoad(const std::string &Hash, std::string &Error) const {
  std::string Path = soPath(Hash);
  if (!fileExists(Path))
    return nullptr;
  auto Mod = std::make_unique<NativeModule>();
  if (Mod->load(Path, Hash, Error))
    return Mod;
  // Corrupt, truncated, or stale: discard so the recompile republishes a
  // valid artifact instead of hitting the same bad file forever.
  std::remove(Path.c_str());
  return nullptr;
}

std::unique_ptr<NativeModule>
NativeCache::compileAndPublish(const CompiledStep &CS, const std::string &Hash,
                               std::string &Error,
                               NativeBuildStats *Build) const {
  std::string Source = NativeModule::buildSource(CS, Hash);
  std::string Tmp = Dir + "/tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(TmpCounter.fetch_add(1)) + ".so";
  auto T0 = std::chrono::steady_clock::now();
  if (!compileSharedObject(Source, Tmp, Error))
    return nullptr;
  if (Build) {
    Build->CLines = static_cast<size_t>(
        std::count(Source.begin(), Source.end(), '\n'));
    Build->CBytes = Source.size();
    Build->CcMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
  }
  std::string Final = soPath(Hash);
  if (::rename(Tmp.c_str(), Final.c_str()) != 0) {
    std::remove(Tmp.c_str());
    Error = "cannot publish artifact into " + Dir;
    return nullptr;
  }
  auto Mod = std::make_unique<NativeModule>();
  if (!Mod->load(Final, Hash, Error))
    return nullptr;
  return Mod;
}
