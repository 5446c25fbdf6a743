//===--- TierController.cpp -----------------------------------------------===//

#include "native/TierController.h"

#include "native/CcRunner.h"
#include "native/StepHash.h"

using namespace sigc;

TierController::TierController(const CompiledStep &CS, const TierOptions &O)
    : CS(CS), Opts(O), Hash(hashCompiledStep(CS)), Cache(O.CacheDir) {}

TierController::~TierController() {
  if (Worker.joinable())
    Worker.join();
}

std::string TierController::error() const {
  std::lock_guard<std::mutex> L(ErrMutex);
  return Err;
}

bool TierController::start() {
  if (Opts.Mode == NativeMode::Off)
    return true;

  // Cache lookup first: a hit needs no compiler at all.
  std::string E;
  if (auto M = Cache.tryLoad(Hash, E)) {
    Mod = std::move(M);
    Hit = true;
    Ready.store(true, std::memory_order_release);
    return true;
  }
  if (!E.empty()) {
    // Invalid artifact was discarded; remember why, then recompile.
    std::lock_guard<std::mutex> L(ErrMutex);
    Err = E;
  }

  if (Opts.Mode == NativeMode::Force) {
    if (auto M = Cache.compileAndPublish(CS, Hash, E, &Build)) {
      Mod = std::move(M);
      Compiled = true;
      Ready.store(true, std::memory_order_release);
      return true;
    }
    std::lock_guard<std::mutex> L(ErrMutex);
    Err = E;
    return false;
  }

  // Auto miss: compile off-thread; the VM carries the session meanwhile.
  if (!nativeCompileAvailable()) {
    std::lock_guard<std::mutex> L(ErrMutex);
    Err = "no host C compiler on PATH";
    return true;
  }
  Worker = std::thread([this] { backgroundCompile(); });
  return true;
}

void TierController::backgroundCompile() {
  std::string E;
  auto M = Cache.compileAndPublish(CS, Hash, E, &Build);
  Compiled = M != nullptr;
  if (!M) {
    // Maybe a concurrent process published while our cc failed.
    M = Cache.tryLoad(Hash, E);
  }
  if (M) {
    Mod = std::move(M);
    Ready.store(true, std::memory_order_release);
  } else {
    std::lock_guard<std::mutex> L(ErrMutex);
    Err = E;
  }
}

TierStats TierController::stats() const {
  TierStats S;
  S.VmInstants = VmInstants;
  S.NativeInstants = NativeInstants;
  S.CacheHit = Hit;
  S.NativeLoaded = nativeReady();
  S.Hash = Hash;
  S.Error = error();
  // The compile's cost is only read once the module it built is
  // published: a background compile may still be writing it.
  if (S.NativeLoaded && Compiled) {
    S.Compiled = true;
    S.Build = Build;
  }
  return S;
}
