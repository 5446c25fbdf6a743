//===--- StepHash.h - CompiledStep content hashing --------------*- C++-*-===//
///
/// \file
/// Content-hashes a CompiledStep for the persistent native-code cache.
/// The hash covers everything that determines the generated machine code
/// and its host-facing ABI: the bytecode stream, slot counts and types,
/// the constant pool, the delay-state initializers, every environment
/// descriptor (names and types — the interface), the output flush order,
/// the native shim format version, and the host compiler flags. Two
/// CompiledSteps hash equal exactly when a cached shared object compiled
/// for one is a correct artifact for the other; the process name is
/// deliberately excluded (the native unit is emitted under a fixed
/// internal name, so renaming a process keeps its cache entry).
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_NATIVE_STEPHASH_H
#define SIGNALC_NATIVE_STEPHASH_H

#include "interp/CompiledStep.h"

#include <string>

namespace sigc {

/// Bumped whenever the generated shim ABI, the hashed serialization or
/// the C meaning of the bytecode changes; stale cache entries from older
/// binaries then miss instead of loading with a wrong shape or an old
/// semantics. Version 2: `=`/`/=` between an event and a boolean compare
/// truth values instead of folding to unequal. Version 3: the lane-swept
/// fleet entry points are gone from the shim. Version 4: the state
/// struct is the VM's slot block and the shim's state and counter
/// accessors are gone. Version 5: the step and the run entry report a
/// failed clock check (CheckClockEq) and the instants they ran.
/// Version 6: `executed` counts every instruction run but skips and
/// clock checks; instructions carry no weights.
constexpr int NativeFormatVersion = 6;

/// The flags every cached artifact is compiled with (part of the hash, so
/// changing them invalidates the cache).
const char *nativeCcFlags();

/// \returns the 16-hex-digit content hash of \p CS (FNV-1a 64 over the
/// canonical serialization described above).
std::string hashCompiledStep(const CompiledStep &CS);

} // namespace sigc

#endif // SIGNALC_NATIVE_STEPHASH_H
