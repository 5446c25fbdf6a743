//===--- vm_alloc_test.cpp - Steady-state allocation pin for the VM -------===//
///
/// The slot-resolved VM's contract is *zero heap allocation per instant*
/// in the steady state: slots, scratch expression storage and environment
/// bindings are all set up front, and the per-instant loop only indexes
/// into them. This test pins the contract with a counting allocator: the
/// whole test binary's operator new/delete tally every allocation, and a
/// measured window of VM instants after warm-up must tally zero, under
/// the nested and the flat lowering alike.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "interp/VmExecutor.h"
#include "native/CcRunner.h"
#include "native/NativeCache.h"
#include "native/StepHash.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>

#include <unistd.h>

namespace {

std::atomic<uint64_t> AllocCount{0};

} // namespace

// Counting global allocator: every path through operator new lands here,
// including the C++17 aligned and the nothrow overloads (so a future
// over-aligned member cannot silently escape the pin).
void *operator new(size_t Size) {
  AllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](size_t Size) { return ::operator new(Size); }
void *operator new(size_t Size, std::align_val_t Align) {
  AllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::aligned_alloc(static_cast<size_t>(Align),
                                   (Size + static_cast<size_t>(Align) - 1) &
                                       ~(static_cast<size_t>(Align) - 1)))
    return P;
  throw std::bad_alloc();
}
void *operator new[](size_t Size, std::align_val_t Align) {
  return ::operator new(Size, Align);
}
void *operator new(size_t Size, const std::nothrow_t &) noexcept {
  AllocCount.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}
void *operator new[](size_t Size, const std::nothrow_t &T) noexcept {
  return ::operator new(Size, T);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace sigc;
using namespace sigc::test;

namespace {

/// Random environment that counts outputs without recording them
/// (recording grows a vector; the engine contract under test is the
/// executor's). Inputs come from RandomEnvironment's own slot columns;
/// outputs arrive as slot rows, the only way they leave an executor.
class DiscardEnvironment : public RandomEnvironment {
public:
  using RandomEnvironment::RandomEnvironment;
  uint64_t RowEvents = 0;  ///< Present cells of exchanged rows.
  void exchangeOutputs(unsigned, unsigned Count, unsigned NumOutputs,
                       const EnvOutputId *, const unsigned char *Present,
                       const VmSlot *) override {
    for (unsigned C = 0; C < Count * NumOutputs; ++C)
      RowEvents += Present[C];
  }
};

uint64_t allocsDuring(const std::function<void()> &Fn) {
  uint64_t Before = AllocCount.load(std::memory_order_relaxed);
  Fn();
  return AllocCount.load(std::memory_order_relaxed) - Before;
}

} // namespace

TEST(VmAllocation, ZeroHeapAllocationsPerInstantInSteadyState) {
  ProgramShape Shape;
  Shape.DividerStages = 24;
  auto C = compileOk(generateProgram("CHAIN", Shape));

  for (GuardLowering L : {GuardLowering::Nested, GuardLowering::Flat}) {
    CompiledStep CS = CompiledStep::build(C->Step, L);
    VmExecutor Exec(CS);
    DiscardEnvironment Env(42, 800);

    // Warm up: binding resolution and any lazy one-time setup happen here.
    Exec.run(Env, 8);

    uint64_t Allocs = allocsDuring([&] { Exec.run(Env, 512); });
    EXPECT_EQ(Allocs, 0u)
        << "the slot-VM allocated on the hot path; the CompiledStep "
           "contract is zero per-instant heap allocation";
    EXPECT_GT(Env.RowEvents, 0u) << "the run must actually produce outputs";
  }
}

TEST(VmAllocation, BatchedStepNIsZeroAllocInSteadyState) {
  // stepN's batch buffers (tick/input prefetch, output flush) are
  // preallocated; once warm, whole batched windows run
  // without a single heap allocation — the boundary-amortization cannot
  // buy throughput with hidden allocation.
  ProgramShape Shape;
  Shape.DividerStages = 24;
  auto C = compileOk(generateProgram("CHAIN", Shape));

  VmExecutor Exec(C->Compiled);
  DiscardEnvironment Env(42, 800);

  // Warm up: binding, batch-buffer growth and lazy setup happen here.
  runWindows(Exec, Env, 0, 64, 32);

  uint64_t Allocs = allocsDuring([&] {
    for (unsigned Round = 0; Round < 8; ++Round)
      runWindows(Exec, Env, 0, 512, 32);
  });
  EXPECT_EQ(Allocs, 0u)
      << "stepN allocated on the hot path; batch buffers must be "
         "preallocated and reused";
  EXPECT_GT(Env.RowEvents, 0u) << "the run must actually produce outputs";
}

TEST(VmAllocation, StepNStoppedByAClockCheckIsZeroAllocInSteadyState) {
  // A linked system's fused step ends stepN's window at a failed channel
  // check: the early stop, its report and the partial flush run on the
  // same preallocated buffers as a full window.
  LinkResult R = compileAndLinkSources(linkedDynamicCheckInputs());
  ASSERT_TRUE(R.Sys) << R.Error;
  VmExecutor Exec(R.Sys->Fused);
  DiscardEnvironment Env(42, 800);

  // Warm up: binding and batch-buffer growth happen here.
  runWindows(Exec, Env, 0, 64, 32);

  // The random stimulus trips the check in about half the instants, so
  // one-instant windows, which mostly run through, alternate with long
  // ones, which stop.
  unsigned Windows = 0, Stops = 0;
  uint64_t Allocs = allocsDuring([&] {
    for (unsigned At = 0; At < 4096; ++Windows) {
      At += Exec.stepN(Env, At, Windows % 2 ? 1 : 32);
      Stops += Exec.checkFailure() ? 1 : 0;
    }
  });
  EXPECT_EQ(Allocs, 0u) << "a window stopped by a clock check allocated";
  EXPECT_GT(Stops, 0u) << "the random stimulus must trip the check";
  EXPECT_GT(Windows, Stops) << "full windows must run too";
}

TEST(VmAllocation, AttachedModuleStepNAndSwapsAreZeroAllocInSteadyState) {
  // With the native module attached stepN converts inputs and outputs in
  // preallocated slot columns, and a swap in either direction only
  // (de)attaches the module: the state block is shared, nothing is
  // copied.
  if (!nativeCompileAvailable())
    GTEST_SKIP() << "no host C compiler";
  ProgramShape Shape;
  Shape.DividerStages = 24;
  auto C = compileOk(generateProgram("CHAIN", Shape));
  char Template[] = "/tmp/sigc-alloc-test-XXXXXX";
  ASSERT_NE(mkdtemp(Template), nullptr);
  NativeCache Cache(Template);
  std::string Hash = hashCompiledStep(C->Compiled), Err;
  std::unique_ptr<NativeModule> Mod =
      Cache.compileAndPublish(C->Compiled, Hash, Err);
  ASSERT_TRUE(Mod) << Err;

  {
    VmExecutor Exec(C->Compiled);
    DiscardEnvironment Env(42, 800);
    // Warm up both tiers: binding and batch-buffer growth happen here.
    runWindows(Exec, Env, 0, 64, 32);
    Exec.setNative(Mod.get());
    runWindows(Exec, Env, 0, 64, 32);

    uint64_t Steady = allocsDuring([&] {
      for (unsigned Round = 0; Round < 8; ++Round)
        runWindows(Exec, Env, 0, 512, 32);
    });
    EXPECT_EQ(Steady, 0u) << "stepN with a native module attached allocated";

    uint64_t Swapping = allocsDuring([&] {
      for (unsigned Round = 0; Round < 8; ++Round) {
        Exec.setNative(Round % 2 ? Mod.get() : nullptr);
        runWindows(Exec, Env, 0, 64, 32);
      }
    });
    EXPECT_EQ(Swapping, 0u) << "a tier swap allocated";
    EXPECT_GT(Env.RowEvents, 0u) << "the run must actually produce outputs";
  }
  Mod.reset();
  std::remove(Cache.soPath(Hash).c_str());
  rmdir(Template);
}

TEST(VmAllocation, ScriptedAdapterStillWorksUnderCountingAllocator) {
  // Sanity: the counting allocator must not change semantics anywhere.
  auto C = compileOk(proc("? integer A; ! integer Y;", "   Y := A + 1"));
  ScriptedEnvironment Env;
  Env.tickAlways();
  Env.set("A", 0, Value::makeInt(41));
  CompiledStep CS = CompiledStep::build(C->Step);
  VmExecutor Exec(CS);
  Exec.step(Env, 0);
  EXPECT_EQ(formatEvents(Env.outputs()), "0 Y=42\n");
}
