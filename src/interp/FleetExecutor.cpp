//===--- FleetExecutor.cpp ------------------------------------------------===//

#include "interp/FleetExecutor.h"

#include "native/NativeExecutor.h"
#include "sema/Kernel.h"

#include <algorithm>
#include <cassert>
#include <thread>

using namespace sigc;

namespace {

/// Branchless per-lane clock blend: the new bit where the lane is active,
/// the old bit where it is not (an inactive lane must observe exactly the
/// slot contents a scalar skip would have left behind).
inline char blendClock(char Old, char New, unsigned char Act) {
  return static_cast<char>((New & Act) | (Old & (Act ^ 1)));
}

} // namespace

FleetExecutor::FleetExecutor(const CompiledStep &CS, unsigned Instances,
                             Config Cfg)
    : CS(CS), NumInstances(Instances), K(std::max(1u, Cfg.LaneBlock)),
      Cfg(Cfg), MaxDepth(CS.guardShape().MaxDepth) {
  this->Cfg.LaneBlock = K;
  if (this->Cfg.Threads == 0)
    this->Cfg.Threads = 1;

  Bind.resize(NumInstances);
  BoundIds.assign(NumInstances, 0);
  FlushIds.assign(static_cast<size_t>(NumInstances) * CS.Outputs.size(),
                  InvalidEnvId);
  FlushPos.assign(CS.Outputs.size(), 0);
  for (size_t Pos = 0; Pos < CS.OutputFlushOrder.size(); ++Pos)
    FlushPos[CS.OutputFlushOrder[Pos]] = static_cast<int32_t>(Pos);

  // Shard the fleet into contiguous, lane-block-aligned instance ranges —
  // one per worker. Alignment matters for determinism only in that a
  // block never straddles shards, so the same lane grouping (and thus the
  // same sweep) happens for every thread count.
  unsigned NumBlocks = (NumInstances + K - 1) / K;
  unsigned NumShards = std::max(1u, std::min(this->Cfg.Threads, NumBlocks));
  Shards.resize(NumShards);
  unsigned PerShard = NumBlocks / NumShards;
  unsigned Extra = NumBlocks % NumShards;
  unsigned Block = 0;
  for (unsigned S = 0; S < NumShards; ++S) {
    unsigned Take = PerShard + (S < Extra ? 1 : 0);
    Shards[S].FirstInstance = std::min(Block * K, NumInstances);
    Block += Take;
    Shards[S].EndInstance = std::min(Block * K, NumInstances);
  }

  reset();
}

void FleetExecutor::reset() {
  unsigned NumState = static_cast<unsigned>(CS.StateInit.size());
  StateSoA.assign(static_cast<size_t>(NumState) * NumInstances, Value());
  for (unsigned Slot = 0; Slot < NumState; ++Slot)
    std::fill_n(StateSoA.begin() + static_cast<size_t>(Slot) * NumInstances,
                NumInstances, CS.StateInit[Slot]);
}

void FleetExecutor::bind(const std::vector<Environment *> &Envs) {
  assert(Envs.size() >= NumInstances && "one environment per instance");
  for (unsigned Inst = 0; Inst < NumInstances; ++Inst)
    bindInstance(Inst, *Envs[Inst]);
}

void FleetExecutor::bindInstance(unsigned Inst, Environment &Env) {
  assert(Inst < NumInstances && "instance out of range");
  const size_t NumOut = CS.Outputs.size();
  Bind[Inst] = resolveBindings(Env, CS.ClockInputs, CS.Inputs, CS.Outputs);
  BoundIds[Inst] = Env.identity();
  for (size_t Pos = 0; Pos < CS.OutputFlushOrder.size(); ++Pos)
    FlushIds[Inst * NumOut + Pos] = Bind[Inst].Outputs[CS.OutputFlushOrder[Pos]];
}

void FleetExecutor::resetLanes(unsigned First, unsigned Num) {
  assert(First + Num <= NumInstances && "lane range out of bounds");
  unsigned NumState = static_cast<unsigned>(CS.StateInit.size());
  for (unsigned Slot = 0; Slot < NumState; ++Slot)
    std::fill_n(StateSoA.begin() + static_cast<size_t>(Slot) * NumInstances +
                    First,
                Num, CS.StateInit[Slot]);
}

void FleetExecutor::saveLaneState(unsigned Inst, std::vector<Value> &Out) const {
  assert(Inst < NumInstances && "instance out of range");
  unsigned NumState = stateSlots();
  Out.resize(NumState);
  for (unsigned Slot = 0; Slot < NumState; ++Slot)
    Out[Slot] = StateSoA[static_cast<size_t>(Slot) * NumInstances + Inst];
}

void FleetExecutor::restoreLaneState(unsigned Inst,
                                     const std::vector<Value> &In) {
  assert(Inst < NumInstances && "instance out of range");
  assert(In.size() == stateSlots() &&
         "checkpoint shape does not match the compiled step");
  for (unsigned Slot = 0; Slot < In.size(); ++Slot)
    StateSoA[static_cast<size_t>(Slot) * NumInstances + Inst] = In[Slot];
}

void FleetExecutor::ensureShardCapacity(Shard &S) {
  const unsigned NumValue = CS.NumValueSlots + CS.NumTempSlots;
  const size_t NumOut = CS.Outputs.size();
  const size_t W = WindowCap;
  if (S.ClockSoA.size() != static_cast<size_t>(CS.NumClockSlots) * K) {
    S.ClockSoA.assign(static_cast<size_t>(CS.NumClockSlots) * K, 0);
    S.ValueSoA.assign(static_cast<size_t>(NumValue) * K, Value());
    S.Active.assign(K, 0);
    S.MaskStack.assign(static_cast<size_t>(MaxDepth) * K, 0);
    S.CloseAt.assign(MaxDepth, 0);
  }
  if (S.TickBuf.size() < CS.ClockInputs.size() * static_cast<size_t>(K) * W ||
      S.OutPresent.size() < static_cast<size_t>(K) * W * NumOut ||
      S.InBuf.size() < CS.Inputs.size() * static_cast<size_t>(K) * W) {
    S.TickBuf.assign(CS.ClockInputs.size() * static_cast<size_t>(K) * W, 0);
    S.InBuf.assign(CS.Inputs.size() * static_cast<size_t>(K) * W, Value());
    S.OutPresent.assign(static_cast<size_t>(K) * W * NumOut, 0);
    S.OutVals.assign(static_cast<size_t>(K) * W * NumOut, Value());
  }
}

void FleetExecutor::reserveWindow(unsigned MaxCount) {
  if (MaxCount > WindowCap)
    WindowCap = MaxCount;
  for (Shard &S : Shards)
    ensureShardCapacity(S);
}

void FleetExecutor::setNative(const NativeModule *M) {
  assert((!M || M->numStateSlots() == CS.StateInit.size()) &&
         "native module compiled from a different step");
  Native = M;
}

void FleetExecutor::execBlock(Shard &S, const std::vector<Environment *> &Envs,
                              unsigned I0, unsigned NB, unsigned Start,
                              unsigned Count) {
  if (Native) {
    execBlockNative(S, Envs, I0, NB, Start, Count);
    return;
  }
  const size_t W = WindowCap;
  const unsigned NumOut = static_cast<unsigned>(CS.Outputs.size());

  // One boundary crossing per (descriptor, lane): prefetch the window.
  for (unsigned L = 0; L < NB; ++L) {
    Environment &E = *Envs[I0 + L];
    const StepBindings &B = Bind[I0 + L];
    for (size_t D = 0; D < CS.ClockInputs.size(); ++D)
      E.clockTicks(B.Clocks[D], Start, Count, &S.TickBuf[(D * K + L) * W]);
    for (size_t D = 0; D < CS.Inputs.size(); ++D)
      E.inputValues(B.Inputs[D], Start, Count, &S.InBuf[(D * K + L) * W]);
    if (NumOut)
      std::fill_n(S.OutPresent.begin() + L * W * NumOut,
                  static_cast<size_t>(Count) * NumOut, 0);
  }

  const VmInstr *Code = CS.Code.data();
  const int32_t End = static_cast<int32_t>(CS.Code.size());
  char *Clk = S.ClockSoA.data();
  Value *Vals = S.ValueSoA.data();
  Value *State = StateSoA.data();
  unsigned char *Act = S.Active.data();
  const Value *Consts = CS.Consts.data();

  for (unsigned I = 0; I < Count; ++I) {
    // Presence is recomputed from scratch each instant.
    std::fill(S.ClockSoA.begin(), S.ClockSoA.end(), 0);
    std::fill_n(Act, NB, static_cast<unsigned char>(1));
    unsigned ActiveCount = NB;
    unsigned Depth = 0;

    int32_t PC = 0;
    while (PC < End) {
      // Close every region ending here: restore its saved lane mask.
      while (Depth && S.CloseAt[Depth - 1] == PC) {
        --Depth;
        const unsigned char *Saved = &S.MaskStack[static_cast<size_t>(Depth) * K];
        ActiveCount = 0;
        for (unsigned L = 0; L < NB; ++L) {
          Act[L] = Saved[L];
          ActiveCount += Saved[L];
        }
      }
      const VmInstr &In = Code[PC];
      if (In.Op == VmOp::SkipIfAbsent) {
        // Each lane whose enclosing blocks are active reaches this guard,
        // exactly as in a scalar run: one guard test per such lane.
        S.GuardTests += ActiveCount;
        const char *CRow = &Clk[static_cast<size_t>(In.A) * K];
        unsigned NewCount = 0;
        if (ActiveCount == NB)
          for (unsigned L = 0; L < NB; ++L)
            NewCount += static_cast<unsigned char>(CRow[L]);
        else
          for (unsigned L = 0; L < NB; ++L)
            NewCount += Act[L] & CRow[L];
        if (NewCount == 0) {
          // Scalar fast path: nobody enters, skip the whole subtree.
          PC = In.Aux;
          continue;
        }
        if (NewCount != ActiveCount) {
          unsigned char *Save = &S.MaskStack[static_cast<size_t>(Depth) * K];
          for (unsigned L = 0; L < NB; ++L)
            Save[L] = Act[L];
          S.CloseAt[Depth] = In.Aux;
          ++Depth;
          for (unsigned L = 0; L < NB; ++L)
            Act[L] = static_cast<unsigned char>(Act[L] & CRow[L]);
          ActiveCount = NewCount;
        }
        // NewCount == ActiveCount: every active lane enters, mask
        // unchanged — no push needed.
        ++PC;
        continue;
      }
      ++PC;
      S.Executed += static_cast<uint64_t>(In.Weight) * ActiveCount;
      // Fast path: a fully active block needs no mask maintenance at all
      // — every lane takes the op, so clock blends collapse to plain
      // stores and value ops drop their per-lane predicate test. The
      // common case by construction: a block only narrows below a guard
      // whose clock splits the lanes, and the whole subtree is skipped
      // when nobody enters.
      const bool AllActive = ActiveCount == NB;
      switch (In.Op) {
      case VmOp::SkipIfAbsent:
        break; // handled above
      case VmOp::ReadClockInput: {
        char *T = &Clk[static_cast<size_t>(In.Target) * K];
        const unsigned char *Ticks =
            &S.TickBuf[static_cast<size_t>(In.Aux) * K * W];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = Ticks[L * W + I] != 0;
        else
          for (unsigned L = 0; L < NB; ++L)
            T[L] = blendClock(T[L], Ticks[L * W + I] != 0, Act[L]);
        break;
      }
      case VmOp::EvalClockLiteral: {
        char *T = &Clk[static_cast<size_t>(In.Target) * K];
        const Value *A = &Vals[static_cast<size_t>(In.A) * K];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = (A[L].asBool() == (In.Aux != 0)) ? 1 : 0;
        else
          for (unsigned L = 0; L < NB; ++L)
            if (Act[L])
              T[L] = (A[L].asBool() == (In.Aux != 0)) ? 1 : 0;
        break;
      }
      case VmOp::EvalClockAnd: {
        char *T = &Clk[static_cast<size_t>(In.Target) * K];
        const char *A = &Clk[static_cast<size_t>(In.A) * K];
        const char *B = &Clk[static_cast<size_t>(In.B) * K];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = static_cast<char>(A[L] & B[L]);
        else
          for (unsigned L = 0; L < NB; ++L)
            T[L] = blendClock(T[L], A[L] & B[L], Act[L]);
        break;
      }
      case VmOp::EvalClockOr: {
        char *T = &Clk[static_cast<size_t>(In.Target) * K];
        const char *A = &Clk[static_cast<size_t>(In.A) * K];
        const char *B = &Clk[static_cast<size_t>(In.B) * K];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = static_cast<char>(A[L] | B[L]);
        else
          for (unsigned L = 0; L < NB; ++L)
            T[L] = blendClock(T[L], A[L] | B[L], Act[L]);
        break;
      }
      case VmOp::EvalClockDiff: {
        char *T = &Clk[static_cast<size_t>(In.Target) * K];
        const char *A = &Clk[static_cast<size_t>(In.A) * K];
        const char *B = &Clk[static_cast<size_t>(In.B) * K];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = static_cast<char>(A[L] & (B[L] ^ 1));
        else
          for (unsigned L = 0; L < NB; ++L)
            T[L] = blendClock(T[L], static_cast<char>(A[L] & (B[L] ^ 1)),
                              Act[L]);
        break;
      }
      case VmOp::CopyClock: {
        char *T = &Clk[static_cast<size_t>(In.Target) * K];
        const char *A = &Clk[static_cast<size_t>(In.A) * K];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = A[L];
        else
          for (unsigned L = 0; L < NB; ++L)
            T[L] = blendClock(T[L], A[L], Act[L]);
        break;
      }
      case VmOp::SetClockFalse: {
        char *T = &Clk[static_cast<size_t>(In.Target) * K];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = 0;
        else
          for (unsigned L = 0; L < NB; ++L)
            T[L] = static_cast<char>(T[L] & (Act[L] ^ 1));
        break;
      }
      case VmOp::ReadSignal: {
        Value *T = &Vals[static_cast<size_t>(In.Target) * K];
        const Value *Ins = &S.InBuf[static_cast<size_t>(In.Aux) * K * W];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = Ins[L * W + I];
        else
          for (unsigned L = 0; L < NB; ++L)
            if (Act[L])
              T[L] = Ins[L * W + I];
        break;
      }
      case VmOp::UnarySlot: {
        Value *T = &Vals[static_cast<size_t>(In.Target) * K];
        const Value *A = &Vals[static_cast<size_t>(In.A) * K];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = evalUnaryValue(static_cast<UnaryOp>(In.Aux), A[L]);
        else
          for (unsigned L = 0; L < NB; ++L)
            if (Act[L])
              T[L] = evalUnaryValue(static_cast<UnaryOp>(In.Aux), A[L]);
        break;
      }
      case VmOp::BinarySS: {
        Value *T = &Vals[static_cast<size_t>(In.Target) * K];
        const Value *A = &Vals[static_cast<size_t>(In.A) * K];
        const Value *B = &Vals[static_cast<size_t>(In.B) * K];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = evalBinaryValue(static_cast<BinaryOp>(In.Aux), A[L], B[L]);
        else
          for (unsigned L = 0; L < NB; ++L)
            if (Act[L])
              T[L] = evalBinaryValue(static_cast<BinaryOp>(In.Aux), A[L],
                                     B[L]);
        break;
      }
      case VmOp::BinarySC: {
        Value *T = &Vals[static_cast<size_t>(In.Target) * K];
        const Value *A = &Vals[static_cast<size_t>(In.A) * K];
        const Value &C = Consts[In.B];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = evalBinaryValue(static_cast<BinaryOp>(In.Aux), A[L], C);
        else
          for (unsigned L = 0; L < NB; ++L)
            if (Act[L])
              T[L] = evalBinaryValue(static_cast<BinaryOp>(In.Aux), A[L], C);
        break;
      }
      case VmOp::BinaryCS: {
        Value *T = &Vals[static_cast<size_t>(In.Target) * K];
        const Value &C = Consts[In.A];
        const Value *B = &Vals[static_cast<size_t>(In.B) * K];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = evalBinaryValue(static_cast<BinaryOp>(In.Aux), C, B[L]);
        else
          for (unsigned L = 0; L < NB; ++L)
            if (Act[L])
              T[L] = evalBinaryValue(static_cast<BinaryOp>(In.Aux), C, B[L]);
        break;
      }
      case VmOp::CopyValue: {
        Value *T = &Vals[static_cast<size_t>(In.Target) * K];
        const Value *A = &Vals[static_cast<size_t>(In.A) * K];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = A[L];
        else
          for (unsigned L = 0; L < NB; ++L)
            if (Act[L])
              T[L] = A[L];
        break;
      }
      case VmOp::LoadConst: {
        Value *T = &Vals[static_cast<size_t>(In.Target) * K];
        const Value &C = Consts[In.Aux];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = C;
        else
          for (unsigned L = 0; L < NB; ++L)
            if (Act[L])
              T[L] = C;
        break;
      }
      case VmOp::Select: {
        Value *T = &Vals[static_cast<size_t>(In.Target) * K];
        const Value *A = &Vals[static_cast<size_t>(In.A) * K];
        const Value *B = &Vals[static_cast<size_t>(In.B) * K];
        const char *C = &Clk[static_cast<size_t>(In.Aux) * K];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = C[L] ? A[L] : B[L];
        else
          for (unsigned L = 0; L < NB; ++L)
            if (Act[L])
              T[L] = C[L] ? A[L] : B[L];
        break;
      }
      case VmOp::LoadDelay: {
        Value *T = &Vals[static_cast<size_t>(In.Target) * K];
        const Value *St = &State[static_cast<size_t>(In.A) * NumInstances + I0];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            T[L] = St[L];
        else
          for (unsigned L = 0; L < NB; ++L)
            if (Act[L])
              T[L] = St[L];
        break;
      }
      case VmOp::StoreDelay: {
        Value *St =
            &State[static_cast<size_t>(In.Target) * NumInstances + I0];
        const Value *A = &Vals[static_cast<size_t>(In.A) * K];
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L)
            St[L] = A[L];
        else
          for (unsigned L = 0; L < NB; ++L)
            if (Act[L])
              St[L] = A[L];
        break;
      }
      case VmOp::WriteOutput: {
        const Value *A = &Vals[static_cast<size_t>(In.A) * K];
        const size_t Pos = static_cast<size_t>(FlushPos[In.Aux]);
        if (AllActive)
          for (unsigned L = 0; L < NB; ++L) {
            size_t At = (L * W + I) * NumOut + Pos;
            S.OutPresent[At] = 1;
            S.OutVals[At] = A[L];
          }
        else
          for (unsigned L = 0; L < NB; ++L)
            if (Act[L]) {
              size_t At = (L * W + I) * NumOut + Pos;
              S.OutPresent[At] = 1;
              S.OutVals[At] = A[L];
            }
        break;
      }
      }
    }
  }

  // One crossing back per lane, in instance order: each instance's window
  // flushes through its own environment, reproducing exactly the event
  // sequence its scalar unbatched run records.
  for (unsigned L = 0; L < NB; ++L)
    Envs[I0 + L]->exchangeOutputs(Start, Count, NumOut,
                                  &FlushIds[(I0 + L) * NumOut],
                                  &S.OutPresent[L * W * NumOut],
                                  &S.OutVals[L * W * NumOut]);
}

void FleetExecutor::execBlockNative(Shard &S,
                                    const std::vector<Environment *> &Envs,
                                    unsigned I0, unsigned NB, unsigned Start,
                                    unsigned Count) {
  const size_t W = WindowCap;
  const size_t NumClk = CS.ClockInputs.size();
  const size_t NumIn = CS.Inputs.size();
  const size_t NumOut = CS.Outputs.size();
  const size_t NumState = CS.StateInit.size();
  const size_t Cells = static_cast<size_t>(NB) * Count;

  const size_t ScratchBytes = Native->fleetScratchBytes(NB, Count);
  if (S.NScratch.size() < ScratchBytes)
    S.NScratch.resize(ScratchBytes);
  if (S.NStates.size() < static_cast<size_t>(NB) * NumState)
    S.NStates.resize(static_cast<size_t>(NB) * NumState);
  if (S.NGuards.size() < NB) {
    S.NGuards.resize(NB);
    S.NExecs.resize(NB);
  }
  if (S.NTicks.size() < Cells * std::max<size_t>(1, NumClk))
    S.NTicks.resize(Cells * std::max<size_t>(1, NumClk));
  if (S.NIns.size() < Cells * std::max<size_t>(1, NumIn))
    S.NIns.resize(Cells * std::max<size_t>(1, NumIn));
  if (S.NOutP.size() < Cells * std::max<size_t>(1, NumOut)) {
    S.NOutP.resize(Cells * std::max<size_t>(1, NumOut));
    S.NOutV.resize(Cells * std::max<size_t>(1, NumOut));
  }

  // Prefetch through the interpreter's staging buffers (one environment
  // crossing per descriptor per lane), then transpose into the dense
  // instance-major rows the shim consumes.
  for (unsigned L = 0; L < NB; ++L) {
    Environment &E = *Envs[I0 + L];
    const StepBindings &B = Bind[I0 + L];
    for (size_t D = 0; D < NumClk; ++D)
      E.clockTicks(B.Clocks[D], Start, Count, &S.TickBuf[(D * K + L) * W]);
    for (size_t D = 0; D < NumIn; ++D)
      E.inputValues(B.Inputs[D], Start, Count, &S.InBuf[(D * K + L) * W]);
  }
  for (unsigned L = 0; L < NB; ++L)
    for (unsigned T = 0; T < Count; ++T) {
      const size_t R = static_cast<size_t>(L) * Count + T;
      for (size_t D = 0; D < NumClk; ++D)
        S.NTicks[R * NumClk + D] = S.TickBuf[(D * K + L) * W + T];
      for (size_t D = 0; D < NumIn; ++D)
        S.NIns[R * NumIn + D] = toNative(S.InBuf[(D * K + L) * W + T]);
    }

  // StateSoA stays canonical: pack it in, run, unpack it back. Per-lane
  // counters enter at zero and exit as this window's deltas, which fold
  // into the shard totals exactly like the interpreted sweep's.
  for (unsigned L = 0; L < NB; ++L) {
    for (size_t Slot = 0; Slot < NumState; ++Slot)
      S.NStates[static_cast<size_t>(L) * NumState + Slot] =
          toNative(StateSoA[Slot * NumInstances + I0 + L]);
    S.NGuards[L] = 0;
    S.NExecs[L] = 0;
  }

  Native->runFleet(S.NScratch.data(), S.NStates.data(), S.NGuards.data(),
                   S.NExecs.data(), S.NTicks.data(), S.NIns.data(),
                   S.NOutP.data(), S.NOutV.data(), NB, Count);

  for (unsigned L = 0; L < NB; ++L) {
    for (size_t Slot = 0; Slot < NumState; ++Slot)
      StateSoA[Slot * NumInstances + I0 + L] =
          fromNative(S.NStates[static_cast<size_t>(L) * NumState + Slot],
                     CS.StateInit[Slot].Kind);
    S.GuardTests += S.NGuards[L];
    S.Executed += S.NExecs[L];
  }

  // Reconstruct tagged output values by declared type into the shard's
  // flush buffers, then flush per lane in instance order — byte-identical
  // event sequencing to the interpreted window.
  for (unsigned L = 0; L < NB; ++L) {
    for (unsigned T = 0; T < Count; ++T) {
      const size_t R = (static_cast<size_t>(L) * Count + T) * NumOut;
      const size_t At = (static_cast<size_t>(L) * W + T) * NumOut;
      for (size_t Pos = 0; Pos < NumOut; ++Pos) {
        S.OutPresent[At + Pos] = S.NOutP[R + Pos];
        S.OutVals[At + Pos] =
            S.NOutP[R + Pos]
                ? fromNative(S.NOutV[R + Pos],
                             CS.Outputs[CS.OutputFlushOrder[Pos]].Type)
                : Value();
      }
    }
    Envs[I0 + L]->exchangeOutputs(Start, Count, static_cast<unsigned>(NumOut),
                                  &FlushIds[(I0 + L) * NumOut],
                                  &S.OutPresent[L * W * NumOut],
                                  &S.OutVals[L * W * NumOut]);
  }
}

void FleetExecutor::execShard(Shard &S, const std::vector<Environment *> &Envs,
                              unsigned Start, unsigned Count) {
  for (unsigned I0 = S.FirstInstance; I0 < S.EndInstance; I0 += K)
    execBlock(S, Envs, I0, std::min(K, S.EndInstance - I0), Start, Count);
}

void FleetExecutor::stepN(const std::vector<Environment *> &Envs,
                          unsigned Start, unsigned Count) {
  if (Count == 0 || NumInstances == 0)
    return;
  assert(Envs.size() >= NumInstances && "one environment per instance");

  // Cold path: (re)bind any instance whose environment changed. Serial on
  // purpose — binding interns names and allocates; the swept hot loop
  // below does neither.
  bool Rebind = false;
  for (unsigned Inst = 0; Inst < NumInstances && !Rebind; ++Inst)
    Rebind = Envs[Inst]->identity() != BoundIds[Inst];
  if (Rebind)
    bind(Envs);
  reserveWindow(Count);

  if (Shards.size() == 1 || Cfg.Threads <= 1) {
    // Inline execution: the allocation-free path (thread spawn allocates).
    for (Shard &S : Shards)
      execShard(S, Envs, Start, Count);
  } else {
    std::vector<std::thread> Workers;
    Workers.reserve(Shards.size());
    for (Shard &S : Shards)
      Workers.emplace_back(
          [this, &S, &Envs, Start, Count] { execShard(S, Envs, Start, Count); });
    for (std::thread &T : Workers)
      T.join();
  }

  // Deterministic counter aggregation: shard totals fold in shard order.
  for (Shard &S : Shards) {
    GuardTests += S.GuardTests;
    Executed += S.Executed;
    S.GuardTests = 0;
    S.Executed = 0;
  }
}

void FleetExecutor::stepLanes(const std::vector<Environment *> &Envs,
                              unsigned First, unsigned Num, unsigned Start,
                              unsigned Count) {
  if (Count == 0 || Num == 0)
    return;
  assert(First + Num <= NumInstances && "lane range out of bounds");
  assert(Envs.size() >= First + Num && "environments cover the lane range");

  for (unsigned Inst = First; Inst < First + Num; ++Inst)
    if (Envs[Inst]->identity() != BoundIds[Inst])
      bindInstance(Inst, *Envs[Inst]);

  if (Count > WindowCap)
    WindowCap = Count;
  ensureShardCapacity(LaneShard);

  // The range need not be lane-block aligned: execBlock handles any
  // (I0, NB<=K), and per-lane semantics (state, counters, flush order)
  // are independent of how lanes group into blocks.
  for (unsigned I0 = First; I0 < First + Num; I0 += K)
    execBlock(LaneShard, Envs, I0, std::min(K, First + Num - I0), Start,
              Count);

  GuardTests += LaneShard.GuardTests;
  Executed += LaneShard.Executed;
  LaneShard.GuardTests = 0;
  LaneShard.Executed = 0;
}

void FleetExecutor::run(const std::vector<Environment *> &Envs,
                        unsigned Count) {
  stepN(Envs, 0, Count);
}

void FleetExecutor::runBatched(const std::vector<Environment *> &Envs,
                               unsigned Count, unsigned Window) {
  if (Window == 0)
    Window = 1;
  for (unsigned Start = 0; Start < Count; Start += Window)
    stepN(Envs, Start, std::min(Window, Count - Start));
}
