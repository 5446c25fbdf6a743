//===--- LinkedExecutor.cpp -----------------------------------------------===//

#include "interp/LinkedExecutor.h"

#include <algorithm>

using namespace sigc;

LinkedExecutor::LinkedExecutor(const LinkedSystem &Sys)
    : Sys(Sys), Fused(Sys.Fused), Exec(Fused) {
  // Watch the consumer/producer clock-slot pair of every dynamic
  // channel: batched windows record their presence per instant, and a
  // negative slot (a clock the unit proved null) records as absent —
  // the same convention the unbatched comparison uses.
  std::vector<int> Watch;
  Watch.reserve(Sys.DynChecks.size() * 2);
  for (const LinkedSystem::DynCheck &C : Sys.DynChecks) {
    Watch.push_back(C.ConsumerSlot);
    Watch.push_back(C.ProducerSlot);
  }
  Exec.setWatchSlots(std::move(Watch));
}

void LinkedExecutor::reset() {
  Exec.reset();
  Error.clear();
}

std::string
LinkedExecutor::mismatchMessage(const LinkedSystem::DynCheck &Check,
                                unsigned Instant, bool ProducerPresent,
                                bool ConsumerPresent) const {
  const LinkChannel &Ch = Sys.Channels[Check.Channel];
  return "instant " + std::to_string(Instant) + ": channel '" + Ch.Name +
         "' clock mismatch — producer '" + Sys.Units[Ch.Producer].Name +
         (ProducerPresent ? "' emitted" : "' was silent") +
         " while consumer '" + Sys.Units[Ch.Consumer].Name +
         (ConsumerPresent ? "' expected a value" : "' expected silence");
}

bool LinkedExecutor::step(Environment &Env, unsigned Instant) {
  if (!Error.empty())
    return false;
  Exec.step(Env, Instant);
  // The fused instant is complete (outputs emitted); now both sides of
  // every dynamic channel must agree on presence.
  for (const LinkedSystem::DynCheck &C : Sys.DynChecks) {
    bool ConsumerPresent =
        C.ConsumerSlot >= 0 && Exec.clockPresent(C.ConsumerSlot);
    bool ProducerPresent =
        C.ProducerSlot >= 0 && Exec.clockPresent(C.ProducerSlot);
    if (ConsumerPresent != ProducerPresent) {
      Error = mismatchMessage(C, Instant, ProducerPresent, ConsumerPresent);
      return false;
    }
  }
  return true;
}

bool LinkedExecutor::stepN(Environment &Env, unsigned Start, unsigned Count) {
  if (Count == 0)
    return true;
  if (!Error.empty())
    return false;
  if (Sys.DynChecks.empty()) {
    Exec.stepN(Env, Start, Count);
    return true;
  }

  // Run the window against the buffering wrapper, then replay the
  // dynamic checks from the watch recording before forwarding outputs.
  BatchEnv.Outer = &Env;
  Exec.stepN(BatchEnv, Start, Count);

  // The first violation an unbatched run would hit: ordered by instant,
  // then by check order within the instant.
  bool HaveErr = false;
  unsigned ErrInstant = 0;
  for (unsigned I = 0; I < Count && !HaveErr; ++I) {
    for (size_t K = 0; K < Sys.DynChecks.size(); ++K) {
      const LinkedSystem::DynCheck &C = Sys.DynChecks[K];
      bool ConsumerPresent = Exec.watchPresence(2 * K, I);
      bool ProducerPresent = Exec.watchPresence(2 * K + 1, I);
      if (ConsumerPresent == ProducerPresent)
        continue;
      HaveErr = true;
      ErrInstant = Start + I;
      Error =
          mismatchMessage(C, ErrInstant, ProducerPresent, ConsumerPresent);
      break;
    }
  }

  // Forward exactly what an unbatched run forwards: every instant up to
  // and including the erroring one (a completed fused step has already
  // emitted its outputs when the check fires).
  BatchEnv.forwardThrough(HaveErr ? ErrInstant + 1 : Start + Count);
  return !HaveErr;
}

bool LinkedExecutor::run(Environment &Env, unsigned Count) {
  for (unsigned I = 0; I < Count; ++I)
    if (!step(Env, I))
      return false;
  return true;
}

bool LinkedExecutor::runBatched(Environment &Env, unsigned Count,
                                unsigned BatchSize) {
  if (BatchSize == 0)
    BatchSize = 1;
  for (unsigned Start = 0; Start < Count; Start += BatchSize)
    if (!stepN(Env, Start, std::min(BatchSize, Count - Start)))
      return false;
  return true;
}
