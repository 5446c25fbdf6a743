//===--- Linker.cpp -------------------------------------------------------===//

#include "link/Linker.h"

#include "link/JointClockSpace.h"
#include "link/StepFusion.h"

#include <chrono>
#include <map>
#include <thread>
#include <unordered_map>

using namespace sigc;

namespace {

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// Root of \p N's tree.
ForestNodeId treeRootOf(const ClockForest &Forest, ForestNodeId N) {
  while (Forest.node(N).Parent != InvalidForestNode)
    N = Forest.node(N).Parent;
  return N;
}

LinkResult fail(std::string Error) {
  LinkResult R;
  R.Error = std::move(Error);
  return R;
}

/// Proves clock(A) ⊆ clock(B) inside one producer: both exports must live
/// in one tree and the relative BDDs must satisfy the implication. This
/// is the whole point of the canonical forest: an interface obligation is
/// one (non-allocating) implies() call, never a re-resolution.
bool producerProves(Compilation &P, SignalId A, SignalId B,
                    bool &SameTree) {
  ClockForest &F = *P.Forest;
  ForestNodeId NA = F.nodeOf(P.Clocks.signalClock(A));
  ForestNodeId NB = F.nodeOf(P.Clocks.signalClock(B));
  if (NA == InvalidForestNode || NB == InvalidForestNode) {
    SameTree = false;
    return false;
  }
  SameTree = treeRootOf(F, NA) == treeRootOf(F, NB);
  if (!SameTree)
    return false;
  return F.bddManager().implies(F.node(NA).Bdd, F.node(NB).Bdd);
}

} // namespace

const LinkChannel *LinkedSystem::channelInto(unsigned Unit,
                                             SignalId Sig) const {
  for (const LinkChannel &Ch : Channels)
    if (Ch.Consumer == Unit && Ch.ConsumerSig == Sig)
      return &Ch;
  return nullptr;
}

std::string LinkedSystem::mismatchMessage(const ClockCheckFailure &F) const {
  const LinkChannel &Ch = Channels[F.Check];
  bool ConsumerPresent = F.APresent;
  return "instant " + std::to_string(F.Instant) + ": channel '" + Ch.Name +
         "' clock mismatch — producer '" + Units[Ch.Producer].Name +
         (ConsumerPresent ? "' was silent" : "' emitted") +
         " while consumer '" + Units[Ch.Consumer].Name +
         (ConsumerPresent ? "' expected a value" : "' expected silence");
}

std::string LinkedSystem::dump() const {
  std::string Out = "linked system: " + std::to_string(Units.size()) +
                    " process(es), " + std::to_string(Channels.size()) +
                    " channel(s)\n";
  Out += "  order:";
  for (unsigned U : Order)
    Out += " " + Units[U].Name;
  Out += "\n";
  for (const LinkChannel &Ch : Channels) {
    Out += "  channel " + Ch.Name + ": " + Units[Ch.Producer].Name + " -> " +
           Units[Ch.Consumer].Name;
    Out += Ch.ConsumerClockInput >= 0 ? "  [binds consumer clock]"
                                      : "  [dynamically checked]";
    Out += "\n";
  }
  Out += "  roots (" + std::to_string(Roots.size()) + "):";
  for (const LinkedRoot &R : Roots)
    Out += " " + Units[R.Unit].Name + ":" + R.Name;
  Out += "\n";
  Out += endochronous()
             ? "  endochronous: yes (single unbound root paces the system)\n"
             : "  endochronous: no (" + std::to_string(Roots.size()) +
                   " unbound roots)\n";
  Out += "  external inputs:";
  for (const LinkedExternal &E : ExternalInputs)
    Out += " " + E.Name;
  Out += "\n  external outputs:";
  for (const LinkedExternal &E : ExternalOutputs)
    Out += " " + E.Name;
  Out += "\n";
  return Out;
}

LinkResult sigc::linkCompiled(std::vector<LinkUnit> Units,
                              const LinkOptions &Options) {
  auto T0 = std::chrono::steady_clock::now();
  if (Units.empty())
    return fail("nothing to link: no processes given");

  for (LinkUnit &U : Units) {
    if (!U.Comp || !U.Comp->Ok)
      return fail("process '" + U.Name + "' did not compile; cannot link:\n" +
                  (U.Comp ? U.Comp->Diags.render() : std::string()));
    U.Iface = extractInterface(*U.Comp);
    if (U.Name.empty())
      U.Name = U.Iface.ProcessName;
  }
  for (size_t I = 0; I < Units.size(); ++I)
    for (size_t J = I + 1; J < Units.size(); ++J)
      if (Units[I].Name == Units[J].Name)
        return fail("duplicate process name '" + Units[I].Name +
                    "' in the link");

  auto Sys = std::make_unique<LinkedSystem>();
  Sys->Units = std::move(Units);

  // --- Channel matching: import name -> unique exporter ------------------
  std::unordered_map<std::string, std::pair<unsigned, const InterfaceSignal *>>
      Exports;
  for (unsigned U = 0; U < Sys->Units.size(); ++U)
    for (const InterfaceSignal &E : Sys->Units[U].Iface.Exports) {
      auto [It, Inserted] = Exports.emplace(E.Name, std::make_pair(U, &E));
      if (!Inserted)
        return fail("signal '" + E.Name + "' is exported by both '" +
                    Sys->Units[It->second.first].Name + "' and '" +
                    Sys->Units[U].Name +
                    "'; linked exports must be unique");
    }

  for (unsigned U = 0; U < Sys->Units.size(); ++U) {
    for (const InterfaceSignal &Imp : Sys->Units[U].Iface.Imports) {
      auto It = Exports.find(Imp.Name);
      if (It == Exports.end()) {
        Sys->ExternalInputs.push_back(
            {U, Imp.Sig, Imp.Name, Imp.Type});
        continue;
      }
      unsigned P = It->second.first;
      const InterfaceSignal &Exp = *It->second.second;
      if (P == U)
        return fail("process '" + Sys->Units[U].Name +
                    "' both imports and exports '" + Imp.Name + "'");
      if (Exp.Type != Imp.Type)
        return fail("channel '" + Imp.Name + "': exporter '" +
                    Sys->Units[P].Name + "' has type " + typeName(Exp.Type) +
                    " but importer '" + Sys->Units[U].Name + "' expects " +
                    typeName(Imp.Type));
      LinkChannel Ch;
      Ch.Producer = P;
      Ch.Consumer = U;
      Ch.ProducerSig = Exp.Sig;
      Ch.ConsumerSig = Imp.Sig;
      Ch.Name = Imp.Name;
      Sys->Channels.push_back(Ch);
    }
  }

  // Exports nobody consumed stay visible outside the linked system.
  for (unsigned U = 0; U < Sys->Units.size(); ++U)
    for (const InterfaceSignal &E : Sys->Units[U].Iface.Exports) {
      bool Consumed = false;
      for (const LinkChannel &Ch : Sys->Channels)
        Consumed |= Ch.Producer == U && Ch.ProducerSig == E.Sig;
      if (!Consumed)
        Sys->ExternalOutputs.push_back({U, E.Sig, E.Name, E.Type});
    }

  // --- Clock-interface compatibility -------------------------------------
  // For each channel, find how the consumer computes the import's clock.
  // A free-root class simply adopts the producer's presence (its tick
  // input is bound); any other class is consumer-derived and is checked
  // dynamically by the executor.
  for (LinkChannel &Ch : Sys->Channels) {
    Compilation &Cons = *Sys->Units[Ch.Consumer].Comp;
    int Slot = Cons.Step.SignalClockSlot[Ch.ConsumerSig];
    if (Slot < 0)
      return fail("channel '" + Ch.Name + "': importer '" +
                  Sys->Units[Ch.Consumer].Name +
                  "' proved the signal's clock null; the connection is "
                  "dead");
    Ch.ConsumerClockInput = -1;
    for (size_t CI = 0; CI < Cons.Step.ClockInputs.size(); ++CI)
      if (Cons.Step.ClockInputs[CI].Slot == Slot)
        Ch.ConsumerClockInput = static_cast<int>(CI);

    // Resolve the descriptor indices once, here, so every executor (and
    // any other runtime wiring) addresses the channel by array index.
    Compilation &Prod = *Sys->Units[Ch.Producer].Comp;
    for (size_t OI = 0; OI < Prod.Step.Outputs.size(); ++OI)
      if (Prod.Step.Outputs[OI].Sig == Ch.ProducerSig)
        Ch.ProducerOutput = static_cast<int>(OI);
    for (size_t II = 0; II < Cons.Step.Inputs.size(); ++II)
      if (Cons.Step.Inputs[II].Sig == Ch.ConsumerSig)
        Ch.ConsumerInput = static_cast<int>(II);
    if (Ch.ProducerOutput < 0)
      return fail("channel '" + Ch.Name + "': producer '" +
                  Sys->Units[Ch.Producer].Name +
                  "' has no output descriptor for the export");
    if (Ch.ConsumerInput < 0)
      return fail("channel '" + Ch.Name + "': consumer '" +
                  Sys->Units[Ch.Consumer].Name +
                  "' has no input descriptor for the import");
  }

  // The joint BDD clock space is built lazily: only links with an
  // obligation spanning two producers pay for it.
  std::unique_ptr<JointClockSpace> Joint;
  auto jointSpace = [&]() -> JointClockSpace & {
    if (!Joint)
      Joint = std::make_unique<JointClockSpace>(*Sys, Options.Limits);
    return *Joint;
  };

  // Consumer-imposed relations between imported clocks must be *proved*
  // on the exporting side: group the channels of one consumer by forest
  // node (same node = the consumer demands synchrony), then discharge
  // each demand with implies() on the producer's relative BDDs — or, when
  // the demand spans two producers, with implies() in the joint space.
  for (unsigned U = 0; U < Sys->Units.size(); ++U) {
    Compilation &Cons = *Sys->Units[U].Comp;
    std::map<ForestNodeId, std::vector<LinkChannel *>> ByNode;
    for (LinkChannel &Ch : Sys->Channels)
      if (Ch.Consumer == U)
        ByNode[Cons.Forest->nodeOf(Cons.Clocks.signalClock(Ch.ConsumerSig))]
            .push_back(&Ch);

    for (auto &[Node, Chans] : ByNode) {
      for (size_t K = 1; K < Chans.size(); ++K) {
        LinkChannel &A = *Chans[0];
        LinkChannel &B = *Chans[K];
        if (A.Producer != B.Producer) {
          if (!jointSpace().proveEqual(A.Producer, A.ProducerSig, B.Producer,
                                       B.ProducerSig))
            return fail("imports '" + A.Name + "' and '" + B.Name +
                        "' of '" + Sys->Units[U].Name +
                        "' must be synchronous, but the joint clock space "
                        "across producers '" + Sys->Units[A.Producer].Name +
                        "' and '" + Sys->Units[B.Producer].Name +
                        "' cannot prove their clocks equal" +
                        (jointSpace().exhausted()
                             ? std::string(" (") +
                                   budgetVerdictName(jointSpace().verdict()) +
                                   ": the joint-space budget tripped)"
                             : ""));
          continue;
        }
        Compilation &Prod = *Sys->Units[A.Producer].Comp;
        bool SameTree = false;
        bool Fwd = producerProves(Prod, A.ProducerSig, B.ProducerSig,
                                  SameTree);
        bool Bwd = SameTree && producerProves(Prod, B.ProducerSig,
                                              A.ProducerSig, SameTree);
        if (!Fwd || !Bwd)
          return fail("imports '" + A.Name + "' and '" + B.Name + "' of '" +
                      Sys->Units[U].Name +
                      "' must be synchronous, but producer '" +
                      Sys->Units[A.Producer].Name +
                      "' cannot prove their clocks equal" +
                      (SameTree ? " (the relative BDDs differ)"
                                : " (the exports live in different clock "
                                  "trees)"));
      }
    }

    // Proper inclusions between distinct import classes of one tree.
    std::vector<std::pair<ForestNodeId, LinkChannel *>> Reps;
    for (auto &[Node, Chans] : ByNode)
      Reps.emplace_back(Node, Chans[0]);
    ClockForest &CF = *Cons.Forest;
    for (size_t I = 0; I < Reps.size(); ++I)
      for (size_t J = 0; J < Reps.size(); ++J) {
        if (I == J)
          continue;
        ForestNodeId NI = Reps[I].first, NJ = Reps[J].first;
        if (treeRootOf(CF, NI) != treeRootOf(CF, NJ))
          continue; // Unrelated trees: no obligation.
        if (!CF.bddManager().implies(CF.node(NI).Bdd, CF.node(NJ).Bdd))
          continue; // The consumer does not demand NI ⊆ NJ.
        LinkChannel &A = *Reps[I].second;
        LinkChannel &B = *Reps[J].second;
        if (A.Producer != B.Producer) {
          if (!jointSpace().proveIncluded(A.Producer, A.ProducerSig,
                                          B.Producer, B.ProducerSig))
            return fail("import '" + A.Name + "' of '" + Sys->Units[U].Name +
                        "' must be contained in the clock of import '" +
                        B.Name + "', but the joint clock space across "
                        "producers '" + Sys->Units[A.Producer].Name +
                        "' and '" + Sys->Units[B.Producer].Name +
                        "' cannot prove the inclusion" +
                        (jointSpace().exhausted()
                             ? std::string(" (") +
                                   budgetVerdictName(jointSpace().verdict()) +
                                   ": the joint-space budget tripped)"
                             : ""));
          continue;
        }
        Compilation &Prod = *Sys->Units[A.Producer].Comp;
        bool SameTree = false;
        if (!producerProves(Prod, A.ProducerSig, B.ProducerSig, SameTree))
          return fail("import '" + A.Name + "' of '" + Sys->Units[U].Name +
                      "' must be contained in the clock of import '" +
                      B.Name + "', but producer '" +
                      Sys->Units[A.Producer].Name +
                      "' cannot prove the inclusion" +
                      (SameTree ? " (implies() refuted it)"
                                : " (the exports live in different clock "
                                  "trees)"));
      }
  }

  // --- No re-resolution: the forests are exactly as compiled -------------
  for (const LinkUnit &U : Sys->Units) {
    uint64_t Now = U.Comp->Forest->dfsOrder().size();
    Sys->ForestNodesAtLink.push_back(Now);
    if (Now != U.Iface.ForestNodes)
      return fail("internal error: linking changed the forest of '" +
                  U.Name + "' (" + std::to_string(U.Iface.ForestNodes) +
                  " nodes at interface extraction, " + std::to_string(Now) +
                  " at link)");
  }

  // --- System roots: free clocks no channel binds ------------------------
  for (unsigned U = 0; U < Sys->Units.size(); ++U) {
    const StepProgram &Step = Sys->Units[U].Comp->Step;
    for (size_t CI = 0; CI < Step.ClockInputs.size(); ++CI) {
      bool Bound = false;
      for (const LinkChannel &Ch : Sys->Channels)
        Bound |= Ch.Consumer == U &&
                 Ch.ConsumerClockInput == static_cast<int>(CI);
      if (!Bound)
        Sys->Roots.push_back({U, static_cast<int>(CI),
                              Step.ClockInputs[CI].Name});
    }
  }

  // --- Fusion: one CompiledStep for the whole system ---------------------
  FusionResult Fusion = fuseLinkedSteps(*Sys);
  if (!Fusion.Ok)
    return fail(std::move(Fusion.Error));
  Sys->Fused = std::move(Fusion.Fused);
  Sys->Order = std::move(Fusion.Order);

  LinkResult R;
  R.Sys = std::move(Sys);
  R.LinkMs = msSince(T0);
  return R;
}

namespace {

/// Compiles every (buffer, source, process) triple, one thread each when
/// parallel. Compilations are fully independent: each owns its arena,
/// interner, BDD manager and diagnostics.
std::vector<LinkUnit> compileUnits(
    const std::vector<std::tuple<std::string, std::string, std::string>>
        &Jobs,
    const LinkOptions &Options) {
  std::vector<LinkUnit> Units(Jobs.size());
  auto compileOne = [&](size_t I) {
    const auto &[Buffer, Source, Process] = Jobs[I];
    CompileOptions CO;
    CO.Limits = Options.Limits;
    CO.ProcessName = Process;
    Units[I].Name = Process;
    Units[I].Comp = compileSource(Buffer, Source, CO);
  };
  if (Options.ParallelCompile && Jobs.size() > 1) {
    std::vector<std::thread> Workers;
    Workers.reserve(Jobs.size());
    for (size_t I = 0; I < Jobs.size(); ++I)
      Workers.emplace_back(compileOne, I);
    for (std::thread &W : Workers)
      W.join();
  } else {
    for (size_t I = 0; I < Jobs.size(); ++I)
      compileOne(I);
  }
  return Units;
}

LinkResult linkAfterCompile(std::vector<LinkUnit> Units, double CompileMs,
                            const LinkOptions &Options) {
  LinkResult R = linkCompiled(std::move(Units), Options);
  R.CompileMs = CompileMs;
  return R;
}

} // namespace

LinkResult sigc::compileAndLink(const std::string &BufferName,
                                const std::string &Source,
                                const std::vector<std::string> &ProcessNames,
                                const LinkOptions &Options) {
  if (ProcessNames.empty())
    return fail("--link needs at least one process name");
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::tuple<std::string, std::string, std::string>> Jobs;
  for (const std::string &P : ProcessNames)
    Jobs.emplace_back(BufferName, Source, P);
  std::vector<LinkUnit> Units = compileUnits(Jobs, Options);
  return linkAfterCompile(std::move(Units), msSince(T0), Options);
}

LinkResult sigc::compileAndLinkSources(const std::vector<LinkInput> &Inputs,
                                       const LinkOptions &Options) {
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::tuple<std::string, std::string, std::string>> Jobs;
  for (const LinkInput &In : Inputs)
    Jobs.emplace_back(In.Name.empty() ? "<link>" : In.Name, In.Source,
                      std::string());
  std::vector<LinkUnit> Units = compileUnits(Jobs, Options);
  for (size_t I = 0; I < Units.size(); ++I)
    Units[I].Name = std::string(); // Taken from the compiled process.
  return linkAfterCompile(std::move(Units), msSince(T0), Options);
}
