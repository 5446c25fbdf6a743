//===--- RandomProgram.cpp ------------------------------------------------===//

#include "testing/RandomProgram.h"

#include <cassert>
#include <functional>
#include <random>
#include <vector>

using namespace sigc;

namespace {

/// The generator's view of one signal.
struct GenSignal {
  std::string Name;
  bool IsBool = false;
  int Class = -1;       ///< Abstract clock class.
  bool Defined = false; ///< Has a defining equation (inputs do not).
  bool IsChannel = false; ///< Imported from an upstream process.
};

/// A channel handed to a downstream generator: the exporter's signal plus
/// the exporter-side clock class, so the consumer knows which channels it
/// may legally declare synchronous.
struct ChannelIn {
  std::string Name;
  bool IsBool = false;
  int ProducerClass = -1;
};

/// Everything one generator run produced, for flexible rendering.
struct GenResult {
  std::vector<GenSignal> Signals;
  std::vector<int> Outputs; ///< Indices into Signals.
  std::vector<std::string> Eqs;
};

/// Moduli applied to integer Func results to keep values bounded.
constexpr int64_t Moduli[] = {97, 101, 251, 1009, 9973};

class Generator {
public:
  /// \p Prefix is prepended to every generated signal name, so multiple
  /// processes of one system never collide. \p Channels become extra
  /// undefined signals, each in its own *derived* class: the generator
  /// then never merges an import's clock with a free input's — the
  /// producer paces imports, not the environment.
  Generator(uint64_t Seed, const RandomProgramOptions &Options,
            std::string Prefix = "",
            const std::vector<ChannelIn> &Channels = {},
            unsigned SynchroChannelPercent = 0)
      : Options(Options), Prefix(std::move(Prefix)), Rng(Seed) {
    // Enforce the documented minimums: "when" conditions need a boolean
    // signal, and a process without outputs is unobservable.
    if (this->Options.BoolInputs == 0)
      this->Options.BoolInputs = 1;
    if (this->Options.MaxOutputs == 0)
      this->Options.MaxOutputs = 1;
    if (this->Options.Equations == 0)
      this->Options.Equations = 1;

    for (const ChannelIn &Ch : Channels) {
      int S = addSignal(Ch.Name, Ch.IsBool, newClass(/*Derived=*/true),
                        /*Defined=*/false);
      Signals[S].IsChannel = true;
    }
    // Consumer-side synchro between channels the producer keeps
    // synchronous: a provable interface obligation.
    for (size_t I = 0; I < Channels.size(); ++I)
      for (size_t J = I + 1; J < Channels.size(); ++J) {
        if (Channels[I].ProducerClass != Channels[J].ProducerClass ||
            Signals[I].Class == Signals[J].Class)
          continue;
        if (!percent(SynchroChannelPercent))
          continue;
        eq("synchro {" + Channels[I].Name + ", " + Channels[J].Name + "}");
        int To = Signals[I].Class, From = Signals[J].Class;
        for (GenSignal &S : Signals)
          if (S.Class == From)
            S.Class = To;
      }
  }

  GenResult run();

private:
  unsigned pick(unsigned Bound) {
    return Bound == 0 ? 0 : static_cast<unsigned>(Rng() % Bound);
  }
  bool percent(unsigned P) { return pick(100) < P; }

  int newClass(bool Derived) {
    ClassDerived.push_back(Derived);
    return static_cast<int>(ClassDerived.size()) - 1;
  }

  /// Merges clock class \p From into \p To (both must be free).
  void mergeClasses(int To, int From) {
    if (To == From)
      return;
    assert(!ClassDerived[To] && !ClassDerived[From]);
    for (GenSignal &S : Signals)
      if (S.Class == From)
        S.Class = To;
  }

  int addSignal(const std::string &Name, bool IsBool, int Class,
                bool Defined) {
    Signals.push_back({Name, IsBool, Class, Defined, false});
    return static_cast<int>(Signals.size()) - 1;
  }

  /// Indices of signals usable as operands with pivot class \p Class:
  /// same class always; other free classes too when \p Class is free
  /// (uses merge the classes, like the calculus' unification).
  std::vector<int> operandPool(int Class, bool WantBool) const {
    std::vector<int> Pool;
    bool PivotFree = !ClassDerived[Class];
    for (int I = 0; I < static_cast<int>(Signals.size()); ++I) {
      const GenSignal &S = Signals[I];
      if (S.IsBool != WantBool)
        continue;
      if (S.Class == Class || (PivotFree && !ClassDerived[S.Class]))
        Pool.push_back(I);
    }
    return Pool;
  }

  /// Picks a random signal index, optionally filtered by type.
  int pickSignal(int WantBool /* -1 = any */) {
    std::vector<int> Pool;
    for (int I = 0; I < static_cast<int>(Signals.size()); ++I)
      if (WantBool < 0 || Signals[I].IsBool == (WantBool == 1))
        Pool.push_back(I);
    return Pool[pick(static_cast<unsigned>(Pool.size()))];
  }

  /// Emits an expression over \p Class-compatible operands; signals that
  /// get used are recorded in \p Used so the caller can merge classes.
  std::string genExpr(int Class, bool WantBool, unsigned Depth,
                      std::vector<int> &Used);

  std::string genIntLeaf(int Class, std::vector<int> &Used);
  std::string genBoolLeaf(int Class, std::vector<int> &Used);

  void genFunc(unsigned Index);
  void genDelay(unsigned Index);
  void genWhen(unsigned Index);
  void genDefault(unsigned Index);
  void genAccumulator(unsigned Index);
  void maybeGenSynchro();

  void eq(const std::string &Text) { Eqs.push_back(Text); }

  RandomProgramOptions Options;
  std::string Prefix;
  std::mt19937_64 Rng;

  std::vector<GenSignal> Signals;
  std::vector<bool> ClassDerived; ///< Indexed by class id.
  std::vector<std::string> Eqs;
};

std::string Generator::genIntLeaf(int Class, std::vector<int> &Used) {
  std::vector<int> Pool = operandPool(Class, /*WantBool=*/false);
  if (Pool.empty() || percent(20))
    return std::to_string(pick(10));
  int S = Pool[pick(static_cast<unsigned>(Pool.size()))];
  Used.push_back(S);
  return Signals[S].Name;
}

std::string Generator::genBoolLeaf(int Class, std::vector<int> &Used) {
  std::vector<int> Pool = operandPool(Class, /*WantBool=*/true);
  if (Pool.empty() || percent(15))
    return pick(2) ? "true" : "false";
  int S = Pool[pick(static_cast<unsigned>(Pool.size()))];
  Used.push_back(S);
  return Signals[S].Name;
}

std::string Generator::genExpr(int Class, bool WantBool, unsigned Depth,
                               std::vector<int> &Used) {
  if (Depth == 0)
    return WantBool ? genBoolLeaf(Class, Used) : genIntLeaf(Class, Used);

  if (!WantBool) {
    switch (pick(6)) {
    case 0:
      return "(" + genExpr(Class, false, Depth - 1, Used) + " + " +
             genExpr(Class, false, Depth - 1, Used) + ")";
    case 1:
      return "(" + genExpr(Class, false, Depth - 1, Used) + " - " +
             genExpr(Class, false, Depth - 1, Used) + ")";
    case 2:
      return "(" + genExpr(Class, false, Depth - 1, Used) + " * " +
             genExpr(Class, false, Depth - 1, Used) + ")";
    case 3:
      return "(" + genExpr(Class, false, Depth - 1, Used) + " / " +
             genExpr(Class, false, Depth - 1, Used) + ")";
    case 4:
      return "(" + genExpr(Class, false, Depth - 1, Used) + " mod " +
             std::to_string(2 + pick(9)) + ")";
    default:
      return genIntLeaf(Class, Used);
    }
  }

  switch (pick(8)) {
  case 0:
    return "(" + genExpr(Class, true, Depth - 1, Used) + " and " +
           genExpr(Class, true, Depth - 1, Used) + ")";
  case 1:
    return "(" + genExpr(Class, true, Depth - 1, Used) + " or " +
           genExpr(Class, true, Depth - 1, Used) + ")";
  case 2:
    return "(" + genExpr(Class, true, Depth - 1, Used) + " xor " +
           genExpr(Class, true, Depth - 1, Used) + ")";
  case 3:
    return "(not " + genExpr(Class, true, Depth - 1, Used) + ")";
  case 4:
    return "(" + genExpr(Class, false, Depth - 1, Used) + " < " +
           genExpr(Class, false, Depth - 1, Used) + ")";
  case 5:
    return "(" + genExpr(Class, false, Depth - 1, Used) + " >= " +
           genExpr(Class, false, Depth - 1, Used) + ")";
  case 6:
    return "(" + genExpr(Class, false, Depth - 1, Used) + " = " +
           genExpr(Class, false, Depth - 1, Used) + ")";
  default:
    return genBoolLeaf(Class, Used);
  }
}

/// Merges the classes of all \p Used signals into \p Class. Only called
/// when the pool discipline already guaranteed compatibility.
static int unifyUsed(std::vector<GenSignal> &Signals,
                     std::vector<bool> &ClassDerived, int Class,
                     const std::vector<int> &Used) {
  for (int S : Used) {
    int C = Signals[S].Class;
    if (C == Class)
      continue;
    assert(!ClassDerived[Class] && !ClassDerived[C]);
    (void)ClassDerived;
    for (GenSignal &Sig : Signals)
      if (Sig.Class == C)
        Sig.Class = Class;
  }
  return Class;
}

void Generator::genFunc(unsigned Index) {
  bool WantBool = percent(40);
  int Pivot = pickSignal(-1);
  int Class = Signals[Pivot].Class;

  std::vector<int> Used;
  std::string Expr =
      genExpr(Class, WantBool, 1 + pick(Options.MaxExprDepth), Used);
  std::string Name =
      Prefix + (WantBool ? "SB" : "SI") + std::to_string(Index);
  if (!WantBool) {
    int64_t M = Moduli[pick(sizeof(Moduli) / sizeof(Moduli[0]))];
    Expr = "(" + Expr + ") mod " + std::to_string(M);
  }
  // The compiled constraint is ŷ = x̂ for the *used* operands only: a
  // constants-only body leaves ŷ a fresh free root, and an unused pivot
  // contributes nothing. Claiming otherwise would let the pair generator
  // demand synchrony the producer cannot prove.
  if (Used.empty())
    Class = newClass(/*Derived=*/false);
  else
    Class = unifyUsed(Signals, ClassDerived, Signals[Used[0]].Class, Used);
  addSignal(Name, WantBool, Class, /*Defined=*/true);
  eq(Name + " := " + Expr);
}

void Generator::genDelay(unsigned Index) {
  int Src = pickSignal(-1);
  // Copy: addSignal reallocates Signals.
  GenSignal S = Signals[Src];
  std::string Name = Prefix + (S.IsBool ? "DB" : "DI") + std::to_string(Index);
  std::string Init =
      S.IsBool ? (pick(2) ? "true" : "false") : std::to_string(pick(10));
  addSignal(Name, S.IsBool, S.Class, /*Defined=*/true);
  eq(Name + " := " + S.Name + " $ 1 init " + Init);
}

void Generator::genWhen(unsigned Index) {
  int Val = pickSignal(-1);
  int Cond = pickSignal(/*WantBool=*/1);
  // Copy: addSignal reallocates Signals.
  GenSignal V = Signals[Val];
  std::string Name = Prefix + (V.IsBool ? "WB" : "WI") + std::to_string(Index);
  std::string CondText = percent(25) ? "(not " + Signals[Cond].Name + ")"
                                     : Signals[Cond].Name;
  addSignal(Name, V.IsBool, newClass(/*Derived=*/true), /*Defined=*/true);
  eq(Name + " := " + V.Name + " when " + CondText);
}

void Generator::genDefault(unsigned Index) {
  int A = pickSignal(-1);
  int B = pickSignal(Signals[A].IsBool ? 1 : 0);
  // Copies: addSignal reallocates Signals.
  GenSignal SA = Signals[A], SB = Signals[B];
  std::string Name = Prefix + (SA.IsBool ? "MB" : "MI") + std::to_string(Index);
  addSignal(Name, SA.IsBool, newClass(/*Derived=*/true), /*Defined=*/true);
  eq(Name + " := " + SA.Name + " default " + SB.Name);
}

void Generator::genAccumulator(unsigned Index) {
  // Z := N $ 1 init 0 | N := (expr + Z) mod M, everything in one class.
  int Pivot = pickSignal(-1);
  int Class = Signals[Pivot].Class;
  std::string Z = Prefix + "Z" + std::to_string(Index);
  std::string N = Prefix + "AC" + std::to_string(Index);

  std::vector<int> Used;
  std::string Expr = genExpr(Class, /*WantBool=*/false, 1, Used);
  // As in genFunc: only the used operands constrain the clock; a
  // constants-only body ties Z and N just to each other.
  if (Used.empty())
    Class = newClass(/*Derived=*/false);
  else
    Class = unifyUsed(Signals, ClassDerived, Signals[Used[0]].Class, Used);

  int64_t M = Moduli[pick(sizeof(Moduli) / sizeof(Moduli[0]))];
  addSignal(Z, /*IsBool=*/false, Class, /*Defined=*/true);
  addSignal(N, /*IsBool=*/false, Class, /*Defined=*/true);
  eq(Z + " := " + N + " $ 1 init 0");
  eq(N + " := (" + Expr + " + " + Z + ") mod " + std::to_string(M));
}

void Generator::maybeGenSynchro() {
  // Collect one representative per free class.
  std::vector<int> Reps;
  std::vector<bool> Seen(ClassDerived.size(), false);
  for (int I = 0; I < static_cast<int>(Signals.size()); ++I) {
    int C = Signals[I].Class;
    if (!ClassDerived[C] && !Seen[C]) {
      Seen[C] = true;
      Reps.push_back(I);
    }
  }
  if (Reps.size() < 2)
    return;
  unsigned A = pick(static_cast<unsigned>(Reps.size()));
  unsigned B = pick(static_cast<unsigned>(Reps.size()));
  if (A == B)
    return;
  int SA = Reps[A], SB = Reps[B];
  eq("synchro {" + Signals[SA].Name + ", " + Signals[SB].Name + "}");
  mergeClasses(Signals[SA].Class, Signals[SB].Class);
}

GenResult Generator::run() {
  for (unsigned I = 1; I <= Options.IntInputs; ++I)
    addSignal(Prefix + "I" + std::to_string(I), /*IsBool=*/false,
              newClass(/*Derived=*/false), /*Defined=*/false);
  for (unsigned I = 1; I <= Options.BoolInputs; ++I)
    addSignal(Prefix + "B" + std::to_string(I), /*IsBool=*/true,
              newClass(/*Derived=*/false), /*Defined=*/false);
  assert(Options.BoolInputs >= 1 && "when conditions need a boolean");

  for (unsigned I = 1; I <= Options.Equations; ++I) {
    if (percent(Options.SynchroPercent))
      maybeGenSynchro();
    if (percent(Options.AccumulatorPercent)) {
      genAccumulator(I);
      continue;
    }
    switch (pick(4)) {
    case 0:
      genFunc(I);
      break;
    case 1:
      genDelay(I);
      break;
    case 2:
      genWhen(I);
      break;
    default:
      genDefault(I);
      break;
    }
  }

  GenResult R;
  // Pick the outputs: the most recently defined signals, newest first,
  // so the deepest parts of the DAG are observed.
  unsigned NumOutputs = 1 + pick(Options.MaxOutputs);
  for (int I = static_cast<int>(Signals.size()) - 1;
       I >= 0 && R.Outputs.size() < NumOutputs; --I)
    if (Signals[I].Defined)
      R.Outputs.push_back(I);
  R.Signals = std::move(Signals);
  R.Eqs = std::move(Eqs);
  return R;
}

bool isOutput(const GenResult &R, int I) {
  for (int O : R.Outputs)
    if (O == I)
      return true;
  return false;
}

std::string declLine(const GenSignal &S) {
  return std::string("    ") + (S.IsBool ? "boolean " : "integer ") + S.Name +
         ";\n";
}

/// Renders a complete process declaration in the house style.
std::string renderProcess(const std::string &ProcName,
                          const std::string &Inputs,
                          const std::string &Outputs,
                          const std::string &Locals,
                          const std::vector<std::string> &Eqs) {
  std::string Out = "process " + ProcName + " =\n  ( ?\n" + Inputs +
                    "  !\n" + Outputs + "  )\n  (|\n";
  for (size_t I = 0; I < Eqs.size(); ++I)
    Out += (I == 0 ? "   " : "   | ") + Eqs[I] + "\n";
  Out += "  |)\n";
  if (!Locals.empty())
    Out += "  where\n" + Locals + "  end";
  Out += ";\n";
  return Out;
}

/// Renders one generator result as a standalone process: undefined
/// signals (free inputs and channels alike) become inputs, the chosen
/// outputs become outputs, every other defined signal a local.
std::string renderStandalone(const std::string &ProcName,
                             const GenResult &R) {
  std::string Inputs, Outputs, Locals;
  for (const GenSignal &S : R.Signals)
    if (!S.Defined)
      Inputs += declLine(S);
  for (int I : R.Outputs)
    Outputs += declLine(R.Signals[I]);
  for (int I = 0; I < static_cast<int>(R.Signals.size()); ++I)
    if (R.Signals[I].Defined && !isOutput(R, I))
      Locals += declLine(R.Signals[I]);
  return renderProcess(ProcName, Inputs, Outputs, Locals, R.Eqs);
}

/// The whole chain builder: N stages, stage k importing a subset of stage
/// k-1's outputs. Also renders the monolithic composition.
GeneratedChain buildChain(uint64_t Seed,
                          const std::vector<RandomProgramOptions> &Stages,
                          const std::vector<std::string> &Names,
                          const std::vector<std::string> &Prefixes,
                          const std::string &SystemName,
                          unsigned MaxChannels,
                          unsigned SynchroChannelPercent) {
  std::mt19937_64 Master(Seed * 0x9E3779B97F4A7C15ull + 1);
  GeneratedChain Chain;
  Chain.Names = Names;
  Chain.SystemName = SystemName;

  std::vector<GenResult> Results;
  std::vector<std::vector<int>> Consumed; // Per stage: consumed outputs.
  for (size_t K = 0; K < Stages.size(); ++K) {
    std::vector<ChannelIn> Channels;
    if (K > 0) {
      // Wire up to MaxChannels of the previous stage's outputs.
      const GenResult &Prev = Results[K - 1];
      unsigned Want = 1 + static_cast<unsigned>(
                              Master() % (MaxChannels ? MaxChannels : 1));
      for (int O : Prev.Outputs) {
        if (Channels.size() >= Want)
          break;
        const GenSignal &S = Prev.Signals[O];
        Channels.push_back({S.Name, S.IsBool, S.Class});
        Consumed[K - 1].push_back(O);
        Chain.Channels.push_back(S.Name);
      }
    }
    Generator G(Master(), Stages[K], Prefixes[K], Channels,
                SynchroChannelPercent);
    Results.push_back(G.run());
    Consumed.emplace_back();
  }

  for (size_t K = 0; K < Stages.size(); ++K)
    Chain.Sources.push_back(renderStandalone(Names[K], Results[K]));

  // Monolithic composition: all bodies in one process; consumed channel
  // signals become locals, everything externally visible stays an output.
  std::string Inputs, Outputs, Locals;
  std::vector<std::string> Eqs;
  for (size_t K = 0; K < Stages.size(); ++K) {
    const GenResult &R = Results[K];
    for (const GenSignal &S : R.Signals)
      if (!S.Defined && !S.IsChannel)
        Inputs += declLine(S);
    for (int I : R.Outputs) {
      bool IsConsumed = false;
      for (int C : Consumed[K])
        IsConsumed |= C == I;
      (IsConsumed ? Locals : Outputs) += declLine(R.Signals[I]);
    }
    for (int I = 0; I < static_cast<int>(R.Signals.size()); ++I)
      if (R.Signals[I].Defined && !isOutput(R, I))
        Locals += declLine(R.Signals[I]);
    for (const std::string &E : R.Eqs)
      Eqs.push_back(E);
  }
  Chain.ComposedSource =
      renderProcess(SystemName, Inputs, Outputs, Locals, Eqs);
  return Chain;
}

} // namespace

std::string sigc::generateRandomProgram(const std::string &Name,
                                        uint64_t Seed,
                                        const RandomProgramOptions &Options) {
  Generator G(Seed, Options);
  return renderStandalone(Name, G.run());
}

std::string sigc::generateRealProgram(const std::string &Name,
                                      uint64_t Seed) {
  std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + 7);
  auto pick = [&](unsigned Bound) { return static_cast<unsigned>(Rng() % Bound); };
  auto arith = [&] { return std::string(" ") + "+-*/"[pick(4)] + " "; };
  auto digit = [&] { return std::to_string(1 + pick(9)); };
  // Leaves of either type; every signal here ticks with the inputs'
  // merged root, so any of them may meet any other.
  auto intLeaf = [&]() -> std::string {
    const char *Pool[] = {"N", "I1", "I2"};
    return pick(4) == 0 ? digit() : Pool[pick(3)];
  };
  auto realLeaf = [&]() -> std::string {
    const char *Pool[] = {"R", "X1"};
    return pick(4) == 0 ? digit() + ".5" : Pool[pick(2)];
  };
  // An operator tree whose operands mix the two types at random.
  std::function<std::string(unsigned)> expr = [&](unsigned Depth) {
    if (Depth == 0 || pick(3) == 0)
      return pick(2) ? intLeaf() : realLeaf();
    return "(" + expr(Depth - 1) + arith() + expr(Depth - 1) + ")";
  };
  // A signal of either type, so a definition keeps the inputs' clock.
  auto signal = [&]() -> std::string {
    const char *Pool[] = {"N", "I1", "R", "X1"};
    return Pool[pick(4)];
  };
  const char *Cmps[] = {" < ", " <= ", " > ", " >= ", " = ", " /= "};
  const char *IntSignals[] = {"N", "I1", "I2"};
  std::string IntSide = IntSignals[pick(3)],
              RealSide = "(" + expr(2) + arith() + realLeaf() + ")";
  bool Swap = pick(2);
  std::vector<std::string> Eqs = {
      "N := (I1 * " + digit() + arith() + "I2) mod " +
          std::to_string(Moduli[pick(sizeof(Moduli) / sizeof(Moduli[0]))]),
      "R := N" + arith() + digit(),
      "Y := " + expr(3) + arith() + signal(),
      "L := " + (Swap ? RealSide : IntSide) + Cmps[pick(6)] +
          (Swap ? IntSide : RealSide),
      "D := Y $ 1 init " + digit(),
      "W := R when " + std::string(pick(4) == 0 ? "(not B1)" : "B1"),
      "V := N when B2",
      "MD := W default D",
      "A := (Y + Z) / 2.0",
      "Z := A $ 1 init 0",
      "C := R cell B2 init " + digit(),
  };
  return renderProcess(
      Name, "    integer I1, I2;\n    real X1;\n    boolean B1, B2;\n",
      "    real MD, A, C, V;\n    boolean L;\n",
      "    integer N;\n    real R, Y, D, W, Z;\n", Eqs);
}

GeneratedPair sigc::generateProcessPair(uint64_t Seed,
                                        const ProcessPairOptions &Options) {
  GeneratedChain Chain = buildChain(
      Seed, {Options.Producer, Options.Consumer}, {"PROD", "CONS"},
      {"P_", "C_"}, "SYS", Options.MaxChannels,
      Options.SynchroChannelPercent);
  GeneratedPair P;
  P.ProducerName = Chain.Names[0];
  P.ConsumerName = Chain.Names[1];
  P.SystemName = Chain.SystemName;
  P.ProducerSource = Chain.Sources[0];
  P.ConsumerSource = Chain.Sources[1];
  P.ComposedSource = Chain.ComposedSource;
  P.Channels = Chain.Channels;
  return P;
}

GeneratedChain sigc::generateProcessChain(
    uint64_t Seed, unsigned Stages, const RandomProgramOptions &StageOptions,
    unsigned MaxChannels, unsigned SynchroChannelPercent) {
  if (Stages == 0)
    Stages = 1;
  std::vector<RandomProgramOptions> PerStage(Stages, StageOptions);
  std::vector<std::string> Names, Prefixes;
  for (unsigned K = 0; K < Stages; ++K) {
    Names.push_back("STAGE" + std::to_string(K));
    Prefixes.push_back("S" + std::to_string(K) + "_");
  }
  return buildChain(Seed, PerStage, Names, Prefixes, "SYS", MaxChannels,
                    SynchroChannelPercent);
}

GeneratedPair sigc::generateFeedbackPair(uint64_t Seed) {
  std::mt19937_64 Master(Seed * 0x9E3779B97F4A7C15ull + 1);
  auto Coef = [&] { return std::to_string(1 + Master() % 9); };
  std::string M =
      std::to_string(Moduli[Master() % (sizeof(Moduli) / sizeof(Moduli[0]))]);
  // The three equations of the loop. FC reads FB *in FB's own class*:
  // combining it with FA's class would unify the import's clock with
  // LOOPA's root and close a true instruction-level cycle — this is the
  // shape discipline the fused linker accepts.
  std::string EqA = "FA := (FX + " + Coef() + ") mod " + M;
  std::string EqB = "FB := (FA * " + Coef() + " + " + Coef() + ") mod " + M;
  std::string EqC = "FC := (FB * " + Coef() + " + " + Coef() + ") mod " + M;

  GeneratedPair P;
  P.ProducerName = "LOOPA";
  P.ConsumerName = "LOOPB";
  P.SystemName = "FBSYS";
  P.Channels = {"FA", "FB"};
  P.ProducerSource = renderProcess(
      "LOOPA", "    integer FX;\n    integer FB;\n",
      "    integer FA;\n    integer FC;\n", "", {EqA, EqC});
  P.ConsumerSource = renderProcess("LOOPB", "    integer FA;\n",
                                   "    integer FB;\n", "", {EqB});
  P.ComposedSource = renderProcess(
      "FBSYS", "    integer FX;\n", "    integer FC;\n",
      "    integer FA;\n    integer FB;\n", {EqA, EqB, EqC});
  return P;
}

GeneratedChain sigc::generateDiamondSystem(uint64_t Seed) {
  std::mt19937_64 Master(Seed * 0x9E3779B97F4A7C15ull + 1);
  auto Coef = [&] { return std::to_string(1 + Master() % 9); };
  std::string M =
      std::to_string(Moduli[Master() % (sizeof(Moduli) / sizeof(Moduli[0]))]);
  // A true diamond: DIAS fans DX out to DIAA and DIAB over channels, so
  // both middle producers' roots resolve to DIAS's presence of DX, and
  // the consumer's synchro {DA, DB} — an obligation no single
  // producer's forest can see — is one implication in the joint space.
  std::string X = "(SRC + " + Coef() + ") mod " + M;
  std::string EqA = "DA := (DX * " + Coef() + " + " + Coef() + ") mod " + M;
  std::string EqB = "DB := (DX + " + Coef() + ") mod " + M;
  std::string EqY = "DY := (DA + DB * " + Coef() + ") mod " + M;
  // On odd seeds DIAS samples its export, so DX ticks on a clock below
  // DIAS's root and the joint space translates a non-terminal BDD.
  std::string EqX =
      Seed % 2 ? "DX := (" + X + ") when ((SRC mod " +
                     std::to_string(2 + Master() % 3) + ") = 0)"
               : "DX := " + X;

  GeneratedChain D;
  D.Names = {"DIAS", "DIAA", "DIAB", "DIAK"};
  D.SystemName = "DIASYS";
  D.Channels = {"DX", "DA", "DB"};
  D.Sources.push_back(renderProcess("DIAS", "    integer SRC;\n",
                                    "    integer DX;\n", "", {EqX}));
  D.Sources.push_back(renderProcess("DIAA", "    integer DX;\n",
                                    "    integer DA;\n", "", {EqA}));
  D.Sources.push_back(renderProcess("DIAB", "    integer DX;\n",
                                    "    integer DB;\n", "", {EqB}));
  D.Sources.push_back(
      renderProcess("DIAK", "    integer DA;\n    integer DB;\n",
                    "    integer DY;\n", "", {"synchro {DA, DB}", EqY}));
  D.ComposedSource = renderProcess(
      "DIASYS", "    integer SRC;\n", "    integer DY;\n",
      "    integer DX;\n    integer DA;\n    integer DB;\n",
      {EqX, EqA, EqB, "synchro {DA, DB}", EqY});
  return D;
}
