//===--- Cli.cpp - The signalc command line -------------------------------===//

#include "driver/Cli.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

using namespace sigc;

namespace {

const char *const EngineModeNames[] = {"vm", "flat"};
const char *const NativeModeNames[] = {"off", "auto", "force"};

/// The mode of \p Flag that \p Name spells (the enum's values follow
/// \p Names), or false and a diagnostic naming every valid mode.
template <typename Mode, size_t N>
bool parseMode(const char *Flag, const char *const (&Names)[N],
               const std::string &Name, Mode &M, std::string &Diag) {
  std::string Valid;
  for (size_t I = 0; I < N; ++I) {
    if (Name == Names[I]) {
      M = static_cast<Mode>(I);
      return true;
    }
    Valid += (I ? ", " : "") + std::string(Names[I]);
  }
  Diag = std::string("unknown ") + Flag + " '" + Name +
         "'; valid modes: " + Valid;
  return false;
}

/// Bounded Levenshtein distance (insert/delete/substitute, unit cost).
unsigned editDistance(const std::string &A, const std::string &B) {
  std::vector<unsigned> Row(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Row[J] = static_cast<unsigned>(J);
  for (size_t I = 1; I <= A.size(); ++I) {
    unsigned Diag = Row[0];
    Row[0] = static_cast<unsigned>(I);
    for (size_t J = 1; J <= B.size(); ++J) {
      unsigned Sub = Diag + (A[I - 1] != B[J - 1]);
      Diag = Row[J];
      Row[J] = std::min({Row[J] + 1, Row[J - 1] + 1, Sub});
    }
  }
  return Row[B.size()];
}

/// The row nearest to \p Arg by edit distance, or empty when nothing is
/// plausibly close (distance > 1/3 of the flag's length, so `--simulte`
/// suggests `--simulate` but line noise suggests nothing).
std::string nearestFlag(const std::string &Arg) {
  std::string Best;
  unsigned BestDist = ~0u;
  for (const CliFlag &F : cliFlags()) {
    unsigned D = editDistance(Arg, F.Name);
    if (D < BestDist) {
      BestDist = D;
      Best = F.Name;
    }
  }
  // A suggestion is only useful when the typo is plausibly the flag:
  // within a third of its length (and never for wildly short inputs).
  if (Best.empty() || BestDist > std::max<size_t>(1, Best.size() / 3))
    return std::string();
  return Best;
}

// The operand kind of a field, by its type.
constexpr CliKind kindOf(const bool *) { return CliKind::None; }
constexpr CliKind kindOf(const std::string *) { return CliKind::String; }
constexpr CliKind kindOf(const unsigned *) { return CliKind::U32; }
constexpr CliKind kindOf(const uint64_t *) { return CliKind::U64; }
constexpr CliKind kindOf(const EngineMode *) { return CliKind::Engine; }
constexpr CliKind kindOf(const NativeMode *) { return CliKind::Native; }

// A row's operand \p V, parsed into its field by the field's type.
bool assign(bool &F, const CliFlag &, const std::string &, std::string &) {
  F = true;
  return true;
}
bool assign(std::string &F, const CliFlag &, const std::string &V,
            std::string &) {
  F = V;
  return true;
}
bool assign(EngineMode &F, const CliFlag &R, const std::string &V,
            std::string &Diag) {
  return parseMode(R.Name, EngineModeNames, V, F, Diag);
}
bool assign(NativeMode &F, const CliFlag &R, const std::string &V,
            std::string &Diag) {
  return parseMode(R.Name, NativeModeNames, V, F, Diag);
}
template <typename T>
std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>, bool>
assign(T &F, const CliFlag &R, const std::string &V, std::string &Diag) {
  const uint64_t Max = std::min<uint64_t>(R.Max, std::numeric_limits<T>::max());
  uint64_t N = 0;
  if (!parseCliUnsigned(R.Name, V.c_str(), Max, N, Diag))
    return false;
  if (N < R.Min) {
    Diag = "value '" + V + "' for " + R.Name + " is out of range (min " +
           std::to_string(R.Min) + ")";
    return false;
  }
  F = static_cast<T>(N);
  return true;
}

using Setter = bool (*)(CliOptions &, const CliFlag &, const std::string &,
                        std::string &);

#define SIGC_CLI_SETTER(NAME, FIELD, ...)                                      \
  [](CliOptions &O, const CliFlag &R, const std::string &V, std::string &D) {  \
    return assign(O.FIELD, R, V, D);                                           \
  },
const Setter Setters[] = {SIGC_CLI_FLAGS(SIGC_CLI_SETTER)};
#undef SIGC_CLI_SETTER

/// The flag names of a needs or excludes column.
std::vector<std::string> words(const char *List) {
  std::istringstream In(List);
  return {std::istream_iterator<std::string>(In), {}};
}

} // namespace

const char *sigc::to_string(EngineMode Mode) {
  return EngineModeNames[static_cast<unsigned>(Mode)];
}

const char *sigc::to_string(NativeMode Mode) {
  return NativeModeNames[static_cast<unsigned>(Mode)];
}

bool sigc::parseEngineMode(const std::string &Name, EngineMode &Mode,
                           std::string &Diag) {
  return parseMode("--mode", EngineModeNames, Name, Mode, Diag);
}

bool sigc::parseCliUnsigned(const std::string &Flag, const char *Text,
                            uint64_t Max, uint64_t &Out, std::string &Diag) {
  if (!Text) {
    Diag = "missing value for " + Flag;
    return false;
  }
  std::string S(Text);
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos) {
    Diag = "invalid value '" + S + "' for " + Flag +
           ": expected an unsigned integer";
    return false;
  }
  // All-digits input can still overflow; strtoull saturates and sets
  // errno, so both the 2^64 overflow and the caller's own ceiling become
  // the same out-of-range diagnostic.
  errno = 0;
  uint64_t V = std::strtoull(S.c_str(), nullptr, 10);
  if (errno == ERANGE || V > Max) {
    Diag = "value '" + S + "' for " + Flag + " is out of range (max " +
           std::to_string(Max) + ")";
    return false;
  }
  Out = V;
  return true;
}

const std::vector<CliFlag> &sigc::cliFlags() {
  static const CliOptions Proto{}; // Only the types of its fields matter.
#define SIGC_CLI_ROW(NAME, FIELD, ...)                                         \
  {NAME, kindOf(&Proto.FIELD), __VA_ARGS__},
  static const std::vector<CliFlag> Rows = {SIGC_CLI_FLAGS(SIGC_CLI_ROW)};
#undef SIGC_CLI_ROW
  return Rows;
}

std::string sigc::cliUsage() {
  std::string U = "usage: signalc [options] [file.sig]\noptions:\n";
  for (const CliFlag &F : cliFlags()) {
    std::string Left = std::string("  ") + F.Name + (*F.Operand ? " " : "") +
                       F.Operand;
    U += Left + std::string(Left.size() < 26 ? 26 - Left.size() : 1, ' ') +
         F.Help + "\n";
  }
  return U;
}

CliParse sigc::parseCli(int Argc, const char *const *Argv) {
  const std::vector<CliFlag> &Rows = cliFlags();
  CliParse P;
  CliOptions &O = P.Options;
  std::vector<bool> Given(Rows.size());
  auto stop = [&P](std::string Message, int Exit = 2) {
    P.Message = std::move(Message);
    P.Exit = Exit;
    return P;
  };
  auto row = [&Rows](const std::string &Name) {
    return static_cast<size_t>(
        std::find_if(Rows.begin(), Rows.end(),
                     [&](const CliFlag &F) { return Name == F.Name; }) -
        Rows.begin());
  };
  auto given = [&](const std::string &Name) {
    size_t R = row(Name);
    return R < Given.size() && Given[R];
  };

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.empty() || Arg[0] != '-') {
      if (!O.File.empty())
        return stop("signalc: more than one input file ('" + O.File +
                    "' and '" + Arg + "')\n");
      O.File = Arg;
      continue;
    }
    size_t Eq = Arg.rfind("--", 0) == 0 ? Arg.find('=') : std::string::npos;
    std::string Name = Arg.substr(0, Eq);
    size_t R = row(Name);
    if (R == Rows.size()) {
      // The --process/--mode typo idiom, extended to the flag table
      // itself: a near-miss names its neighbour.
      std::string Near = nearestFlag(Name);
      return stop("signalc: unknown option '" + Arg + "'" +
                  (Near.empty() ? "" : "; did you mean '" + Near + "'?") +
                  "\n" + cliUsage());
    }
    std::string Value;
    if (Rows[R].Kind == CliKind::None) {
      if (Eq != std::string::npos)
        return stop("signalc: " + Name + " takes no value\n");
    } else {
      // The operand is attached by `=` or is the next argument, unless
      // that is a flag (a file named like one can be given as ./--x). An
      // empty one is as missing as an absent one.
      if (Eq != std::string::npos)
        Value = Arg.substr(Eq + 1);
      else if (I + 1 < Argc && std::strncmp(Argv[I + 1], "--", 2) != 0)
        Value = Argv[++I];
      if (Value.empty())
        return stop("signalc: missing value for " + Name + "\n");
    }
    std::string Diag;
    if (!Setters[R](O, Rows[R], Value, Diag))
      return stop("signalc: " + Diag + "\n");
    if (O.Help)
      return stop(cliUsage(), 0);
    Given[R] = true;
  }

  if (!O.Builtin.empty() && !O.File.empty())
    return stop("signalc: --builtin cannot be combined with a file ('" +
                O.File + "')\n");
  for (size_t R = 0; R < Rows.size(); ++R) {
    if (!Given[R])
      continue;
    std::vector<std::string> Needs = words(Rows[R].Needs);
    if (!Needs.empty() && std::none_of(Needs.begin(), Needs.end(), given)) {
      std::string Any;
      for (size_t J = 0; J < Needs.size(); ++J)
        Any += (J == 0 ? "" : J + 1 < Needs.size() ? ", " : " or ") + Needs[J];
      return stop("signalc: " + std::string(Rows[R].Name) + " requires " +
                  Any + "\n");
    }
    for (const std::string &E : words(Rows[R].Excludes))
      if (given(E))
        return stop("signalc: " + std::string(Rows[R].Name) +
                    " cannot be combined with " + E + "\n");
  }
  // The combinations that depend on a value, not only on the flags given.
  // The fused step of a link exists only in the nested lowering, and the
  // serve protocol has no frame for a failed channel check.
  if (!O.LinkList.empty() && O.Mode == EngineMode::Flat)
    return stop("signalc: --mode flat cannot run a linked system (the fused "
                "step is nested code only)\n");
  if (!O.LinkList.empty() && !O.Serve.SocketPath.empty())
    return stop("signalc: --serve cannot serve a linked system\n");
  // The tier's own qualifiers mean nothing with the tier off.
  if (O.Tier.Mode == NativeMode::Off)
    for (const char *Flag : {"--cache-dir", "--tier-after"})
      if (given(Flag))
        return stop(std::string("signalc: ") + Flag +
                    " requires --native auto or force\n");
  // The native tier compiles the nested lowering; the recorder runs the VM.
  if (O.Tier.Mode != NativeMode::Off) {
    const char *Clash =
        O.Mode == EngineMode::Flat ? "--mode flat (native code is nested code)"
        : !O.RecordFile.empty()    ? "--record (the recorder runs the vm)"
                                   : nullptr;
    if (Clash)
      return stop(std::string("signalc: --native ") + to_string(O.Tier.Mode) +
                  " cannot be combined with " + Clash + "\n");
  }
  if (O.Builtin.empty() && O.File.empty())
    return stop(cliUsage());
  return P;
}
