//===--- cli_parse_test.cpp - signalc argv parsing, in process ------------===//
///
/// parseCli is pure, so every row of SIGC_CLI_FLAGS is driven here
/// without spawning signalc: each operand's missing, flag-shaped,
/// empty, malformed and out-of-range forms, the `--flag=value` form,
/// each companion a row needs and each flag it excludes. A seeded
/// mutation sweep over argv then checks that no argument list crashes
/// or throws: each one runs or stops with a diagnostic.
///
//===----------------------------------------------------------------------===//

#include "driver/Cli.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace sigc;

namespace {

/// Parses `signalc --builtin FIG5_ALARM <Args>`.
CliParse parse(const std::vector<std::string> &Args) {
  std::vector<const char *> Argv = {"signalc", "--builtin", "FIG5_ALARM"};
  for (const std::string &A : Args)
    Argv.push_back(A.c_str());
  return parseCli(static_cast<int>(Argv.size()), Argv.data());
}

/// The message \p Args stop with, checked to be a usage error (exit 2).
std::string usageError(const std::vector<std::string> &Args) {
  CliParse P = parse(Args);
  EXPECT_EQ(P.Exit, 2) << P.Message;
  return P.Message;
}

std::vector<std::string> words(const char *List) {
  std::istringstream In(List);
  std::vector<std::string> Out;
  for (std::string W; In >> W;)
    Out.push_back(W);
  return Out;
}

const CliFlag &row(const std::string &Name) {
  for (const CliFlag &F : cliFlags())
    if (Name == F.Name)
      return F;
  ADD_FAILURE() << "no row " << Name;
  return cliFlags().front();
}

bool numeric(const CliFlag &F) {
  return F.Kind == CliKind::U32 || F.Kind == CliKind::U64;
}

/// A valid operand of \p F ("" when it takes none). --native is auto:
/// its qualifiers --cache-dir and --tier-after need the tier on, and no
/// companion chain adds --mode flat or --record, which it excludes.
std::string sample(const CliFlag &F) {
  switch (F.Kind) {
  case CliKind::None:
    return "";
  case CliKind::String:
    return "x";
  case CliKind::U32:
  case CliKind::U64:
    return std::to_string(F.Min);
  case CliKind::Engine:
    return "vm";
  case CliKind::Native:
    return "auto";
  }
  return "";
}

/// \p F with operand \p Value, after the first flag of each needs
/// column on the way (so --frame comes after --record and --simulate).
std::vector<std::string> given(const CliFlag &F, const std::string &Value) {
  std::vector<std::string> Args;
  std::vector<std::string> Needs = words(F.Needs);
  if (!Needs.empty())
    Args = given(row(Needs[0]), sample(row(Needs[0])));
  Args.push_back(F.Name);
  if (F.Kind != CliKind::None)
    Args.push_back(Value);
  return Args;
}

// Each row's field, read back as text, by the rows themselves.
std::string show(bool B) { return B ? "true" : "false"; }
std::string show(const std::string &S) { return S; }
std::string show(unsigned N) { return std::to_string(N); }
std::string show(uint64_t N) { return std::to_string(N); }
std::string show(EngineMode M) { return to_string(M); }
std::string show(NativeMode M) { return to_string(M); }

using FieldReader = std::string (*)(const CliOptions &);
#define FIELD_READER(NAME, FIELD, ...)                                         \
  [](const CliOptions &O) { return show(O.FIELD); },
const FieldReader Fields[] = {SIGC_CLI_FLAGS(FIELD_READER)};
#undef FIELD_READER

} // namespace

TEST(CliParse, TableIsConsistent) {
  ASSERT_EQ(cliFlags().size(), sizeof Fields / sizeof Fields[0]);
  std::string Usage = cliUsage();
  for (const CliFlag &F : cliFlags()) {
    // Each row is a typo hint: one extra character names it.
    EXPECT_NE(usageError({std::string(F.Name) + "q"})
                  .find("did you mean '" + std::string(F.Name) + "'?"),
              std::string::npos)
        << F.Name;
    EXPECT_NE(Usage.find("\n  " + std::string(F.Name) + " "),
              std::string::npos)
        << F.Name;
    EXPECT_EQ(*F.Operand != '\0', F.Kind != CliKind::None) << F.Name;
    for (const char *Column : {F.Needs, F.Excludes})
      for (const std::string &W : words(Column))
        EXPECT_EQ(row(W).Name, W) << F.Name;
  }
  // 34 long flags and -h.
  EXPECT_EQ(cliFlags().size(), 35u);
}

TEST(CliParse, EveryRowSetsItsFieldInBothOperandForms) {
  for (size_t R = 0; R < cliFlags().size(); ++R) {
    const CliFlag &F = cliFlags()[R];
    CliParse First = parse(given(F, sample(F)));
    if (First.stops() && First.Exit == 0)
      continue; // --help and -h stop (below).
    std::vector<std::string> Values = {sample(F)};
    if (numeric(F))
      Values.push_back(std::to_string(F.Max)); // Both bounds are valid.
    for (const std::string &V : Values) {
      CliParse Split = parse(given(F, V));
      ASSERT_FALSE(Split.stops()) << F.Name << " " << V << Split.Message;
      EXPECT_EQ(Fields[R](Split.Options),
                F.Kind == CliKind::None ? "true" : V)
          << F.Name;
      if (F.Kind == CliKind::None)
        continue;
      std::vector<std::string> Args = given(F, V);
      Args.pop_back();
      Args.back() += "=" + V;
      CliParse Joined = parse(Args);
      ASSERT_FALSE(Joined.stops()) << F.Name << "=" << V << Joined.Message;
      EXPECT_EQ(Fields[R](Joined.Options), V) << F.Name;
    }
  }
}

TEST(CliParse, HelpStopsWithTheUsageText) {
  for (const char *Flag : {"--help", "-h"}) {
    CliParse P = parse({"--simulate", "3", Flag, "--no-such-flag"});
    EXPECT_EQ(P.Exit, 0) << Flag;
    EXPECT_EQ(P.Message, cliUsage()) << Flag;
  }
}

TEST(CliParse, MissingEmptyOrFlagShapedOperandIsAMissingValue) {
  for (const CliFlag &F : cliFlags()) {
    if (F.Kind == CliKind::None)
      continue;
    const std::string Want =
        "signalc: missing value for " + std::string(F.Name) + "\n";
    std::vector<std::string> Last = given(F, sample(F));
    Last.pop_back();
    EXPECT_EQ(usageError(Last), Want) << "last";
    std::vector<std::string> FlagShaped = Last;
    FlagShaped.push_back("--stats");
    EXPECT_EQ(usageError(FlagShaped), Want) << "flag-shaped";
    std::vector<std::string> Empty = Last;
    Empty.back() += "=";
    EXPECT_EQ(usageError(Empty), Want) << "empty =";
    std::vector<std::string> EmptyArg = Last;
    EmptyArg.push_back("");
    EXPECT_EQ(usageError(EmptyArg), Want) << "empty argument";
  }
}

TEST(CliParse, FlagWithoutAnOperandRefusesOne) {
  for (const CliFlag &F : cliFlags()) {
    if (F.Kind == CliKind::None && F.Name[1] == '-') {
      EXPECT_EQ(usageError({std::string(F.Name) + "=x"}),
                "signalc: " + std::string(F.Name) + " takes no value\n");
    }
  }
}

TEST(CliParse, MalformedAndOutOfRangeOperandsNameTheFlag) {
  for (const CliFlag &F : cliFlags()) {
    const std::string Name = F.Name;
    auto with = [&](const std::string &V) {
      return usageError(given(F, V));
    };
    if (F.Kind == CliKind::Engine || F.Kind == CliKind::Native) {
      EXPECT_EQ(with("bogus").rfind("signalc: unknown " + Name + " 'bogus'; "
                                    "valid modes: ",
                                    0),
                0u)
          << Name;
    }
    if (!numeric(F))
      continue;
    for (const char *Bad : {"abc", "-1", "1x", " 1"})
      EXPECT_EQ(with(Bad), "signalc: invalid value '" + std::string(Bad) +
                               "' for " + Name +
                               ": expected an unsigned integer\n");
    std::string Over = F.Max == UINT64_MAX ? "18446744073709551616"
                                           : std::to_string(F.Max + 1);
    EXPECT_EQ(with(Over), "signalc: value '" + Over + "' for " + Name +
                              " is out of range (max " +
                              std::to_string(F.Max) + ")\n");
    if (F.Min > 0) {
      std::string Under = std::to_string(F.Min - 1);
      EXPECT_EQ(with(Under), "signalc: value '" + Under + "' for " + Name +
                                 " is out of range (min " +
                                 std::to_string(F.Min) + ")\n");
    }
  }
}

TEST(CliParse, EveryCompanionIsRequiredAndEachAlternativeSuffices) {
  for (const CliFlag &F : cliFlags()) {
    std::vector<std::string> Needs = words(F.Needs);
    if (Needs.empty())
      continue;
    std::vector<std::string> Alone = {F.Name};
    if (F.Kind != CliKind::None)
      Alone.push_back(sample(F));
    std::string Message = usageError(Alone);
    EXPECT_EQ(Message.rfind("signalc: " + std::string(F.Name) + " requires " +
                                Needs[0],
                            0),
              0u)
        << Message;
    for (const std::string &N : Needs) {
      std::vector<std::string> Args = given(row(N), sample(row(N)));
      Args.insert(Args.end(), Alone.begin(), Alone.end());
      CliParse P = parse(Args);
      EXPECT_FALSE(P.stops()) << F.Name << " with " << N << ": " << P.Message;
    }
  }
  EXPECT_EQ(usageError({"--batch", "8"}),
            "signalc: --batch requires --simulate, --replay or --serve\n");
}

TEST(CliParse, EveryExclusionIsAUsageError) {
  unsigned Pairs = 0;
  for (const CliFlag &F : cliFlags())
    for (const std::string &E : words(F.Excludes)) {
      std::vector<std::string> Args = given(row(E), sample(row(E)));
      std::vector<std::string> Mine = given(F, sample(F));
      Args.insert(Args.end(), Mine.begin(), Mine.end());
      EXPECT_EQ(usageError(Args), "signalc: " + std::string(F.Name) +
                                      " cannot be combined with " + E + "\n");
      ++Pairs;
    }
  // --process and the six per-stage dumps under --link, and any two of
  // --simulate, --replay and --serve.
  EXPECT_EQ(Pairs, 10u);
}

TEST(CliParse, ValueDependentCombinations) {
  EXPECT_EQ(usageError({"--link", "A,B", "--mode", "flat"}),
            "signalc: --mode flat cannot run a linked system (the fused step "
            "is nested code only)\n");
  EXPECT_EQ(usageError({"--link", "A,B", "--serve", "s"}),
            "signalc: --serve cannot serve a linked system\n");
  for (const char *Native : {"auto", "force"}) {
    const std::string Head = "signalc: --native " + std::string(Native) +
                             " cannot be combined with ";
    EXPECT_EQ(usageError({"--native", Native, "--simulate", "3", "--mode",
                          "flat"}),
              Head + "--mode flat (native code is nested code)\n");
    EXPECT_EQ(usageError({"--native", Native, "--simulate", "3", "--record",
                          "t"}),
              Head + "--record (the recorder runs the vm)\n");
  }
  // --native off runs on the VM anyway, and a replay runs tiered too.
  EXPECT_FALSE(parse({"--native", "off", "--simulate", "3", "--mode", "flat",
                      "--record", "t"})
                   .stops());
  EXPECT_FALSE(parse({"--native", "force", "--replay", "t"}).stops());
  EXPECT_EQ(usageError({"--native", "force", "--emit-c"}),
            "signalc: --native requires --simulate, --replay or --serve\n");
  // --batch is the stepN window of every mode, so it is at least 1.
  EXPECT_EQ(usageError({"--simulate", "3", "--batch", "0"}),
            "signalc: value '0' for --batch is out of range (min 1)\n");
  // The tier's qualifiers need the tier on: --native off does not count.
  for (const char *Flag : {"--tier-after", "--cache-dir"}) {
    EXPECT_EQ(usageError({"--simulate", "2", "--native", "off", Flag, "5"}),
              "signalc: " + std::string(Flag) +
                  " requires --native auto or force\n");
    for (const char *Native : {"auto", "force"})
      EXPECT_FALSE(
          parse({"--simulate", "2", "--native", Native, Flag, "5"}).stops())
          << Flag << " with --native " << Native;
  }
  EXPECT_FALSE(parse({"--link", "A,B", "--simulate", "3", "--native", "force"})
                   .stops());
}

TEST(CliParse, InputIsOneFileOrOneBuiltin) {
  auto run = [](std::vector<const char *> Argv) {
    Argv.insert(Argv.begin(), "signalc");
    return parseCli(static_cast<int>(Argv.size()), Argv.data());
  };
  CliParse File = run({"a.sig", "--simulate", "2"});
  ASSERT_FALSE(File.stops()) << File.Message;
  EXPECT_EQ(File.Options.File, "a.sig");
  EXPECT_EQ(run({"a.sig", "b.sig"}).Message,
            "signalc: more than one input file ('a.sig' and 'b.sig')\n");
  EXPECT_EQ(run({"--builtin", "WATCH", "a.sig"}).Message,
            "signalc: --builtin cannot be combined with a file ('a.sig')\n");
  CliParse None = run({"--stats"});
  EXPECT_EQ(None.Exit, 2);
  EXPECT_EQ(None.Message, cliUsage());
}

TEST(CliParse, UnknownOptionSuggestsItsNeighbour) {
  EXPECT_EQ(usageError({"--simulte=4"}),
            "signalc: unknown option '--simulte=4'; did you mean "
            "'--simulate'?\n" +
                cliUsage());
  EXPECT_EQ(usageError({"--zzqxj"}),
            "signalc: unknown option '--zzqxj'\n" + cliUsage());
  // The fleet flags are gone: a run is one scalar instance.
  for (const char *Gone : {"--fleet", "--threads"})
    EXPECT_EQ(usageError({"--simulate", "3", Gone, "2"})
                  .rfind("signalc: unknown option '" + std::string(Gone) + "'",
                         0),
              0u)
        << Gone;
}

TEST(CliParse, MutatedArgvRunsOrStopsWithADiagnostic) {
  // Row names, operands near every bound, and junk, mutated under a fixed
  // seed: every argument list runs or stops, the same way twice.
  std::vector<std::string> Pool;
  for (const CliFlag &F : cliFlags()) {
    Pool.push_back(F.Name);
    Pool.push_back(F.Name + std::string("=1"));
  }
  for (const char *T :
       {"0", "1", "7", "65535", "65536", "4294967295", "4294967296",
        "18446744073709551615", "18446744073709551616", "-1", "abc", "", "vm",
        "flat", "off", "auto", "force", "a.sig", "b.sig", "FIG5_ALARM", "-",
        "--", "=", "--=", "-h=1", "--mode=", "--native=auto", "P,Q"})
    Pool.push_back(T);
  std::mt19937_64 Rng(20261019);
  for (unsigned Iter = 0; Iter < 2000; ++Iter) {
    std::vector<std::string> Args(Rng() % 9);
    for (std::string &A : Args) {
      A = Pool[Rng() % Pool.size()];
      if (Rng() % 8 == 0) // Flip, cut or extend a character.
        switch (Rng() % 3) {
        case 0:
          if (!A.empty())
            A[Rng() % A.size()] = static_cast<char>(1 + Rng() % 255);
          break;
        case 1:
          A = A.substr(0, A.empty() ? 0 : Rng() % A.size());
          break;
        default:
          A += static_cast<char>(1 + Rng() % 255);
        }
    }
    std::vector<const char *> Argv = {"signalc"};
    for (const std::string &A : Args)
      Argv.push_back(A.c_str());
    CliParse P, Again;
    ASSERT_NO_THROW(P = parseCli(static_cast<int>(Argv.size()), Argv.data()));
    Again = parseCli(static_cast<int>(Argv.size()), Argv.data());
    EXPECT_EQ(P.Message, Again.Message);
    if (P.stops()) {
      EXPECT_TRUE(P.Exit == 2 || (P.Exit == 0 && P.Message == cliUsage()))
          << P.Message;
      EXPECT_TRUE(P.Message.rfind("signalc: ", 0) == 0 ||
                  P.Message == cliUsage())
          << P.Message;
    } else {
      EXPECT_NE(P.Options.Builtin.empty(), P.Options.File.empty());
    }
  }
}
