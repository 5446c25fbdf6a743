//===--- BenchArgs.h - Strict flag parsing for the bench drivers -*- C++-*-===//
///
/// \file
/// The bench drivers' command lines are part of CI: a misspelled flag
/// (say `--json-cemt`) must fail loudly instead of silently dropping an
/// artifact. Every flag must be known, numeric operands go through the
/// CLI's parseCliUnsigned, and any failure exits 2 with a message naming
/// the flag:
///
///   BenchArgs Args("bench_x", Argc, Argv);
///   while (Args.next()) {
///     if (Args.is("--json"))
///       JsonPath = Args.value();
///     else if (Args.is("--instants"))
///       Instants = Args.number();
///     else
///       Args.unknown();
///   }
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_BENCH_BENCHARGS_H
#define SIGNALC_BENCH_BENCHARGS_H

#include "driver/Cli.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace sigc {

class BenchArgs {
public:
  BenchArgs(const char *Prog, int Argc, char **Argv)
      : Prog(Prog), Argc(Argc), Argv(Argv) {}

  /// Advances to the next flag; false once the arguments are exhausted.
  bool next() { return ++I < Argc; }

  bool is(const char *Flag) const { return Flag == flag(); }

  /// The current flag's operand; exits 2 when it is missing.
  std::string value() {
    if (I + 1 >= Argc)
      fail("missing value for " + flag());
    return Argv[++I];
  }

  /// The current flag's unsigned operand.
  unsigned number() {
    std::string Flag = flag();
    return parse(Flag, I + 1 < Argc ? Argv[++I] : nullptr);
  }

  /// The current flag's comma-separated unsigned operands.
  std::vector<unsigned> numberList() {
    std::string Flag = flag();
    std::vector<unsigned> Out;
    std::string Cur;
    for (char C : value() + ",") {
      if (C != ',') {
        Cur += C;
        continue;
      }
      if (!Cur.empty())
        Out.push_back(parse(Flag, Cur.c_str()));
      Cur.clear();
    }
    return Out;
  }

  /// Rejects the current flag.
  [[noreturn]] void unknown() const { fail("unknown option '" + flag() + "'"); }

private:
  std::string flag() const { return Argv[I]; }

  unsigned parse(const std::string &Flag, const char *Text) const {
    uint64_t V = 0;
    std::string Diag;
    if (!parseCliUnsigned(Flag, Text, UINT32_MAX, V, Diag))
      fail(Diag);
    return static_cast<unsigned>(V);
  }

  [[noreturn]] void fail(const std::string &Msg) const {
    std::fprintf(stderr, "%s: %s\n", Prog, Msg.c_str());
    std::exit(2);
  }

  const char *Prog;
  int Argc;
  char **Argv;
  int I = 0;
};

} // namespace sigc

#endif // SIGNALC_BENCH_BENCHARGS_H
