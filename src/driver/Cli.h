//===--- Cli.h - The signalc command line -----------------------*- C++-*-===//
///
/// \file
/// Every signalc flag is one row of SIGC_CLI_FLAGS. parseCli reads argv
/// by the rows, and the usage text, the known-flag list for typo hints
/// and the companion and exclusion checks are all generated from them,
/// so a flag is declared in exactly one place.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_DRIVER_CLI_H
#define SIGNALC_DRIVER_CLI_H

#include "io/Server.h"
#include "io/TraceFormat.h"
#include "native/TierController.h"

#include <cstdint>
#include <string>
#include <vector>

/// X(name, field, min, max, needs, excludes, operand, help): the flag
/// sets CliOptions::field. The field's type is the operand kind: a bool
/// takes no operand, a std::string a string, an unsigned or uint64_t a
/// number in [min, max], an EngineMode or NativeMode one of its names.
/// needs (space-separated) makes the flag a usage error unless one of
/// those flags is given too; excludes makes it one with any of those.
/// Every operand flag also takes the `--flag=value` form.
#define SIGC_CLI_FLAGS(X)                                                      \
  X("--builtin", Builtin, 0, 0, "", "", "NAME",                                \
    "compile a builtin program instead of a file")                             \
  X("--process", ProcessName, 0, 0, "", "--link", "NAME",                      \
    "pick a process when the file declares several")                           \
  X("--link", LinkList, 0, 0, "", "", "P1,P2,...",                             \
    "compile the processes separately, then link them")                        \
  X("--dump-kernel", DumpKernel, 0, 0, "", "--link", "",                       \
    "print the flattened kernel equations")                                    \
  X("--dump-clocks", DumpClocks, 0, 0, "", "--link", "",                       \
    "print the extracted boolean equation system")                             \
  X("--dump-tree", DumpTree, 0, 0, "", "--link", "",                           \
    "print the resolved clock forest")                                         \
  X("--dump-tree-dot", DumpTreeDot, 0, 0, "", "--link", "",                    \
    "print the clock forest as a Graphviz digraph")                            \
  X("--dump-graph", DumpGraph, 0, 0, "", "--link", "",                         \
    "print the scheduled dependency actions")                                  \
  X("--dump-step", DumpStep, 0, 0, "", "--link", "",                           \
    "print the step bytecode of the --mode lowering")                          \
  X("--dump-interface", DumpInterface, 0, 0, "", "", "",                       \
    "print each unit's separate-compilation interface")                        \
  X("--dump-link", DumpLink, 0, 0, "--link", "", "",                           \
    "print the linked system and its fused step")                              \
  X("--emit-c", EmitC, 0, 0, "", "", "",                                       \
    "print the C generated from the step bytecode")                            \
  X("--with-driver", WithDriver, 0, 0, "--emit-c", "", "",                     \
    "add a main() to the generated C")                                         \
  X("--mode", Mode, 0, 0, "", "", "vm|flat",                                   \
    "guard lowering: nested (vm) or flat")                                     \
  X("--stats", Stats, 0, 0, "", "", "",                                        \
    "print compile and run counters to stderr")                                \
  X("--simulate", Simulate, 1, UINT32_MAX, "", "", "N",                        \
    "run N instants against a random environment")                             \
  X("--seed", Seed, 0, UINT64_MAX, "--simulate", "", "S",                      \
    "seed of the random environment")                                          \
  X("--batch", Batch, 1, UINT32_MAX, "--simulate --replay --serve", "", "B",   \
    "instants per stepN window; the output is the same")                       \
  X("--record", RecordFile, 0, 0, "--simulate", "", "FILE",                    \
    "record the simulated trace to FILE")                                      \
  X("--frame", FrameInstants, 1, 65535, "--record", "", "W",                   \
    "instants per recorded trace frame")                                       \
  X("--replay", ReplayFile, 0, 0, "", "--simulate", "FILE",                    \
    "re-execute the trace in FILE, verifying outputs")                         \
  X("--serve", Serve.SocketPath, 0, 0, "", "--simulate --replay", "SOCK",      \
    "serve trace sessions on the Unix socket SOCK")                            \
  X("--max-sessions", Serve.MaxSessions, 1, UINT32_MAX, "--serve", "", "N",    \
    "concurrent-session capacity")                                             \
  X("--serve-limit", Serve.SessionLimit, 0, UINT32_MAX, "--serve", "", "K",    \
    "exit after K sessions have ended (0: serve forever)")                     \
  X("--resume", Serve.MaxParkedSessions, 0, UINT32_MAX, "--serve", "", "N",    \
    "park up to N disconnected sessions for resume")                           \
  X("--batch-budget", Serve.BatchBudgetInstants, 0, UINT64_MAX, "--serve", "", \
    "N", "in-flight batch budget in instants (0: none)")                       \
  X("--idle-timeout", Serve.IdleTimeoutMs, 0, UINT32_MAX, "--serve", "", "MS", \
    "drop a session that sends no stimulus for MS ms")                         \
  X("--write-timeout", Serve.WriteTimeoutMs, 0, UINT32_MAX, "--serve", "",     \
    "MS", "drop a session whose client reads nothing for MS ms")               \
  X("--drain-grace", Serve.DrainGraceMs, 0, UINT32_MAX, "--serve", "", "MS",   \
    "force exit MS ms into a SIGTERM/SIGINT drain")                            \
  X("--sndbuf", Serve.SendBufBytes, 0, UINT32_MAX, "--serve", "", "BYTES",     \
    "SO_SNDBUF of accepted connections")                                       \
  X("--native", Tier.Mode, 0, 0, "--simulate --replay --serve", "",           \
    "off|auto|force",                                                          \
    "native tier: off, auto (background compile), force")                      \
  X("--cache-dir", Tier.CacheDir, 0, 0, "--native", "", "DIR",                 \
    "native cache (default $XDG_CACHE_HOME/signalc)")                          \
  X("--tier-after", Tier.TierAfter, 0, UINT32_MAX, "--native", "", "N",        \
    "interpreted instants before an auto promotion")                           \
  X("--help", Help, 0, 0, "", "", "", "print this help")                       \
  X("-h", Help, 0, 0, "", "", "", "print this help")

namespace sigc {

/// The step lowerings `signalc --mode` runs on the VM: vm is the nested
/// lowering, flat guards every instruction (GuardLowering).
enum class EngineMode { Vm, Flat };

/// The spelling of a mode ("vm", "flat"; "off", "auto", "force").
const char *to_string(EngineMode Mode);
const char *to_string(NativeMode Mode);

/// Parses a --mode spelling. On an unknown mode returns false and fills
/// \p Diag with a diagnostic naming every valid mode — the same shape as
/// the --process typo diagnostic, so a typo never sends the user to the
/// sources.
bool parseEngineMode(const std::string &Name, EngineMode &Mode,
                     std::string &Diag);

/// Parses the numeric operand of CLI flag \p Flag into \p Out. \p Text
/// may be null (flag given as the last argument): every failure — a
/// missing operand, a non-numeric spelling, or a value above \p Max —
/// returns false and fills \p Diag with a diagnostic naming the flag, so
/// `--batch abc` and `--seed 99999999999999999999` are exit-code-2
/// diagnoses instead of uncaught std::stoul exceptions.
bool parseCliUnsigned(const std::string &Flag, const char *Text, uint64_t Max,
                      uint64_t &Out, std::string &Diag);

/// Everything the command line sets. Each field keeps its default here
/// or in the options struct it belongs to.
struct CliOptions {
  std::string File; ///< The positional source file.
  std::string Builtin, ProcessName, LinkList, RecordFile, ReplayFile;
  bool DumpKernel = false, DumpClocks = false, DumpTree = false;
  bool DumpTreeDot = false, DumpGraph = false, DumpStep = false;
  bool DumpInterface = false, DumpLink = false, EmitC = false;
  bool WithDriver = false, Stats = false;
  bool Help = false;
  unsigned Simulate = 0;
  /// The stepN window; 0 (no --batch) picks the mode's default:
  /// UnbatchedWindow for --simulate, the trace's frame for --replay,
  /// ServeOptions::BatchInstants for --serve.
  unsigned Batch = 0;
  unsigned FrameInstants = TraceDefaultFrameInstants;
  uint64_t Seed = 1;
  EngineMode Mode = EngineMode::Vm;
  ServeOptions Serve; ///< --serve and its knobs (a run adds Tier, Batch).
  TierOptions Tier;
};

/// A row's operand kind, which its field's type decides.
enum class CliKind { None, String, U32, U64, Engine, Native };

/// One SIGC_CLI_FLAGS row.
struct CliFlag {
  const char *Name;
  CliKind Kind;
  uint64_t Min, Max;    ///< Bounds of a numeric operand.
  const char *Needs;    ///< Space-separated; one of them must be given.
  const char *Excludes; ///< Space-separated; none of them may be given.
  const char *Operand;  ///< Its name in the usage text ("" for none).
  const char *Help;
};

/// Every row, in table order.
const std::vector<CliFlag> &cliFlags();

/// The --help text, one line per row.
std::string cliUsage();

/// What parseCli made of argv: the options to run, or the text to print
/// on stderr and the exit code to stop with (the usage text and 0 for
/// --help).
struct CliParse {
  CliOptions Options;
  std::string Message;
  int Exit = 0;
  bool stops() const { return !Message.empty(); }
};

/// Parses argv without side effects. A usage error (exit 2) names the
/// argument at fault; none is ever thrown.
CliParse parseCli(int Argc, const char *const *Argv);

} // namespace sigc

#endif // SIGNALC_DRIVER_CLI_H
