//===--- bench_stream.cpp - Trace record/replay throughput ----------------===//
///
/// Measures the streaming trace I/O path end to end, in instants per
/// second and stream megabytes per second:
///
///   * record       — a batched VM run mirrored through
///                    RecordingEnvironment into an in-memory sink (the
///                    cost of recording on top of executing),
///   * replay-mem   — replay out of bytes already in memory (codec +
///                    executor, no I/O at all: the ceiling),
///   * replay-mmap  — replay of an on-disk recording, mapped (what
///                    `--replay` does with a regular file),
///   * replay-fd    — the same file read(2) in chunks (what `--replay`
///                    does with a pipe).
///
/// Every leg decodes through TraceDecoder and runs replayTrace, the one
/// replay loop.
///
/// Workloads: the Figure-5 alarm and a divider chain, at dense and
/// sparse stimulus — the same shapes bench_step times, so
/// the reports compose.
///
/// Usage: bench_stream [--json FILE] [--instants K]
/// CI uploads the JSON output as BENCH_stream.json.
///
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "driver/Driver.h"
#include "interp/VmExecutor.h"
#include "io/TraceEnvironment.h"
#include "io/TraceWriter.h"
#include "programs/Programs.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

using namespace sigc;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

struct Row {
  std::string Name;
  unsigned TickPermille = 800;
  size_t TraceBytes = 0;
  double RecordPerSec = 0;
  double ReplayMemPerSec = 0;
  double ReplayMmapPerSec = 0;
  double ReplayFdPerSec = 0;
};

/// One recorded run of \p CS: the trace bytes plus the recording rate.
std::vector<uint8_t> recordTrace(const CompiledStep &CS, unsigned Instants,
                                 unsigned TickPermille, double &PerSec) {
  // Warm pass binds and sizes every buffer; the timed pass is steady
  // state.
  for (int Pass = 0; Pass < 2; ++Pass) {
    MemorySink Sink;
    TraceWriter W(Sink, TraceSpec::fromStep(CS, "bench"));
    RandomEnvironment Rnd(42, TickPermille);
    RecordingEnvironment Rec(Rnd, W);
    VmExecutor Vm(CS);
    unsigned N = Pass == 0 ? Instants / 8 + 1 : Instants;
    auto T0 = std::chrono::steady_clock::now();
    runWindows(Vm, Rec, 0, N, 64);
    W.finish(N);
    double S = secondsSince(T0);
    if (Pass == 1) {
      PerSec = S > 0 ? N / S : 0;
      return Sink.takeBytes();
    }
  }
  return {};
}

/// Replays a whole trace from \p In; \returns instants per second.
double replayFrom(const CompiledStep &CS, TraceInput &In) {
  TraceDecoder Dec(&CS);
  if (!In.readHeader(Dec)) {
    std::fprintf(stderr, "replay failed: %s\n", Dec.error().str().c_str());
    std::exit(1);
  }
  StreamEnvironment Env(Dec.spec());
  VmExecutor Vm(CS);
  auto T0 = std::chrono::steady_clock::now();
  unsigned At = replayTrace(In, Dec, Env, Vm, Dec.spec().FrameInstants);
  double S = secondsSince(T0);
  if (!Dec.error().ok()) {
    std::fprintf(stderr, "replay failed: %s\n", Dec.error().str().c_str());
    std::exit(1);
  }
  return S > 0 ? At / S : 0;
}

Row benchProgram(const std::string &Name, const std::string &Source,
                 unsigned TickPermille, unsigned Instants) {
  auto C = compileSource("<bench:" + Name + ">", Source);
  if (!C->Ok) {
    std::fprintf(stderr, "%s: compilation failed:\n%s", Name.c_str(),
                 C->Diags.render().c_str());
    std::exit(1);
  }
  Row R;
  R.Name = Name;
  R.TickPermille = TickPermille;

  std::vector<uint8_t> Bytes =
      recordTrace(C->Compiled, Instants, TickPermille, R.RecordPerSec);
  R.TraceBytes = Bytes.size();

  {
    // Warm replay (binds, shapes frames), then the timed one.
    TraceInput Warm(Bytes);
    replayFrom(C->Compiled, Warm);
    TraceInput In(Bytes);
    R.ReplayMemPerSec = replayFrom(C->Compiled, In);
  }

  std::string Path = "/tmp/sigc-benchstream-" + std::to_string(::getpid()) +
                     ".sgtr";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
  }
  // File-backed legs get their own warm pass so the timed run is not
  // measuring cold page faults against the fresh file.
  for (int Pass = 0; Pass < 2; ++Pass) {
    TraceInput In;
    std::string Error;
    if (!In.open(Path, Error)) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      std::exit(1);
    }
    R.ReplayMmapPerSec = replayFrom(C->Compiled, In);
  }
  for (int Pass = 0; Pass < 2; ++Pass) {
    int Fd = ::open(Path.c_str(), O_RDONLY);
    if (Fd < 0) {
      std::perror(Path.c_str());
      std::exit(1);
    }
    TraceInput In(Fd, /*OwnsFd=*/true);
    R.ReplayFdPerSec = replayFrom(C->Compiled, In);
  }
  std::remove(Path.c_str());
  return R;
}

/// Stream megabytes per second at \p InstantsPerSec.
double mbPerSec(const Row &R, double InstantsPerSec, unsigned Instants) {
  return Instants > 0
             ? InstantsPerSec * R.TraceBytes / Instants / (1024.0 * 1024.0)
             : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Instants = 1u << 16;
  std::string JsonPath;
  BenchArgs Args("bench_stream", Argc, Argv);
  while (Args.next()) {
    if (Args.is("--json"))
      JsonPath = Args.value();
    else if (Args.is("--instants"))
      Instants = Args.number();
    else
      Args.unknown();
  }

  std::printf("Trace streaming throughput (instants/sec, %u instants)\n\n",
              Instants);
  std::printf("%-14s %6s %10s %12s %12s %12s %12s %10s\n", "program", "tick",
              "bytes", "record", "replay-mem", "replay-mmap", "replay-fd",
              "mmap-MB/s");

  std::vector<Row> Rows;
  auto Report = [&](Row R) {
    std::printf("%-14s %6u %10zu %12.0f %12.0f %12.0f %12.0f %10.1f\n",
                R.Name.c_str(), R.TickPermille, R.TraceBytes, R.RecordPerSec,
                R.ReplayMemPerSec, R.ReplayMmapPerSec, R.ReplayFdPerSec,
                mbPerSec(R, R.ReplayMmapPerSec, Instants));
    Rows.push_back(std::move(R));
  };

  Report(benchProgram("FIG5_ALARM", alarmFigure5Source(), 800, Instants));
  {
    ProgramShape Shape;
    Shape.DividerStages = 16;
    std::string Source = generateProgram("CHAIN", Shape);
    Report(benchProgram("chain16", Source, 1000, Instants));
    Report(benchProgram("chain16", Source, 250, Instants));
  }

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    Out << "{\n  \"benchmarks\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      Out << "    {\"name\": \"stream/" << R.Name << "/tick="
          << R.TickPermille << "\", "
          << "\"instants\": " << Instants << ", "
          << "\"trace_bytes\": " << R.TraceBytes << ", "
          << "\"record_inst_per_sec\": " << R.RecordPerSec << ", "
          << "\"replay_mem_inst_per_sec\": " << R.ReplayMemPerSec << ", "
          << "\"replay_mmap_inst_per_sec\": " << R.ReplayMmapPerSec << ", "
          << "\"replay_fd_inst_per_sec\": " << R.ReplayFdPerSec << ", "
          << "\"replay_mmap_mb_per_sec\": "
          << mbPerSec(R, R.ReplayMmapPerSec, Instants) << ", "
          << "\"replay_fd_vs_mmap\": "
          << (R.ReplayMmapPerSec > 0 ? R.ReplayFdPerSec / R.ReplayMmapPerSec
                                     : 0)
          << "}" << (I + 1 < Rows.size() ? "," : "") << "\n";
    }
    Out << "  ]\n}\n";
    std::printf("\nwrote %s\n", JsonPath.c_str());
  }
  return 0;
}
