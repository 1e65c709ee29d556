// Liquid benchmark program.
//
//   liquid_perfbench --workload ingest|nearline|rewind --seed N --seconds S
//                    [--trace 0|1] [--spans PATH]
//   liquid_perfbench --selftest
//
// Prints one JSON object on its last line with the run's correctness,
// operation counts, end-to-end and per-layer metrics. With --trace 1 the
// benchmark also wraps each call into the program in a span, reports self time
// per span name and writes the spans to PATH.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench.h"
#include "check.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonMetrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += JsonString(name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: liquid_perfbench --workload ingest|nearline|rewind "
               "--seed N --seconds S [--trace 0|1] [--spans PATH]\n"
               "       liquid_perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, spans_path;
  RunOptions options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--selftest") {
      selftest = true;
    } else if (next == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans") {
      spans_path = argv[++i];
    } else {
      return Usage();
    }
  }

  if (selftest) {
    const std::string problems = SelfTest();
    std::printf("{\"selftest\": %s, \"problems\": %s}\n",
                problems.empty() ? "true" : "false",
                JsonString(problems).c_str());
    return problems.empty() ? 0 : 1;
  }

  if (options.trace) Tracer::Get()->Enable();
  RunResult result;
  if (workload == "ingest") {
    result = RunIngest(options);
  } else if (workload == "nearline") {
    result = RunLive(options, /*rewind=*/false);
  } else if (workload == "rewind") {
    result = RunLive(options, /*rewind=*/true);
  } else {
    return Usage();
  }
  result.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};

  if (options.trace) {
    Tracer* tracer = Tracer::Get();
    const Tracer::Summary summary = tracer->Summarize();
    for (int n = 0; n < kNumSpanNames; ++n) {
      const std::string name = SpanNameString(static_cast<SpanName>(n));
      result.per_layer["self_ms." + name] = {summary.self_ms[n], "ms"};
    }
    const double ns_per_span = tracer->CalibrateNsPerSpan();
    result.per_layer["trace.spans"] = {static_cast<double>(summary.count),
                                       "count"};
    result.per_layer["trace.cost_ms"] = {
        static_cast<double>(summary.count) * ns_per_span * 1e-6, "ms"};
    if (!spans_path.empty() && !tracer->WriteTsv(spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    }
  }

  std::string operations = "{";
  for (const auto& [kind, counts] : result.operations) {
    if (operations.size() > 1) operations += ", ";
    operations += JsonString(kind) + ": {\"attempted\": " +
                  std::to_string(counts.first) +
                  ", \"failed\": " + std::to_string(counts.second) + "}";
  }
  operations += "}";
  std::printf(
      "{\"workload\": %s, \"correct\": %s, \"error\": %s, \"attempted\": %lld, "
      "\"failed\": %lld, \"rounds\": %d, \"operations\": %s, "
      "\"end_to_end\": %s, \"per_layer\": %s}\n",
      JsonString(workload).c_str(), result.correct ? "true" : "false",
      JsonString(result.error).c_str(),
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), result.rounds, operations.c_str(),
      JsonMetrics(result.end_to_end).c_str(),
      JsonMetrics(result.per_layer).c_str());
  return 0;
}
