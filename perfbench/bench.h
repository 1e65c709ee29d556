// Shared pieces of the Liquid benchmark: time, percentiles, the
// span recorder of traced runs, and window snapshots of the program's own
// counters. Everything here sits outside the program and uses only its
// public headers.
#ifndef LIQUID_PERFBENCH_BENCH_H_
#define LIQUID_PERFBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/liquid.h"
#include "storage/disk.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Value at quantile q (0..1) of `v` by nearest rank; 0 for an empty set.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// Smallest element; 0 for an empty set.
double Min(const std::vector<double>& v);

/// Process CPU time (user + system) in nanoseconds.
int64_t CpuNs();
/// CPU time of the calling thread in nanoseconds. Time the host takes away
/// from the VM (steal) and time the thread waits for a core are not in it.
int64_t ThreadCpuNs();
/// Peak resident set size of the process in MiB.
double PeakRssMb();

// ---- Spans of traced runs ----

/// The calls into the program that traced runs wrap in a span.
enum SpanName : uint8_t {
  kProducerSend,
  kProducerFlush,
  kConsumerPoll,
  kConsumerSeek,
  kJobRunOnce,
  kStateGet,
  kStatePut,
  kCollectorSend,
  kNumSpanNames,
};
const char* SpanNameString(SpanName name);

struct SpanRecord {
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // Index in the same thread's buffer, -1 for a root.
  uint8_t name;
};

/// In-memory span sink: one buffer per thread, so recording takes no lock.
/// Self time per name is summed as spans close, over every span; the first
/// kMaxStoredSpans spans of the run are kept and written out once it ends.
class Tracer {
 public:
  static constexpr int64_t kMaxStoredSpans = 500000;

  static Tracer* Get();

  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }

  void Open(SpanName name);
  void Close();

  /// Self time (span minus child spans) per name, and span count.
  struct Summary {
    double self_ms[kNumSpanNames] = {};
    int64_t count = 0;
  };
  Summary Summarize() const;

  /// Writes the stored spans as lines "thread index parent name start end".
  bool WriteTsv(const std::string& path) const;

  /// Measured cost of one Open/Close pair, in nanoseconds.
  double CalibrateNsPerSpan();

 private:
  struct OpenSpan {
    int64_t start_ns;
    int32_t stored;  // Index in `spans`, -1 when past the storage cap.
    uint8_t name;
  };
  struct ThreadBuffer {
    std::vector<SpanRecord> spans;
    std::vector<OpenSpan> open;
    int64_t self_ns[kNumSpanNames] = {};
    int64_t count = 0;
  };
  ThreadBuffer* Local();

  bool enabled_ = false;
  std::atomic<int64_t> stored_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; costs one branch when tracing is off.
class Span {
 public:
  explicit Span(SpanName name) : on_(Tracer::Get()->enabled()) {
    if (on_) Tracer::Get()->Open(name);
  }
  ~Span() {
    if (on_) Tracer::Get()->Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const bool on_;
};

// ---- Window snapshots of the program's published counters ----

/// Counters and histogram contents the program publishes, summed over the
/// brokers of one cluster. Take one at the start and one at the end of a
/// measured window; the difference is the window's delta.
struct LayerCounters {
  int64_t broker_fetch_records = 0;
  int64_t broker_produce_requests = 0;
  int64_t isr_shrinks = 0;
  int64_t page_cache_hits = 0;
  int64_t page_cache_misses = 0;
  int64_t page_cache_forced_evictions = 0;
  int64_t disk_read_ops = 0;
  int64_t disk_bytes_read = 0;
  int64_t disk_bytes_written = 0;
  int64_t disk_syncs = 0;
  int64_t offset_commits = 0;
  int64_t state_disk_bytes_written = 0;

  static LayerCounters Take(liquid::core::Liquid* liquid);
  LayerCounters operator-(const LayerCounters& o) const;
  LayerCounters& operator+=(const LayerCounters& o);
};

/// One call of the benchmark into the program that carried records: when it
/// started, and the CPU time the calling thread spent in it. Every call into
/// the program runs to its end on the calling thread (replication to the
/// followers included), so that CPU time is the call's whole cost.
struct CallCpu {
  int64_t start_ns;
  int64_t cpu_ns;
  int64_t records;
};

/// CPU per record, in microseconds, of the calls that started in
/// [from_ns, to_ns): their CPU time over their records; 0 without records.
double CpuUsPerRecord(const std::vector<CallCpu>& calls, int64_t from_ns = 0,
                      int64_t to_ns = INT64_MAX);

/// Pools the program's global latency histograms across measured windows:
/// Begin() clears them, End() merges what the window recorded.
class HistogramPool {
 public:
  explicit HistogramPool(std::vector<std::string> names)
      : names_(std::move(names)) {}
  void Begin();
  void End();
  const liquid::Histogram& pooled() const { return pooled_; }
  void Clear() { pooled_.Reset(); }

 private:
  std::vector<std::string> names_;
  liquid::Histogram pooled_;
};

/// Names of a per-broker global histogram for brokers 0..n-1.
std::vector<std::string> BrokerHistogramNames(int brokers,
                                              const std::string& suffix);

// ---- Results ----

/// What one workload run reports. Metrics are keyed by name; the unit rides
/// along so the printer needs no second table.
struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::string error;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Per-kind operation counts ("produce_requests", "export_polls", ...).
  std::map<std::string, std::pair<int64_t, int64_t>> operations;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  int rounds = 0;

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
  void Count(const std::string& kind, int64_t attempted_ops,
             int64_t failed_ops) {
    auto& [a, f] = operations[kind];
    a += attempted_ops;
    f += failed_ops;
    attempted += attempted_ops;
    failed += failed_ops;
  }
};

/// Options every workload takes from the command line.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Fills the per-layer metrics every workload reports from the pieces the
/// workloads measured; a workload leaves the pieces it does not exercise at
/// zero.
struct LayerInputs {
  LayerCounters counters;
  std::vector<double> request_us;     // Benchmark produce requests.
  int64_t requests = 0;
  int64_t request_records = 0;
  int64_t producer_retries = 0;
  std::vector<double> poll_us;        // Benchmark Consumer::Poll calls.
  int64_t polls = 0;
  int64_t empty_polls = 0;
  int64_t poll_records = 0;           // Records those polls returned.
  int64_t delivered = 0;              // Records every reader was handed.
  int64_t user_bytes = 0;             // Key + value bytes produced.
  std::vector<double> runonce_us;     // Non-empty Job::RunOnce calls.
  int64_t runonce_records = 0;
  std::vector<double> get_us;
  std::vector<double> put_us;
  int64_t restore_records = 0;
  std::vector<double> late_ms;        // Generator lateness.
  /// Every sample behind the end-to-end latency percentiles.
  std::vector<double> latency_ms;
  liquid::Histogram produce_us;       // Broker produce handling.
  liquid::Histogram lock_wait_us;     // Broker replica-lock wait.
  liquid::Histogram fetch_us;         // Broker fetch handling.
  liquid::Histogram process_us;       // Job per-record Process().

  /// Forgets everything gathered so far (after a warm-up round).
  void Clear();
};
void FillPerLayer(const LayerInputs& in, RunResult* out);

}  // namespace perfbench

#endif  // LIQUID_PERFBENCH_BENCH_H_
