#include "bench.h"

#include <sys/resource.h>

#include <cmath>
#include <ctime>
#include <fstream>
#include <thread>

#include "messaging/broker.h"
#include "storage/page_cache.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return v[rank];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

int64_t CpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// ---- Tracer ----

const char* SpanNameString(SpanName name) {
  switch (name) {
    case kProducerSend: return "producer_send";
    case kProducerFlush: return "producer_flush";
    case kConsumerPoll: return "consumer_poll";
    case kConsumerSeek: return "consumer_seek";
    case kJobRunOnce: return "job_runonce";
    case kStateGet: return "state_get";
    case kStatePut: return "state_put";
    case kCollectorSend: return "collector_send";
    case kNumSpanNames: break;
  }
  return "unknown";
}

Tracer* Tracer::Get() {
  static Tracer tracer;
  return &tracer;
}

Tracer::ThreadBuffer* Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    local = buffer.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return local;
}

void Tracer::Open(SpanName name) {
  ThreadBuffer* b = Local();
  int32_t stored = -1;
  if (stored_.fetch_add(1, std::memory_order_relaxed) < kMaxStoredSpans) {
    stored = static_cast<int32_t>(b->spans.size());
    const int32_t parent = b->open.empty() ? -1 : b->open.back().stored;
    b->spans.push_back(SpanRecord{0, 0, parent, name});
  }
  b->open.push_back(OpenSpan{NowNs(), stored, name});
}

void Tracer::Close() {
  const int64_t end = NowNs();
  ThreadBuffer* b = Local();
  const OpenSpan span = b->open.back();
  b->open.pop_back();
  const int64_t ns = end - span.start_ns;
  b->self_ns[span.name] += ns;
  if (!b->open.empty()) b->self_ns[b->open.back().name] -= ns;
  ++b->count;
  if (span.stored >= 0) {
    SpanRecord& r = b->spans[static_cast<size_t>(span.stored)];
    r.start_ns = span.start_ns;
    r.end_ns = end;
  }
}

Tracer::Summary Tracer::Summarize() const {
  Summary s;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (int n = 0; n < kNumSpanNames; ++n) {
      s.self_ms[n] += static_cast<double>(b->self_ns[n]) * 1e-6;
    }
    s.count += b->count;
  }
  return s;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const auto& spans = buffers_[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      out << t << '\t' << i << '\t' << spans[i].parent << '\t'
          << SpanNameString(static_cast<SpanName>(spans[i].name)) << '\t'
          << spans[i].start_ns << '\t' << spans[i].end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

double Tracer::CalibrateNsPerSpan() {
  // Time spans on a scratch thread so the calibration spans do not land in
  // the run's own buffers.
  double result = 0;
  std::thread([&] {
    constexpr int kSpans = 200000;
    const int64_t t0 = NowNs();
    for (int i = 0; i < kSpans; ++i) Span span(kStateGet);
    result = static_cast<double>(NowNs() - t0) / kSpans;
    // Forget the calibration spans so they stay out of the run's figures.
    ThreadBuffer* b = Local();
    *b = ThreadBuffer{};
  }).join();
  return result;
}

// ---- Counters ----

LayerCounters LayerCounters::Take(liquid::core::Liquid* liquid) {
  LayerCounters c;
  liquid::messaging::Cluster* cluster = liquid->cluster();
  const auto global = liquid::MetricsRegistry::Default()->CounterValues();
  auto counter = [&global](const std::string& name) -> int64_t {
    auto it = global.find(name);
    return it == global.end() ? 0 : it->second;
  };
  for (int id : cluster->BrokerIds()) {
    const std::string prefix = "liquid.broker." + std::to_string(id) + ".";
    c.broker_fetch_records += counter(prefix + "fetch_records");
    c.broker_produce_requests +=
        liquid::MetricsRegistry::Default()
            ->GetHistogram(prefix + "produce_us")
            ->count();
    liquid::messaging::Broker* broker = cluster->broker(id);
    const auto local = broker->metrics()->CounterValues();
    auto it = local.find("isr.shrinks");
    if (it != local.end()) c.isr_shrinks += it->second;
    liquid::storage::PageCache* cache = broker->page_cache();
    c.page_cache_hits += cache->hits();
    c.page_cache_misses += cache->misses();
    c.page_cache_forced_evictions += cache->forced_evictions();
    liquid::storage::MemDisk* disk = cluster->disk(id);
    c.disk_read_ops += disk->read_ops();
    c.disk_bytes_read += disk->bytes_read();
    c.disk_bytes_written += disk->bytes_written();
    c.disk_syncs += disk->sync_ops();
  }
  c.offset_commits = counter("liquid.offsets.commits");
  if (auto* state = dynamic_cast<liquid::storage::MemDisk*>(liquid->state_disk())) {
    c.state_disk_bytes_written = state->bytes_written();
  }
  return c;
}

#define PERFBENCH_COUNTER_FIELDS(X)                                      \
  X(broker_fetch_records) X(broker_produce_requests) X(isr_shrinks)      \
  X(page_cache_hits) X(page_cache_misses) X(page_cache_forced_evictions) \
  X(disk_read_ops) X(disk_bytes_read) X(disk_bytes_written) X(disk_syncs) \
  X(offset_commits) X(state_disk_bytes_written)

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d;
#define PERFBENCH_SUB(f) d.f = f - o.f;
  PERFBENCH_COUNTER_FIELDS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
  return d;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
#define PERFBENCH_ADD(f) f += o.f;
  PERFBENCH_COUNTER_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  return *this;
}

double CpuUsPerRecord(const std::vector<CallCpu>& calls, int64_t from_ns,
                      int64_t to_ns) {
  int64_t cpu_ns = 0, records = 0;
  for (const CallCpu& c : calls) {
    if (c.start_ns < from_ns || c.start_ns >= to_ns) continue;
    cpu_ns += c.cpu_ns;
    records += c.records;
  }
  return records > 0 ? static_cast<double>(cpu_ns) * 1e-3 /
                           static_cast<double>(records)
                     : 0.0;
}

void HistogramPool::Begin() {
  for (const std::string& name : names_) {
    liquid::MetricsRegistry::Default()->GetHistogram(name)->Reset();
  }
}

void HistogramPool::End() {
  for (const std::string& name : names_) {
    pooled_.Merge(*liquid::MetricsRegistry::Default()->GetHistogram(name));
  }
}

std::vector<std::string> BrokerHistogramNames(int brokers,
                                              const std::string& suffix) {
  std::vector<std::string> names;
  for (int id = 0; id < brokers; ++id) {
    names.push_back("liquid.broker." + std::to_string(id) + "." + suffix);
  }
  return names;
}

// ---- Per-layer metrics ----

void LayerInputs::Clear() {
  counters = LayerCounters{};
  for (std::vector<double>* v : {&request_us, &poll_us, &runonce_us, &get_us,
                                 &put_us, &late_ms, &latency_ms}) {
    v->clear();
  }
  for (int64_t* n : {&requests, &request_records, &producer_retries, &polls,
                     &empty_polls, &poll_records, &delivered, &user_bytes,
                     &runonce_records, &restore_records}) {
    *n = 0;
  }
  for (liquid::Histogram* h : {&produce_us, &lock_wait_us, &fetch_us,
                               &process_us}) {
    h->Reset();
  }
}

void FillPerLayer(const LayerInputs& in, RunResult* out) {
  auto& m = out->per_layer;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const LayerCounters& c = in.counters;

  m["producer.request_us.p50"] = {Quantile(in.request_us, 0.50), "us"};
  m["producer.request_us.p99"] = {Quantile(in.request_us, 0.99), "us"};
  m["producer.records_per_request"] = {
      ratio(static_cast<double>(in.request_records),
            static_cast<double>(in.requests)),
      "count"};
  m["producer.retries"] = {static_cast<double>(in.producer_retries), "count"};

  m["broker.produce_us.p50"] = {
      static_cast<double>(in.produce_us.ValueAtQuantile(0.50)), "us"};
  m["broker.produce_lock_wait_us.p99"] = {
      static_cast<double>(in.lock_wait_us.ValueAtQuantile(0.99)), "us"};
  m["broker.fetch_us.p50"] = {
      static_cast<double>(in.fetch_us.ValueAtQuantile(0.50)), "us"};
  m["broker.isr_shrinks"] = {static_cast<double>(c.isr_shrinks), "count"};

  m["consumer.poll_us.p50"] = {Quantile(in.poll_us, 0.50), "us"};
  m["consumer.records_per_poll"] = {
      ratio(static_cast<double>(in.poll_records),
            static_cast<double>(in.polls - in.empty_polls)),
      "count"};
  m["consumer.empty_poll_share"] = {
      ratio(static_cast<double>(in.empty_polls), static_cast<double>(in.polls)),
      "ratio"};
  m["fetch.served_per_delivered"] = {
      ratio(static_cast<double>(c.broker_fetch_records),
            static_cast<double>(in.delivered)),
      "ratio"};

  const int64_t cache_lookups = c.page_cache_hits + c.page_cache_misses;
  m["page_cache.hit_ratio"] = {
      ratio(static_cast<double>(c.page_cache_hits),
            static_cast<double>(cache_lookups)),
      "ratio"};
  m["page_cache.misses"] = {static_cast<double>(c.page_cache_misses), "count"};
  m["page_cache.forced_evictions"] = {
      static_cast<double>(c.page_cache_forced_evictions), "count"};

  m["disk.read_ops"] = {static_cast<double>(c.disk_read_ops), "count"};
  m["disk.bytes_read_per_record"] = {
      ratio(static_cast<double>(c.disk_bytes_read),
            static_cast<double>(in.delivered)),
      "B"};
  m["disk.syncs_per_request"] = {
      ratio(static_cast<double>(c.disk_syncs),
            static_cast<double>(c.broker_produce_requests)),
      "count"};
  m["disk.write_amplification"] = {
      ratio(static_cast<double>(c.disk_bytes_written),
            static_cast<double>(in.user_bytes)),
      "ratio"};

  m["job.runonce_us.p50"] = {Quantile(in.runonce_us, 0.50), "us"};
  m["job.records_per_runonce"] = {
      ratio(static_cast<double>(in.runonce_records),
            static_cast<double>(in.runonce_us.size())),
      "count"};
  m["job.process_us.p50"] = {
      static_cast<double>(in.process_us.ValueAtQuantile(0.50)), "us"};
  m["offsets.commits"] = {static_cast<double>(c.offset_commits), "count"};

  m["state.get_us.p50"] = {Quantile(in.get_us, 0.50), "us"};
  m["state.put_us.p50"] = {Quantile(in.put_us, 0.50), "us"};
  m["kv.bytes_written"] = {static_cast<double>(c.state_disk_bytes_written), "B"};
  m["state.restore_records"] = {static_cast<double>(in.restore_records),
                                "count"};

  m["gen.late_p99_ms"] = {Quantile(in.late_ms, 0.99), "ms"};
  m["latency.p90_ms"] = {Quantile(in.latency_ms, 0.90), "ms"};
  m["latency.p99_ms"] = {Quantile(in.latency_ms, 0.99), "ms"};
  m["latency.samples"] = {static_cast<double>(in.latency_ms.size()), "count"};
}

}  // namespace perfbench
