// The `nearline` and `rewind` workloads: a live pipeline at a fixed rate —
// generator -> source feed -> stateful counting job (persistent store with a
// changelog) -> derived feed -> sink — and, for `rewind`, a reprocessing job
// that rewinds a retained history larger than the brokers' page caches while
// the live pipeline runs.
//
// One round = fresh cluster, the previous incarnation's changelog, the job's
// restore from it (and for `rewind` the history load): that is set-up. Then
// the measured window, a drain, and the output checks. Rounds repeat until
// the run's time is spent; latency samples pool over all rounds.
#include <atomic>
#include <cinttypes>
#include <random>
#include <thread>

#include "bench.h"
#include "check.h"
#include "processing/task.h"
#include "workloads.h"

namespace perfbench {
namespace {

using liquid::Result;
using liquid::Status;
using liquid::storage::Record;
namespace msg = liquid::messaging;
namespace proc = liquid::processing;

constexpr int kBrokers = 3;
constexpr int kLivePartitions = 4;
constexpr int kLiveKeys = 10000;
/// Updates per key in the previous incarnation's changelog, at most.
constexpr int kMaxPriorCount = 20;
constexpr double kRatePerS = 400;    // Live records offered per second.
/// Live records per round, due one every 1/kRatePerS: 3 s of them under
/// `nearline`; 3.5 s under `rewind`, past the end of a ~2.2 s rewind.
constexpr int64_t kNearlineRecords = 1200;
constexpr int64_t kRewindLiveRecords = 1400;
/// Live pipeline only; records due before it ends do not count. Under
/// `rewind` the rewind starts when it ends.
constexpr double kWarmupS = 0.5;
/// Sleep of the job and sink loops after an empty poll. At 400 rec/s most
/// polls are empty, and an empty poll costs tens of microseconds: with much
/// shorter sleeps, idle polling would be most of the live path's CPU.
constexpr std::chrono::milliseconds kIdleSleep{1};
constexpr int kHistoryPartitions = 4;
constexpr int kHistoryRecords = 120000;
constexpr int kHistoryKeys = 5000;
constexpr int kLoadBatch = 256;      // Records per bulk-load request.
constexpr size_t kValueBytes = 100;
constexpr size_t kPageCacheBytes = 4u << 20;

constexpr char kSource[] = "events";
constexpr char kDerived[] = "counts";
constexpr char kHistory[] = "history";
constexpr char kCountJob[] = "count";
constexpr char kCountStore[] = "counts";
constexpr char kReprocessJob[] = "reprocess";
constexpr char kFoldStore[] = "folds";

std::string LiveKey(int k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05d", k);
  return buf;
}

std::string HistoryKey(int k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "h%05d", k);
  return buf;
}

int KeyIndex(const std::string& key) { return std::atoi(key.c_str() + 1); }

/// Disks of the live workloads: 80 us per read call, as in
/// `DiskLatencyModel::ScaledHdd`, so every page-cache miss pays a seek, and
/// no charge for write calls and fsyncs. MemDisk charges its model by
/// busy-waiting on the caller's CPU, so the charge is part of the CPU the
/// benchmark measures; a wait at every append would make the live path's
/// CPU mostly waiting.
liquid::storage::DiskLatencyModel LiveDiskModel() {
  liquid::storage::DiskLatencyModel m;
  m.read_seek_us = liquid::storage::DiskLatencyModel::ScaledHdd().read_seek_us;
  return m;
}

/// The previous incarnation's count of live key k: a fixed table, 1 to
/// kMaxPriorCount and evenly spread in every partition, so the changelog's
/// layout is the same for every seed. That is ~26k records and ~1.4 MiB per
/// partition, more than one 1 MiB fetch, so the job's restore meets the
/// stray record of `Log::Read` (see README.md, known faults).
uint64_t PriorCount(int k) {
  return 1 + static_cast<uint64_t>((k / kLivePartitions) % kMaxPriorCount);
}

void Pad(std::string* value, std::mt19937_64* rng) {
  while (value->size() < kValueBytes) {
    value->push_back(static_cast<char>('a' + (*rng)() % 26));
  }
}

/// Per-record timings and byte counts a task records; each instance is
/// touched only by the thread that drives its job.
struct TaskStats {
  std::vector<double> get_us;
  std::vector<double> put_us;
  int64_t user_bytes = 0;
};

/// Counts records per key; emits "<count>:<due_ns>" to the derived feed.
class CountTask : public proc::StreamTask {
 public:
  explicit CountTask(TaskStats* stats) : stats_(stats) {}

  Status Init(proc::TaskContext* context) override {
    store_ = context->GetStore(kCountStore);
    return store_ != nullptr ? Status::OK()
                             : Status::NotFound("count store missing");
  }

  Status Process(const msg::ConsumerRecord& envelope,
                 proc::MessageCollector* collector,
                 proc::TaskCoordinator*) override {
    const Record& in = envelope.record;
    const int64_t t0 = NowNs();
    Result<std::string> got = Status::NotFound("");
    {
      Span span(kStateGet);
      got = store_->Get(in.key);
    }
    const int64_t t1 = NowNs();
    int64_t count = 0;
    if (got.ok()) {
      count = std::atoll(got->c_str());
    } else if (!got.status().IsNotFound()) {
      return got.status();
    }
    const std::string next = std::to_string(count + 1);
    {
      Span span(kStatePut);
      LIQUID_RETURN_NOT_OK(store_->Put(in.key, next));
    }
    const int64_t t2 = NowNs();
    stats_->get_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    stats_->put_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    // The input value starts with the record's due time.
    std::string value = next + ":" + in.value.substr(0, in.value.find('|'));
    stats_->user_bytes += static_cast<int64_t>(
        2 * in.key.size() + next.size() + value.size());
    Span span(kCollectorSend);
    return collector->Send(kDerived, Record::KeyValue(in.key, std::move(value)));
  }

 private:
  TaskStats* stats_;
  proc::KeyValueStore* store_ = nullptr;
};

/// Folds each history record's sequence number into a per-key value
/// "<count> <fold>", in the order the job receives them.
class FoldTask : public proc::StreamTask {
 public:
  explicit FoldTask(TaskStats* stats) : stats_(stats) {}

  Status Init(proc::TaskContext* context) override {
    store_ = context->GetStore(kFoldStore);
    return store_ != nullptr ? Status::OK()
                             : Status::NotFound("fold store missing");
  }

  Status Process(const msg::ConsumerRecord& envelope, proc::MessageCollector*,
                 proc::TaskCoordinator*) override {
    const Record& in = envelope.record;
    const int64_t t0 = NowNs();
    Result<std::string> got = Status::NotFound("");
    {
      Span span(kStateGet);
      got = store_->Get(in.key);
    }
    const int64_t t1 = NowNs();
    uint64_t count = 0, fold = 0;
    if (got.ok()) {
      std::sscanf(got->c_str(), "%" SCNu64 " %" SCNu64, &count, &fold);
    } else if (!got.status().IsNotFound()) {
      return got.status();
    }
    const uint64_t seq = std::strtoull(in.value.c_str(), nullptr, 10);
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 " %" PRIu64, count + 1,
                  FoldRecord(fold, seq));
    {
      Span span(kStatePut);
      LIQUID_RETURN_NOT_OK(store_->Put(in.key, buf));
    }
    stats_->get_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    stats_->put_us.push_back(static_cast<double>(NowNs() - t1) * 1e-3);
    return Status::OK();
  }

 private:
  TaskStats* stats_;
  proc::KeyValueStore* store_ = nullptr;
};

/// Drives one job's RunOnce loop on its own thread.
struct JobRunner {
  proc::Job* job = nullptr;
  std::atomic<bool> stop{false};
  /// Stop on its own once this many records were processed (0: never).
  int64_t target = 0;
  int64_t processed = 0;
  std::vector<double> runonce_us;  // Calls that processed records.
  std::vector<CallCpu> calls;      // The same calls' CPU.
  std::string error;
  /// Set when Loop returns: target reached, stop requested or error.
  std::atomic<int64_t> done_ns{0};

  void Loop() {
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t t0 = NowNs();
      const int64_t cpu0 = ThreadCpuNs();
      Result<int> n = 0;
      {
        Span span(kJobRunOnce);
        n = job->RunOnce();
      }
      const int64_t cpu_ns = ThreadCpuNs() - cpu0;
      if (!n.ok()) {
        error = n.status().ToString();
        break;
      }
      if (*n > 0) {
        runonce_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        calls.push_back({t0, cpu_ns, *n});
        processed += *n;
        if (target > 0 && processed >= target) break;
      } else {
        std::this_thread::sleep_for(kIdleSleep);
      }
    }
    done_ns.store(NowNs(), std::memory_order_release);
  }
};

/// The sink: reads the derived feed, timestamps arrivals.
struct Sink {
  std::unique_ptr<msg::Consumer> consumer;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> received{0};
  std::vector<std::pair<int64_t, int64_t>> due_arrival;  // ns, ns.
  std::vector<std::vector<uint64_t>> counts_by_key =
      std::vector<std::vector<uint64_t>>(kLiveKeys);
  std::vector<double> poll_us;
  std::vector<CallCpu> calls;  // Polls that returned records.
  int64_t polls = 0;
  int64_t empty_polls = 0;
  std::string error;
  /// Set when Loop returns, after a stop request or an error.
  std::atomic<int64_t> done_ns{0};

  void Loop() {
    PollUntilStopped();
    done_ns.store(NowNs(), std::memory_order_release);
  }

  void PollUntilStopped() {
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t t0 = NowNs();
      const int64_t cpu0 = ThreadCpuNs();
      Result<std::vector<msg::ConsumerRecord>> batch =
          Status::Unavailable("not polled");
      {
        Span span(kConsumerPoll);
        batch = consumer->Poll(1024);
      }
      const int64_t cpu_ns = ThreadCpuNs() - cpu0;
      const int64_t now = NowNs();
      poll_us.push_back(static_cast<double>(now - t0) * 1e-3);
      ++polls;
      if (!batch.ok()) {
        error = batch.status().ToString();
        break;
      }
      if (batch->empty()) {
        ++empty_polls;
        std::this_thread::sleep_for(kIdleSleep);
        continue;
      }
      calls.push_back({t0, cpu_ns, static_cast<int64_t>(batch->size())});
      for (const msg::ConsumerRecord& cr : *batch) {
        const std::string& v = cr.record.value;
        const size_t colon = v.find(':');
        const int k = KeyIndex(cr.record.key);
        if (colon == std::string::npos || k < 0 || k >= kLiveKeys) {
          error = "malformed sink record " + cr.record.key + "=" + v;
          return;
        }
        counts_by_key[k].push_back(std::strtoull(v.c_str(), nullptr, 10));
        due_arrival.emplace_back(std::atoll(v.c_str() + colon + 1), now);
      }
      received.fetch_add(static_cast<int64_t>(batch->size()),
                         std::memory_order_release);
    }
  }
};

liquid::core::FeedOptions DurableFeed(int partitions) {
  liquid::core::FeedOptions feed;
  feed.partitions = partitions;
  feed.replication_factor = 3;
  feed.min_insync_replicas = 2;
  feed.log.sync_mode = liquid::storage::SyncMode::kEveryBatch;
  return feed;
}

/// Sends `records` to `tp` in requests of kLoadBatch records.
Status LoadBatches(msg::Producer* producer, const std::string& topic,
                   std::vector<std::vector<Record>>* by_partition) {
  for (size_t p = 0; p < by_partition->size(); ++p) {
    std::vector<Record>& records = (*by_partition)[p];
    for (size_t i = 0; i < records.size(); i += kLoadBatch) {
      const size_t end = std::min(records.size(), i + kLoadBatch);
      std::vector<Record> batch(std::make_move_iterator(records.begin() + i),
                                std::make_move_iterator(records.begin() + end));
      LIQUID_RETURN_NOT_OK(
          producer
              ->SendBatch(msg::TopicPartition{topic, static_cast<int>(p)},
                          std::move(batch))
              .status());
    }
  }
  return Status::OK();
}

}  // namespace

RunResult RunLive(const RunOptions& options, bool rewind) {
  RunResult result;
  LayerInputs layers;
  HistogramPool produce_us(BrokerHistogramNames(kBrokers, "produce_us"));
  HistogramPool lock_wait_us(
      BrokerHistogramNames(kBrokers, "produce_lock_wait_us"));
  HistogramPool fetch_us(BrokerHistogramNames(kBrokers, "fetch_us"));
  HistogramPool process_us({std::string("liquid.job.") + kCountJob + ".process_us",
                            std::string("liquid.job.") + kReprocessJob +
                                ".process_us"});
  // Per round: set-up CPU seconds, the set-up load's wall-clock rate,
  // records read per second of the reading thread's CPU (`nearline`: the
  // restore; `rewind`: the reprocessing job), and CPU per live record along
  // the live path in the measured window.
  std::vector<double> setup_s, write_rate, read_rate, cpu_us_per_rec;
  std::vector<double> latency_ms, round_p50_ms;
  TaskStats count_stats, fold_stats;

  const int64_t run_start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(options.seconds * 1e9);
  int64_t last_round_ns = 0;
  for (int round = 0;
       round == 0 || NowNs() - run_start + last_round_ns <= budget_ns;
       ++round) {
    const int64_t round_start = NowNs();
    std::mt19937_64 rng(options.seed * 1000003ull + static_cast<uint64_t>(round));
    auto fail = [&result](const std::string& what, const Status& st) {
      result.Fail(what + ": " + st.ToString());
    };

    // The previous incarnation's state: prior count per key.
    std::vector<uint64_t> prior(kLiveKeys);
    for (int k = 0; k < kLiveKeys; ++k) prior[k] = PriorCount(k);

    // Where each key's live counts start: the prior count, unless the
    // restore left the key an older one.
    std::vector<uint64_t> start = prior;

    // ---- Set-up ----
    int64_t setup_cpu = CpuNs();
    liquid::core::Liquid::Options liquid_options;
    liquid_options.cluster.num_brokers = kBrokers;
    liquid_options.cluster.disk_latency = LiveDiskModel();
    liquid_options.cluster.broker.page_cache.capacity_bytes = kPageCacheBytes;
    auto started = liquid::core::Liquid::Start(liquid_options);
    if (!started.ok()) {
      fail("cluster start", started.status());
      return result;
    }
    std::unique_ptr<liquid::core::Liquid> liquid = std::move(started).value();
    Status st = liquid->CreateSourceFeed(kSource, DurableFeed(kLivePartitions));
    if (st.ok()) {
      st = liquid->CreateDerivedFeed(kDerived, DurableFeed(kLivePartitions),
                                     kCountJob, "v1", {kSource});
    }
    // The job would create its changelog with default durability; create it
    // first with the durable feed settings (compacted, as the job's own).
    liquid::core::FeedOptions changelog = DurableFeed(kLivePartitions);
    changelog.log.compaction_enabled = true;
    changelog.log.segment_bytes = 256 * 1024;
    if (st.ok()) {
      st = liquid->CreateDerivedFeed(
          proc::Job::ChangelogTopic(kCountJob, kCountStore), changelog,
          kCountJob, "v1", {kSource});
    }
    if (!st.ok()) {
      fail("create feeds", st);
      return result;
    }

    // The previous incarnation's changelog: every update of every key, in
    // update order, on the key's partition.
    msg::ProducerConfig load_config;
    load_config.acks = msg::AckMode::kAll;
    std::unique_ptr<msg::Producer> loader = liquid->NewProducer(load_config);
    int64_t changelog_records = 0;
    {
      std::vector<std::vector<Record>> by_partition(kLivePartitions);
      for (uint64_t u = 1; u <= kMaxPriorCount; ++u) {
        for (int k = 0; k < kLiveKeys; ++k) {
          if (prior[k] < u) continue;
          Record r = Record::KeyValue(LiveKey(k), std::to_string(u));
          r.timestamp_ms = 1;
          by_partition[k % kLivePartitions].push_back(std::move(r));
          ++changelog_records;
        }
      }
      const int64_t t0 = NowNs();
      st = LoadBatches(loader.get(),
                       proc::Job::ChangelogTopic(kCountJob, kCountStore),
                       &by_partition);
      if (!rewind) {
        write_rate.push_back(static_cast<double>(changelog_records) /
                             Seconds(NowNs() - t0));
      }
    }
    if (!st.ok()) {
      fail("changelog load", st);
      return result;
    }

    // The job's new incarnation restores its store from that changelog in
    // its first RunOnce.
    proc::JobConfig count_config;
    count_config.name = kCountJob;
    count_config.inputs = {kSource};
    count_config.stores = {
        {kCountStore, proc::StoreConfig::Kind::kPersistent, true}};
    count_config.changelog_replication = 3;
    auto count_job = liquid->SubmitJob(count_config, [&count_stats] {
      return std::make_unique<CountTask>(&count_stats);
    });
    if (!count_job.ok()) {
      fail("submit count job", count_job.status());
      return result;
    }
    {
      const int64_t cpu0 = ThreadCpuNs();
      auto first = (*count_job)->RunOnce();
      const int64_t restore_cpu_ns = ThreadCpuNs() - cpu0;
      if (!first.ok()) {
        fail("restore", first.status());
        return result;
      }
      const int64_t restored =
          (*count_job)
              ->metrics()
              ->GetCounter(std::string("job.") + kCountJob + ".restored_records")
              ->value();
      // A changelog record the restore did not apply is a failed operation.
      const int64_t skipped = changelog_records - restored;
      result.Count("restored_records", changelog_records,
                   std::max<int64_t>(skipped, 0));
      if (skipped < 0) {
        result.Fail("restored " + std::to_string(restored) + " of " +
                    std::to_string(changelog_records) + " changelog records");
      }
      layers.restore_records += restored;
      if (!rewind) {
        read_rate.push_back(static_cast<double>(restored) /
                            Seconds(restore_cpu_ns));
      }
      // Every key must hold its prior count, except a key whose last update
      // was among the skipped records: it holds an older count, and its live
      // counts are checked from there. Not part of set-up time.
      const int64_t check_cpu = CpuNs();
      int64_t stale_keys = 0;
      for (int k = 0; k < kLiveKeys && result.correct; ++k) {
        proc::KeyValueStore* store =
            (*count_job)->GetStore(k % kLivePartitions, kCountStore);
        Result<std::string> got = store != nullptr
                                      ? store->Get(LiveKey(k))
                                      : Status::NotFound("no store");
        if (!got.ok() && !got.status().IsNotFound()) {
          fail("restored key " + LiveKey(k), got.status());
          break;
        }
        const uint64_t held =
            got.ok() ? std::strtoull(got->c_str(), nullptr, 10) : 0;
        if (held == prior[k]) continue;
        if (held < prior[k] && ++stale_keys <= skipped) {
          start[k] = held;
          continue;
        }
        result.Fail("restored key " + LiveKey(k) + " holds " +
                    std::to_string(held) + ", expected " +
                    std::to_string(prior[k]));
      }
      setup_cpu += CpuNs() - check_cpu;
    }

    Sink sink;
    sink.consumer = liquid->NewConsumer("sink", "sink-0", /*from_earliest=*/true);
    st = sink.consumer->Subscribe({kDerived});
    if (!st.ok()) {
      fail("sink subscribe", st);
      return result;
    }

    // History for the rewind, with its reference: per key, record count and
    // the fold of sequence numbers in log order.
    std::vector<std::pair<uint64_t, uint64_t>> history_ref(kHistoryKeys);
    proc::Job* reprocess = nullptr;
    if (rewind) {
      std::vector<std::vector<Record>> by_partition(kHistoryPartitions);
      for (int i = 0; i < kHistoryRecords; ++i) {
        const int k = static_cast<int>(rng() % kHistoryKeys);
        char head[24];
        std::snprintf(head, sizeof(head), "%010d|", i);
        std::string value(head);
        Pad(&value, &rng);
        Record r = Record::KeyValue(HistoryKey(k), std::move(value));
        r.timestamp_ms = 1;
        by_partition[k % kHistoryPartitions].push_back(std::move(r));
        auto& [count, fold] = history_ref[k];
        ++count;
        fold = FoldRecord(fold, static_cast<uint64_t>(i));
      }
      st = liquid->CreateSourceFeed(kHistory, DurableFeed(kHistoryPartitions));
      const int64_t t0 = NowNs();
      if (st.ok()) st = LoadBatches(loader.get(), kHistory, &by_partition);
      write_rate.push_back(kHistoryRecords / Seconds(NowNs() - t0));
      proc::JobConfig reprocess_config;
      reprocess_config.name = kReprocessJob;
      reprocess_config.inputs = {kHistory};
      reprocess_config.stores = {
          {kFoldStore, proc::StoreConfig::Kind::kInMemory, false}};
      if (st.ok()) {
        auto job = liquid->SubmitJob(reprocess_config, [&fold_stats] {
          return std::make_unique<FoldTask>(&fold_stats);
        });
        if (job.ok()) {
          reprocess = *job;
        } else {
          st = job.status();
        }
      }
      if (!st.ok()) {
        fail("history set-up", st);
        return result;
      }
    }
    loader.reset();
    setup_s.push_back(Seconds(CpuNs() - setup_cpu));

    // ---- Measured window ----
    produce_us.Begin();
    lock_wait_us.Begin();
    fetch_us.Begin();
    process_us.Begin();
    // After the histogram reset: the produce request count comes from them.
    const LayerCounters before = LayerCounters::Take(liquid.get());

    JobRunner live_runner;
    live_runner.job = *count_job;
    JobRunner rewind_runner;
    rewind_runner.job = reprocess;
    rewind_runner.target = kHistoryRecords;
    std::thread sink_thread(&Sink::Loop, &sink);
    std::thread job_thread(&JobRunner::Loop, &live_runner);

    msg::ProducerConfig gen_config;
    gen_config.acks = msg::AckMode::kAll;
    gen_config.idempotent = true;
    gen_config.batch_max_records = 1 << 20;  // Requests are cut by Flush().
    std::unique_ptr<msg::Producer> gen = liquid->NewProducer(gen_config);
    gen->SetCustomPartitioner([](const Record& r, int partitions) {
      return KeyIndex(r.key) % partitions;
    });

    const int64_t gen_start = NowNs();
    const int64_t period_ns = static_cast<int64_t>(1e9 / kRatePerS);
    // Records due from here on count; the rewind starts here too.
    const int64_t measure_start =
        gen_start + static_cast<int64_t>(kWarmupS * 1e9);
    const int64_t live_records = rewind ? kRewindLiveRecords : kNearlineRecords;
    std::thread rewind_thread;
    std::vector<uint64_t> sent_per_key(kLiveKeys, 0);
    std::vector<CallCpu> gen_calls;
    int64_t sent = 0, failed_records = 0;
    std::string gen_error;
    for (int64_t i = 0; i < live_records;) {
      const int64_t now = NowNs();
      if (rewind && !rewind_thread.joinable() && now >= measure_start) {
        rewind_thread = std::thread(&JobRunner::Loop, &rewind_runner);
      }
      const int64_t due = gen_start + i * period_ns;
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        continue;
      }
      // One request per record: the request structure, and with it the
      // CPU per record, does not depend on how late the generator runs.
      const int k = static_cast<int>(rng() % kLiveKeys);
      char head[48];
      std::snprintf(head, sizeof(head), "%019" PRId64 "|%010" PRId64 "|", due,
                    i);
      std::string value(head);
      Pad(&value, &rng);
      layers.late_ms.push_back(static_cast<double>(now - due) * 1e-6);
      layers.user_bytes += static_cast<int64_t>(6 + value.size());
      const int64_t cpu0 = ThreadCpuNs();
      Status send_status;
      {
        Span span(kProducerSend);
        send_status =
            gen->Send(kSource, Record::KeyValue(LiveKey(k), std::move(value)));
      }
      if (send_status.ok()) {
        Span span(kProducerFlush);
        send_status = gen->Flush();
      }
      gen_calls.push_back({now, ThreadCpuNs() - cpu0, 1});
      layers.request_us.push_back(static_cast<double>(NowNs() - now) * 1e-3);
      ++sent_per_key[k];
      ++sent;
      ++i;
      if (!send_status.ok()) {
        ++failed_records;
        if (gen_error.empty()) gen_error = send_status.ToString();
      }
    }
    layers.requests += sent;
    layers.request_records += sent;
    layers.producer_retries += gen->send_retries();
    if (!gen_error.empty()) result.Fail("generator: " + gen_error);
    const int64_t rewind_deadline = gen_start + 120'000'000'000;
    if (rewind && !rewind_thread.joinable()) {
      rewind_thread = std::thread(&JobRunner::Loop, &rewind_runner);
    }
    while (rewind &&
           rewind_runner.done_ns.load(std::memory_order_acquire) == 0) {
      if (NowNs() >= rewind_deadline) {
        result.Fail("rewind did not finish within the deadline");
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Drain: every record sent must reach the sink.
    const int64_t drain_deadline = NowNs() + 30'000'000'000;
    while (sink.received.load(std::memory_order_acquire) < sent &&
           sink.done_ns.load(std::memory_order_acquire) == 0 &&
           live_runner.done_ns.load(std::memory_order_acquire) == 0 &&
           NowNs() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    sink.stop = true;
    live_runner.stop = true;
    rewind_runner.stop = true;
    sink_thread.join();
    job_thread.join();
    if (rewind_thread.joinable()) rewind_thread.join();
    layers.counters += LayerCounters::Take(liquid.get()) - before;
    produce_us.End();
    lock_wait_us.End();
    fetch_us.End();
    process_us.End();

    const int64_t received = sink.received.load();
    result.Count("live_records", sent, failed_records);
    if (!sink.error.empty()) result.Fail("sink: " + sink.error);
    if (!live_runner.error.empty()) result.Fail("count job: " + live_runner.error);
    if (received != sent) {
      result.Fail("sink received " + std::to_string(received) + " of " +
                  std::to_string(sent) + " records");
    }
    layers.polls += sink.polls;
    layers.empty_polls += sink.empty_polls;
    layers.poll_records += received;
    layers.poll_us.insert(layers.poll_us.end(), sink.poll_us.begin(),
                          sink.poll_us.end());
    layers.delivered += received + live_runner.processed;
    layers.runonce_us.insert(layers.runonce_us.end(),
                             live_runner.runonce_us.begin(),
                             live_runner.runonce_us.end());
    layers.runonce_records += live_runner.processed;

    // Latency: due time to arrival at the sink, for records due after the
    // warm-up. Under `rewind`, only records due while the rewind ran.
    const int64_t rewind_end = rewind_runner.done_ns.load();
    std::vector<double> round_latency_ms;
    for (const auto& [due, arrival] : sink.due_arrival) {
      if (due < measure_start || (rewind && due > rewind_end)) continue;
      round_latency_ms.push_back(static_cast<double>(arrival - due) * 1e-6);
    }
    round_p50_ms.push_back(Quantile(round_latency_ms, 0.50));
    // The live path's CPU per record: the generator's produce request, the
    // counting job's RunOnce and the sink's poll, over the calls that carried
    // records and started in the same span of time as the latency samples.
    const int64_t window_end = rewind ? rewind_end : INT64_MAX;
    cpu_us_per_rec.push_back(
        CpuUsPerRecord(gen_calls, measure_start, window_end) +
        CpuUsPerRecord(live_runner.calls, measure_start, window_end) +
        CpuUsPerRecord(sink.calls, measure_start, window_end));
    latency_ms.insert(latency_ms.end(), round_latency_ms.begin(),
                      round_latency_ms.end());

    if (rewind) {
      result.Count("reprocessed_records", kHistoryRecords, 0);
      if (!rewind_runner.error.empty()) {
        result.Fail("reprocess job: " + rewind_runner.error);
      }
      if (rewind_runner.processed != kHistoryRecords) {
        result.Fail("reprocessed " + std::to_string(rewind_runner.processed) +
                    " of " + std::to_string(kHistoryRecords) + " records");
      }
      const double rewind_cpu_us = CpuUsPerRecord(rewind_runner.calls);
      read_rate.push_back(rewind_cpu_us > 0 ? 1e6 / rewind_cpu_us : 0.0);
      layers.delivered += rewind_runner.processed;
      layers.runonce_us.insert(layers.runonce_us.end(),
                               rewind_runner.runonce_us.begin(),
                               rewind_runner.runonce_us.end());
      layers.runonce_records += rewind_runner.processed;
    }

    // ---- Output checks against the generator-side reference ----
    for (int k = 0; k < kLiveKeys && result.correct; ++k) {
      std::vector<uint64_t> expected(sent_per_key[k]);
      for (uint64_t j = 0; j < sent_per_key[k]; ++j) expected[j] = start[k] + 1 + j;
      const std::string verdict = CompareSequence(expected, sink.counts_by_key[k]);
      if (!verdict.empty()) result.Fail("sink key " + LiveKey(k) + ": " + verdict);
    }
    for (int k = 0; k < kLiveKeys && result.correct; ++k) {
      proc::KeyValueStore* store =
          (*count_job)->GetStore(k % kLivePartitions, kCountStore);
      Result<std::string> got = store != nullptr
                                    ? store->Get(LiveKey(k))
                                    : Status::NotFound("no store");
      const std::string want = std::to_string(start[k] + sent_per_key[k]);
      // A key the restore left without any count and no live record has none.
      if (want == "0" && got.status().IsNotFound()) continue;
      if (!got.ok() || *got != want) {
        result.Fail("store key " + LiveKey(k) + " holds " +
                    (got.ok() ? *got : got.status().ToString()) +
                    ", expected " + want);
      }
    }
    if (rewind) {
      for (int k = 0; k < kHistoryKeys && result.correct; ++k) {
        const auto& [count, fold] = history_ref[k];
        if (count == 0) continue;
        proc::KeyValueStore* store =
            reprocess->GetStore(k % kHistoryPartitions, kFoldStore);
        Result<std::string> got = store != nullptr
                                      ? store->Get(HistoryKey(k))
                                      : Status::NotFound("no store");
        char want[48];
        std::snprintf(want, sizeof(want), "%" PRIu64 " %" PRIu64, count, fold);
        if (!got.ok() || *got != want) {
          result.Fail("reprocessed key " + HistoryKey(k) + " holds " +
                      (got.ok() ? *got : got.status().ToString()) +
                      ", expected " + want);
        }
      }
    }

    gen.reset();
    sink.consumer.reset();
    liquid.reset();
    ++result.rounds;
    last_round_ns = NowNs() - round_start;
    if (!result.correct) break;
  }

  for (TaskStats* s : {&count_stats, &fold_stats}) {
    layers.get_us.insert(layers.get_us.end(), s->get_us.begin(), s->get_us.end());
    layers.put_us.insert(layers.put_us.end(), s->put_us.begin(), s->put_us.end());
    layers.user_bytes += s->user_bytes;
  }
  result.end_to_end["setup_s"] = {Median(setup_s), "s"};
  result.end_to_end["read_rec_per_s"] = {Median(read_rate), "1/s"};
  result.end_to_end["cpu_us_per_rec"] = {Median(cpu_us_per_rec), "us"};
  result.per_layer["latency.p50_ms"] = {Min(round_p50_ms), "ms"};
  result.per_layer["write.rec_per_s"] = {Median(write_rate), "1/s"};
  layers.latency_ms = std::move(latency_ms);
  layers.produce_us.Merge(produce_us.pooled());
  layers.lock_wait_us.Merge(lock_wait_us.pooled());
  layers.fetch_us.Merge(fetch_us.pooled());
  layers.process_us.Merge(process_us.pooled());
  FillPerLayer(layers, &result);
  return result;
}

}  // namespace perfbench
