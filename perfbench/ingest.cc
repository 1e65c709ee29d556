// The `ingest` workload: durable ingest on the append path, then the offline
// loader's bulk export of everything that was written.
//
// One round = fresh cluster (set-up), three closed-loop idempotent producers
// that each own two partitions (produce phase), one reader that exports every
// partition from offset 0 in whole-fetch polls (export phase), and the output
// check. Rounds repeat until the run's time is spent; every round performs
// the same operations, so the share of failed operations is the same in
// every run.
#include <cinttypes>
#include <random>
#include <thread>

#include "bench.h"
#include "check.h"
#include "workloads.h"

namespace perfbench {
namespace {

using liquid::Status;
using liquid::storage::Record;
namespace msg = liquid::messaging;

constexpr int kBrokers = 3;
constexpr int kProducers = 3;
constexpr int kPartitionsPerProducer = 2;
constexpr int kPartitions = kProducers * kPartitionsPerProducer;
constexpr int kRecordsPerProducer = 60000;
constexpr int kRecordsPerRequest = 64;
constexpr int kKeysPerProducer = 1000;
constexpr size_t kValueBytes = 100;
constexpr char kTopic[] = "ingest";

/// Identity of one generated record: producer, key and the record's
/// sequence number within its (producer, key).
uint64_t Identity(int producer, int key, uint32_t seq) {
  return (static_cast<uint64_t>(producer) << 56) |
         (static_cast<uint64_t>(key) << 32) | seq;
}

/// Fixed-size keys and values keep the log layout the same for every seed.
/// The key spells out its partition so the partitioner needs no table.
std::string KeyOf(int producer, int key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "P%d%d-%06d", producer,
                key % kPartitionsPerProducer, key);
  return buf;
}

int PartitionOfKey(const std::string& key) {
  return (key[1] - '0') * kPartitionsPerProducer + (key[2] - '0');
}

std::string ValueOf(uint64_t identity, std::mt19937_64* rng) {
  char head[32];
  std::snprintf(head, sizeof(head), "%016" PRIx64 "|", identity);
  std::string value(head);
  while (value.size() < kValueBytes) {
    value.push_back(static_cast<char>('a' + (*rng)() % 26));
  }
  return value;
}

uint64_t IdentityOfValue(const std::string& value) {
  return std::strtoull(value.substr(0, 16).c_str(), nullptr, 16);
}

/// What one producer thread measured.
struct ProducerOutput {
  int64_t elapsed_ns = 0;
  std::vector<double> request_us;
  std::vector<CallCpu> request_cpu;
  int64_t requests = 0;
  int64_t failed = 0;
  int64_t retries = 0;
  std::string error;
};

void RunProducer(liquid::core::Liquid* liquid, std::vector<Record>* records,
                 ProducerOutput* out) {
  msg::ProducerConfig config;
  config.acks = msg::AckMode::kAll;
  config.idempotent = true;
  // Requests are cut by Flush() below, never by the batch limit.
  config.batch_max_records = kRecordsPerRequest + 1;
  std::unique_ptr<msg::Producer> producer = liquid->NewProducer(config);
  producer->SetCustomPartitioner(
      [](const Record& r, int) { return PartitionOfKey(r.key); });
  out->request_us.reserve(records->size() / kRecordsPerRequest + 1);
  out->request_cpu.reserve(records->size() / kRecordsPerRequest + 1);
  const int64_t start = NowNs();
  for (size_t i = 0; i < records->size(); i += kRecordsPerRequest) {
    const size_t end = std::min(records->size(), i + kRecordsPerRequest);
    const int64_t t0 = NowNs();
    const int64_t cpu0 = ThreadCpuNs();
    Status st;
    for (size_t j = i; j < end && st.ok(); ++j) {
      Span span(kProducerSend);
      st = producer->Send(kTopic, std::move((*records)[j]));
    }
    if (st.ok()) {
      Span span(kProducerFlush);
      st = producer->Flush();
    }
    out->request_cpu.push_back(
        {t0, ThreadCpuNs() - cpu0, static_cast<int64_t>(end - i)});
    out->request_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    ++out->requests;
    if (!st.ok()) {
      ++out->failed;
      if (out->error.empty()) out->error = st.ToString();
    }
  }
  out->elapsed_ns = NowNs() - start;
  out->retries = producer->send_retries();
}

}  // namespace

RunResult RunIngest(const RunOptions& options) {
  RunResult result;
  LayerInputs layers;
  HistogramPool produce_us(BrokerHistogramNames(kBrokers, "produce_us"));
  HistogramPool lock_wait_us(BrokerHistogramNames(kBrokers, "produce_lock_wait_us"));
  HistogramPool fetch_us(BrokerHistogramNames(kBrokers, "fetch_us"));
  // Per round: set-up CPU seconds, the producers' wall-clock rate, records
  // exported per second of the reader's CPU, and CPU per record of the
  // produce requests plus that of the export polls.
  std::vector<double> setup_s, write_rate, read_rate, cpu_us_per_rec;
  std::vector<double> round_p50_ms;

  const int64_t run_start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(options.seconds * 1e9);
  int64_t last_round_ns = 0;
  for (int round = 0;
       round == 0 || NowNs() - run_start + last_round_ns <= budget_ns;
       ++round) {
    const int64_t round_start = NowNs();
    std::mt19937_64 rng(options.seed * 1000003ull + static_cast<uint64_t>(round));

    // Inputs and the reference: per partition, the identities in log order.
    std::vector<std::vector<Record>> inputs(kProducers);  // In send order.
    std::vector<std::vector<uint64_t>> reference(kPartitions);
    int64_t user_bytes = 0;
    for (int p = 0; p < kProducers; ++p) {
      std::vector<uint32_t> next_seq(kKeysPerProducer, 0);
      inputs[p].reserve(kRecordsPerProducer);
      for (int i = 0; i < kRecordsPerProducer; ++i) {
        const int key = static_cast<int>(rng() % kKeysPerProducer);
        const uint64_t id = Identity(p, key, next_seq[key]++);
        Record r = Record::KeyValue(KeyOf(p, key), ValueOf(id, &rng));
        r.timestamp_ms = 1;  // Fixed: keeps record bytes seed-independent.
        user_bytes += static_cast<int64_t>(r.key.size() + r.value.size());
        reference[PartitionOfKey(r.key)].push_back(id);
        inputs[p].push_back(std::move(r));
      }
    }

    // ---- Set-up: cluster and topic ----
    const int64_t setup_cpu = CpuNs();
    liquid::core::Liquid::Options liquid_options;
    liquid_options.cluster.num_brokers = kBrokers;
    auto started = liquid::core::Liquid::Start(liquid_options);
    if (!started.ok()) {
      result.Fail("cluster start: " + started.status().ToString());
      return result;
    }
    std::unique_ptr<liquid::core::Liquid> liquid = std::move(started).value();
    liquid::core::FeedOptions feed;
    feed.partitions = kPartitions;
    feed.replication_factor = 3;
    feed.min_insync_replicas = 2;
    feed.log.sync_mode = liquid::storage::SyncMode::kEveryBatch;
    Status st = liquid->CreateSourceFeed(kTopic, feed);
    if (!st.ok()) {
      result.Fail("create feed: " + st.ToString());
      return result;
    }
    setup_s.push_back(Seconds(CpuNs() - setup_cpu));

    // ---- Produce phase ----
    produce_us.Begin();
    lock_wait_us.Begin();
    fetch_us.Begin();
    // After the histogram reset: the produce request count comes from them.
    const LayerCounters before = LayerCounters::Take(liquid.get());
    std::vector<ProducerOutput> outputs(kProducers);
    {
      std::vector<std::thread> threads;
      for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back(RunProducer, liquid.get(), &inputs[p], &outputs[p]);
      }
      for (std::thread& t : threads) t.join();
    }
    int64_t requests = 0, failed_requests = 0;
    // The phase's rate is the sum of each producer's own rate: the phase
    // ends with its slowest producer, and a producer the host stalls near
    // the end would otherwise set the rate of all three.
    double produce_rate = 0;
    std::vector<double> round_ack_us;
    std::vector<CallCpu> request_cpu;
    for (const ProducerOutput& o : outputs) {
      request_cpu.insert(request_cpu.end(), o.request_cpu.begin(),
                         o.request_cpu.end());
      produce_rate += kRecordsPerProducer / Seconds(o.elapsed_ns);
      requests += o.requests;
      failed_requests += o.failed;
      layers.producer_retries += o.retries;
      layers.request_us.insert(layers.request_us.end(), o.request_us.begin(),
                               o.request_us.end());
      round_ack_us.insert(round_ack_us.end(), o.request_us.begin(),
                          o.request_us.end());
      if (!o.error.empty()) result.Fail("produce: " + o.error);
    }
    round_p50_ms.push_back(Quantile(round_ack_us, 0.50) * 1e-3);
    result.Count("produce_requests", requests, failed_requests);
    layers.requests += requests;
    layers.request_records += kProducers * kRecordsPerProducer;
    layers.user_bytes += user_bytes;
    write_rate.push_back(produce_rate);

    // ---- Export phase: whole-fetch polls from offset 0 ----
    std::unique_ptr<msg::Consumer> reader = liquid->NewConsumer(
        "export-" + std::to_string(round), "export-0", /*from_earliest=*/true);
    st = reader->Subscribe({kTopic});
    if (!st.ok()) {
      result.Fail("export subscribe: " + st.ToString());
      return result;
    }
    std::vector<CallCpu> poll_cpu;
    std::vector<std::vector<uint64_t>> exported(kPartitions);
    std::vector<int64_t> next_offset(kPartitions, 0);
    int64_t exported_records = 0, polls = 0, failed_polls = 0, empty_run = 0;
    const int64_t total = kProducers * kRecordsPerProducer;
    while (exported_records < total) {
      const int64_t t0 = NowNs();
      const int64_t cpu0 = ThreadCpuNs();
      liquid::Result<std::vector<msg::ConsumerRecord>> batch =
          Status::Unavailable("not polled");
      {
        Span span(kConsumerPoll);
        batch = reader->Poll(1 << 20);
      }
      const int64_t poll_cpu_ns = ThreadCpuNs() - cpu0;
      layers.poll_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      ++polls;
      if (!batch.ok()) {
        result.Fail("export poll: " + batch.status().ToString());
        break;
      }
      layers.poll_records += static_cast<int64_t>(batch->size());
      if (batch->empty()) {
        ++layers.empty_polls;
        if (++empty_run > 1000) {
          result.Fail("export stalled at " + std::to_string(exported_records) +
                      " of " + std::to_string(total) + " records");
          break;
        }
        continue;
      }
      empty_run = 0;
      // A record that does not continue its partition is a stray: the rest
      // of that partition's part of the poll is dropped and the reader
      // seeks back to where the partition really continues.
      std::vector<bool> stray(kPartitions, false);
      const int64_t exported_before = exported_records;
      for (const msg::ConsumerRecord& cr : *batch) {
        const int p = cr.tp.partition;
        if (stray[p]) continue;
        if (cr.record.offset != next_offset[p]) {
          stray[p] = true;
          continue;
        }
        exported[p].push_back(IdentityOfValue(cr.record.value));
        ++next_offset[p];
        ++exported_records;
      }
      // The poll's cost is charged to the records it delivered in order.
      poll_cpu.push_back({t0, poll_cpu_ns, exported_records - exported_before});
      bool poll_failed = false;
      for (int p = 0; p < kPartitions; ++p) {
        if (!stray[p]) continue;
        poll_failed = true;
        Span span(kConsumerSeek);
        st = reader->Seek(msg::TopicPartition{kTopic, p}, next_offset[p]);
        if (!st.ok()) result.Fail("export seek: " + st.ToString());
      }
      if (poll_failed) ++failed_polls;
    }
    result.Count("export_polls", polls, failed_polls);
    layers.polls += polls;
    layers.delivered += exported_records;
    const double export_cpu_us = CpuUsPerRecord(poll_cpu);
    read_rate.push_back(export_cpu_us > 0 ? 1e6 / export_cpu_us : 0.0);
    cpu_us_per_rec.push_back(CpuUsPerRecord(request_cpu) + export_cpu_us);
    layers.counters += LayerCounters::Take(liquid.get()) - before;
    produce_us.End();
    lock_wait_us.End();
    fetch_us.End();

    // ---- Output check ----
    for (int p = 0; p < kPartitions && result.correct; ++p) {
      const std::string verdict = CompareSequence(reference[p], exported[p]);
      if (!verdict.empty()) {
        result.Fail("partition " + std::to_string(p) + ": " + verdict);
      }
      // Per-(producer, key) sequences must strictly increase in export order.
      std::map<uint64_t, int64_t> last_seq;
      for (uint64_t id : exported[p]) {
        const uint64_t producer_key = id >> 32;
        const int64_t seq = static_cast<int64_t>(id & 0xffffffffu);
        auto [it, fresh] = last_seq.emplace(producer_key, seq);
        if (!fresh) {
          if (seq <= it->second) {
            result.Fail("partition " + std::to_string(p) +
                        ": sequence not increasing for producer/key " +
                        std::to_string(producer_key));
            break;
          }
          it->second = seq;
        }
      }
    }
    if (exported_records != total) {
      result.Fail("exported " + std::to_string(exported_records) + " of " +
                  std::to_string(total) + " acked records");
    }
    reader.reset();
    liquid.reset();
    if (round == 0) {
      // Round 0 warms up the process (allocator, page faults, lazily built
      // tables); its operations count, its timings do not.
      layers.Clear();
      for (HistogramPool* pool : {&produce_us, &lock_wait_us, &fetch_us}) {
        pool->Clear();
      }
      for (std::vector<double>* v : {&setup_s, &write_rate, &read_rate,
                                     &cpu_us_per_rec, &round_p50_ms}) {
        v->clear();
      }
    }
    ++result.rounds;
    last_round_ns = NowNs() - round_start;
    if (!result.correct) break;
  }

  result.end_to_end["setup_s"] = {Median(setup_s), "s"};
  result.per_layer["latency.p50_ms"] = {Min(round_p50_ms), "ms"};
  result.per_layer["write.rec_per_s"] = {Median(write_rate), "1/s"};
  result.end_to_end["read_rec_per_s"] = {Median(read_rate), "1/s"};
  result.end_to_end["cpu_us_per_rec"] = {Median(cpu_us_per_rec), "us"};
  for (double us : layers.request_us) layers.latency_ms.push_back(us * 1e-3);
  layers.produce_us.Merge(produce_us.pooled());
  layers.lock_wait_us.Merge(lock_wait_us.pooled());
  layers.fetch_us.Merge(fetch_us.pooled());
  FillPerLayer(layers, &result);
  return result;
}

}  // namespace perfbench
