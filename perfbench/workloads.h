#ifndef LIQUID_PERFBENCH_WORKLOADS_H_
#define LIQUID_PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

/// Durable ingest with three closed-loop producers, then a bulk export.
RunResult RunIngest(const RunOptions& options);

/// A fixed-rate source feeding a stateful counting job whose output a sink
/// reads. With `rewind`, a reprocessing job rewinds a history larger than
/// the page caches at the same time, and only records due during the rewind
/// count toward latency.
RunResult RunLive(const RunOptions& options, bool rewind);

}  // namespace perfbench

#endif  // LIQUID_PERFBENCH_WORKLOADS_H_
