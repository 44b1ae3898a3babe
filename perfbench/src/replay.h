// Traced replay: the workload's seeded stream driven single-threaded through
// the public layer calls in the shard loop's order (ring push -> pop_burst
// -> enqueue_burst -> hooks -> dequeue_burst -> hooks), with a span around
// every call and a memory ledger around every constructor.
#pragma once

#include <cstdint>
#include <string>

#include "bench.h"

namespace perfbench {

struct ReplayOutcome {
  // Memory ledger: heap bytes each constructor left allocated, MB. (RSS
  // deltas read ~0 whenever the allocator reuses memory freed earlier.)
  double tree_mb = 0.0;
  double sched_mb = 0.0;
  double cells_mb = 0.0;
  double monitor_mb = 0.0;
  double ring_mb = 0.0;
  double build_ms = 0.0;  // build_scheduler, all shards
  // Self time per packet through each layer call, ns.
  double pop_ns = 0.0;
  double enqueue_ns = 0.0;
  double dequeue_ns = 0.0;
  double hook_ns = 0.0;
  double ingest_burst_mean = 0.0;
  double dequeue_burst_mean = 0.0;
  // Control plane, per batch (per shard for commit/validate).
  double edit_parse_us = 0.0;
  double commit_us = 0.0;
  double validate_splice_us = 0.0;
  double on_edits_us = 0.0;
  std::uint64_t edit_batches = 0;
  // Shard-side self time per packet (pop through hooks, plus the edit
  // splices amortised over packets): what the live shard threads spend.
  double shard_ns_per_pkt = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t spans = 0;
};

// Replays for about `budget_s` of wall time; writes the recorded spans to
// `span_path` (CSV: name,start_ns,end_ns,parent) when it is not empty.
ReplayOutcome run_replay(const Workload& w, const Args& a, double budget_s,
                         const std::string& span_path);

}  // namespace perfbench
