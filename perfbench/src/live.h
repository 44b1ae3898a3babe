// Live runs: the workload's stream through a real serve::Service with its
// deployed defaults, measured from outside (public calls and accessors
// only), followed by the correctness gate.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "telemetry/log_histogram.h"

namespace perfbench {

struct LiveOptions {
  double window_s = 10.0;     // measured time, split across the instances
  std::size_t instances = 5;  // service instances; metrics are medians
  std::size_t setups = 3;     // minimum service builds timed for setup_s
  bool traced = false;        // time the benchmark's own calls into it
};

struct LiveOutcome {
  // End-to-end.
  double setup_s = 0.0;
  double delivered_mpps = 0.0;
  double cpu_ns_per_pkt = 0.0;
  double service_rss_mb = 0.0;
  double loss_ratio = 0.0;
  double delay_us_p50 = 0.0;
  double delay_us_p99 = 0.0;
  std::uint64_t delay_samples = 0;
  // The window's delay samples (the shards' latency histogram), so a run
  // can pool them across instances.
  telemetry::HistogramSnapshot latency;
  double share_min_ratio = 0.0;   // hier-paced only
  std::vector<double> edit_ms;    // flat-edit only, batches in the window
  // Per-layer figures only a live run can see.
  double submit_ns = 0.0;         // traced only
  double shard_skew = 0.0;
  double backlog_p50 = 0.0;
  double backlog_p99 = 0.0;
  double accept_ratio = 0.0;
  double tick_ms = 0.0;           // traced only
  double render_ms = 0.0;         // traced only
  double snapshots_per_s = 0.0;
  double gen_ns_per_pkt = 0.0;
  double gen_late_us_p99 = 0.0;
  std::uint64_t breaches = 0;
  std::uint64_t breaches_conforming = 0;
  std::uint64_t conforming_sessions = 0;  // fewest over the instances
  std::uint64_t edit_batches = 0;
};

// Runs the workload live on `instances` fresh services; gate failures of
// any of them land in `r`.
LiveOutcome run_live(const Workload& w, const Args& a, const LiveOptions& o,
                     Result& r);

}  // namespace perfbench
