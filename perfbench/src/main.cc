// servebench: the scheduler service benchmark.
//
//   servebench --workload <hier-paced|flat-edit> --seed <n>
//              --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//
// --trace 0 runs the workload live through serve::Service and prints the
// end-to-end metrics; --trace 1 prints the per-layer metrics from a live
// reference run, a live run that times the benchmark's own calls, and a
// single-threaded replay of the same seeded stream through the public layer
// calls. Either way the last stdout line is one JSON object, and the exit
// code is non-zero when the correctness gate failed.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"
#include "live.h"
#include "replay.h"

namespace perfbench {
namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s",       "delivered_mpps", "cpu_ns_per_pkt", "service_rss_mb",
    "goodput_ratio", "delay_us_p99"};

const std::vector<std::string> kPerLayer = {
    "serve.submit_ns", "serve.ring_pop_ns_per_pkt",
    "serve.ingest_burst_mean", "serve.shard_busy_ns_per_pkt",
    "serve.shard_skew", "serve.ring_mb", "serve.edit_parse_us",
    "serve.edit_handoff_ms", "core.enqueue_ns_per_pkt",
    "core.dequeue_ns_per_pkt", "core.dequeue_burst_mean", "core.backlog_p50",
    "core.backlog_p99", "core.accept_ratio", "core.build_ms", "core.sched_mb",
    "core.tree_mb", "core.commit_us", "core.validate_splice_us",
    "telemetry.hook_ns_per_pkt", "telemetry.tick_ms", "telemetry.render_ms",
    "telemetry.snapshots_per_s", "telemetry.on_edits_us", "telemetry.cells_mb",
    "telemetry.monitor_mb", "telemetry.breaches",
    "telemetry.breaches_conforming", "telemetry.conforming_sessions",
    "gen.ns_per_pkt", "gen.late_us_p99", "gen.packet_bytes",
    "gen.line_rate_busy_frac", "trace.overhead_pct",
    "trace.unattributed_ns_per_pkt", "trace.spans", "share_min_ratio",
    "edit_ms_p50", "edit_ms_p99", "delay_us_p50", "delay_samples",
    "edit_batches"};

void end_to_end(const LiveOutcome& l, Result& r) {
  r.set("setup_s", l.setup_s, "s");
  r.set("delivered_mpps", l.delivered_mpps, "Mpps");
  r.set("cpu_ns_per_pkt", l.cpu_ns_per_pkt, "ns");
  r.set("service_rss_mb", l.service_rss_mb, "MB");
  r.set("goodput_ratio", 1.0 - l.loss_ratio, "ratio");
  r.set("delay_us_p99", l.delay_us_p99, "us");
}

// Per-layer sheet: `ref` is the untraced live run, `live` the traced one.
void per_layer(const Workload& w, const LiveOutcome& ref,
               const LiveOutcome& live, const ReplayOutcome& rp, Result& r) {
  const double per_shard_line_pps =
      w.link_bps / (8.0 * w.packet_bytes) / static_cast<double>(kShards);
  r.set("serve.submit_ns", live.submit_ns, "ns");
  r.set("serve.ring_pop_ns_per_pkt", rp.pop_ns, "ns");
  r.set("serve.ingest_burst_mean", rp.ingest_burst_mean, "pkt");
  // Paced shards do not meter their busy time; the replay's shard-side self
  // time stands in.
  r.set("serve.shard_busy_ns_per_pkt", rp.shard_ns_per_pkt, "ns");
  r.set("serve.shard_skew", ref.shard_skew, "ratio");
  r.set("serve.ring_mb", rp.ring_mb, "MB");
  r.set("serve.edit_parse_us", rp.edit_parse_us, "us");
  const double edit_p50 = median(ref.edit_ms);
  r.set("serve.edit_handoff_ms",
        ref.edit_ms.empty()
            ? 0.0
            : edit_p50 - 1e-3 * (rp.edit_parse_us + rp.commit_us +
                                 rp.validate_splice_us + rp.on_edits_us),
        "ms");
  r.set("core.enqueue_ns_per_pkt", rp.enqueue_ns, "ns");
  r.set("core.dequeue_ns_per_pkt", rp.dequeue_ns, "ns");
  r.set("core.dequeue_burst_mean", rp.dequeue_burst_mean, "pkt");
  r.set("core.backlog_p50", ref.backlog_p50, "pkt");
  r.set("core.backlog_p99", ref.backlog_p99, "pkt");
  r.set("core.accept_ratio", ref.accept_ratio, "ratio");
  r.set("core.build_ms", rp.build_ms, "ms");
  r.set("core.sched_mb", rp.sched_mb, "MB");
  r.set("core.tree_mb", rp.tree_mb, "MB");
  r.set("core.commit_us", rp.commit_us, "us");
  r.set("core.validate_splice_us", rp.validate_splice_us, "us");
  r.set("telemetry.hook_ns_per_pkt", rp.hook_ns, "ns");
  r.set("telemetry.tick_ms", live.tick_ms, "ms");
  r.set("telemetry.render_ms", live.render_ms, "ms");
  r.set("telemetry.snapshots_per_s", ref.snapshots_per_s, "1/s");
  r.set("telemetry.on_edits_us", rp.on_edits_us, "us");
  r.set("telemetry.cells_mb", rp.cells_mb, "MB");
  r.set("telemetry.monitor_mb", rp.monitor_mb, "MB");
  r.set("telemetry.breaches",
        static_cast<double>(ref.breaches + live.breaches), "count");
  r.set("telemetry.breaches_conforming",
        static_cast<double>(ref.breaches_conforming +
                            live.breaches_conforming),
        "count");
  r.set("telemetry.conforming_sessions",
        static_cast<double>(
            std::min(ref.conforming_sessions, live.conforming_sessions)),
        "count");
  r.set("gen.ns_per_pkt", ref.gen_ns_per_pkt, "ns");
  r.set("gen.late_us_p99", ref.gen_late_us_p99, "us");
  r.set("gen.packet_bytes", w.packet_bytes, "B");
  r.set("gen.line_rate_busy_frac",
        rp.shard_ns_per_pkt * 1e-9 * per_shard_line_pps, "ratio");
  r.set("trace.overhead_pct",
        100.0 * (live.cpu_ns_per_pkt - ref.cpu_ns_per_pkt) /
            ref.cpu_ns_per_pkt,
        "%");
  r.set("trace.unattributed_ns_per_pkt",
        ref.cpu_ns_per_pkt - rp.shard_ns_per_pkt, "ns");
  r.set("trace.spans", static_cast<double>(rp.spans), "count");
  r.set("share_min_ratio", ref.share_min_ratio, "ratio");
  r.set("edit_ms_p50", edit_p50, "ms");
  r.set("edit_ms_p99", quantile(ref.edit_ms, 0.99), "ms");
  r.set("delay_us_p50", ref.delay_us_p50, "us");
  r.set("delay_samples", static_cast<double>(ref.delay_samples), "count");
  r.set("edit_batches", static_cast<double>(ref.edit_batches), "count");
}

int usage() {
  std::cerr << "usage: servebench --workload <hier-paced|flat-edit>"
               " --seed <n> --seconds <s> --trace <0|1> [--smoke]"
               " [--out-dir <dir>]\n";
  return 2;
}

int run(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--workload" && has_value) {
      a.workload = argv[++i];
      have_workload = true;
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) == "1";
    } else if (k == "--out-dir" && has_value) {
      a.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_workload || !(a.seconds > 0.0)) return usage();
  const Workload w = make_workload(a.workload, a.smoke);

  Result r;
  if (!a.trace) {
    LiveOptions o;
    o.window_s = a.seconds;
    end_to_end(run_live(w, a, o, r), r);
    return print_result(r, kEndToEnd) ? 0 : 1;
  }
  const std::string spans =
      a.out_dir.empty() ? std::string()
                        : a.out_dir + "/spans-" + w.name + "-" +
                              std::to_string(a.seed) + ".csv";
  const ReplayOutcome rp = run_replay(w, a, a.seconds / 3.0, spans);
  r.attempted += rp.packets + rp.edit_batches;
  LiveOptions o;
  o.window_s = a.seconds / 3.0;
  o.instances = 1;
  o.setups = 1;
  const LiveOutcome ref = run_live(w, a, o, r);
  o.traced = true;
  const LiveOutcome live = run_live(w, a, o, r);
  per_layer(w, ref, live, rp, r);
  return print_result(r, kPerLayer) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << '\n';
    return 2;
  }
}
