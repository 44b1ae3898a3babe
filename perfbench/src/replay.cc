#include "replay.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "core/tree_parser.h"
#include "runner/simulate.h"
#include "serve/edits.h"
#include "serve/mpsc_ring.h"
#include "serve/shard_map.h"
#include "telemetry/bound_monitor.h"
#include "telemetry/shard_telemetry.h"

namespace perfbench {

namespace {

enum Layer : std::uint8_t {
  kIter,      // one replay step (root of the layer spans below)
  kGen,
  kPush,      // MpscRing::try_push (producer side)
  kPop,       // MpscRing::pop_burst
  kEnqueue,   // Scheduler::enqueue_burst
  kHooksIn,   // ShardTelemetry::on_arrival / on_sched_drop
  kDequeue,   // Scheduler::dequeue_burst
  kHooksOut,  // ShardTelemetry::on_delivery / on_loop
  kParse,     // serve::parse_edits
  kCommit,    // Scheduler::live_set_rate + commit_live_edits
  kValidate,  // Scheduler::validate_splice
  kOnEdits,   // BoundMonitor::on_edits
  kLayers
};

constexpr std::array<const char*, kLayers> kNames = {
    "replay.step", "gen",       "ring.push",     "ring.pop_burst",
    "core.enqueue_burst", "telemetry.arrival_hooks", "core.dequeue_burst",
    "telemetry.delivery_hooks", "serve.parse_edits", "core.commit_live_edits",
    "core.validate_splice", "telemetry.on_edits"};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// In-memory span store: every span is aggregated into per-layer self time;
// the first kKeep are also kept verbatim and written at exit.
class Tracer {
 public:
  static constexpr std::size_t kKeep = 1u << 18;

  Tracer() {
    // Cost of an empty span (two clock reads), subtracted from every span.
    constexpr int kN = 1 << 16;
    const std::int64_t t0 = now_ns();
    std::int64_t last = t0;
    for (int i = 0; i < kN; ++i) last = now_ns();
    overhead_ns_ = static_cast<double>(last - t0) / kN;
  }

  // Opens a root span; layer spans recorded until close_root() are its
  // children.
  void open(Layer l) {
    root_id_ = next_id_++;
    if (spans_.size() < kKeep) spans_.push_back(Span{l, 0, now_ns(), 0});
  }
  void close_root() {
    const std::int64_t end = now_ns();
    if (root_id_ < spans_.size()) spans_[root_id_].end = end;
  }

  template <typename F>
  auto time(Layer l, F&& f) {
    const std::int64_t t0 = now_ns();
    auto r = f();
    const std::int64_t t1 = now_ns();
    self_ns_[l] += static_cast<double>(t1 - t0) - overhead_ns_;
    ++calls_[l];
    ++next_id_;
    if (spans_.size() < kKeep) spans_.push_back(Span{l, root_id_, t0, t1});
    return r;
  }

  [[nodiscard]] double self_ns(Layer l) const {
    return std::max(0.0, self_ns_[l]);
  }
  [[nodiscard]] std::uint64_t calls(Layer l) const { return calls_[l]; }
  [[nodiscard]] std::uint64_t recorded() const { return next_id_; }

  void write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return;
    os << "name,start_ns,end_ns,parent\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << kNames[s.layer] << ',' << s.start << ',' << s.end << ',';
      if (s.layer == kIter) {
        os << "-1\n";
      } else {
        os << s.parent << '\n';
      }
    }
  }

 private:
  struct Span {
    Layer layer;
    std::uint32_t parent;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Span> spans_;
  std::array<double, kLayers> self_ns_{};
  std::array<std::uint64_t, kLayers> calls_{};
  double overhead_ns_ = 0.0;
  std::uint32_t next_id_ = 0;
  std::uint32_t root_id_ = 0;
};

// One emulated shard: the pieces serve::Shard owns, built through their
// public constructors.
struct ReplayShard {
  std::unique_ptr<net::Scheduler> sched;
  std::unique_ptr<telemetry::ShardTelemetry> tele;
  std::unique_ptr<serve::MpscRing> ring;
  std::vector<net::Packet> in;
  std::vector<net::Packet> out;
  double link_free = 0.0;
  double now = 0.0;
  std::uint64_t delivered = 0;
};

// Name resolution of a re-weight batch, as the service's control plane
// does it (directory of name -> flow; rates scaled to one shard).
class Directory {
 public:
  explicit Directory(const core::Hierarchy& tree) {
    for (std::uint32_t i = 1; i < tree.size(); ++i) {
      const core::Hierarchy::NodeSpec& n = tree.node(i);
      if (n.leaf) dir_[n.name] = n.flow;
    }
  }
  std::vector<serve::ResolvedEdit> resolve(
      const std::vector<serve::EditOp>& ops, double inv) const {
    std::vector<serve::ResolvedEdit> out;
    for (const serve::EditOp& op : ops) {
      const auto it = dir_.find(op.name);
      if (op.kind != serve::EditOp::Kind::kUpsert || it == dir_.end()) {
        throw std::runtime_error("replay: not a re-weight: " + op.name);
      }
      serve::ResolvedEdit r;
      r.kind = serve::ResolvedEdit::Kind::kSetRate;
      r.flow = it->second;
      r.rate_bps = op.rate_bps * inv;
      out.push_back(r);
    }
    return out;
  }

 private:
  std::unordered_map<std::string, net::FlowId> dir_;
};

}  // namespace

ReplayOutcome run_replay(const Workload& w, const Args& a, double budget_s,
                         const std::string& span_path) {
  ReplayOutcome out;
  const serve::ServiceConfig cfg = service_config(w);
  const std::size_t n_shards = cfg.num_shards;
  const double inv = 1.0 / static_cast<double>(n_shards);

  // --- construction, with the memory ledger --------------------------------
  double held = heap_mb();
  const core::Hierarchy tree = core::parse_hierarchy(w.tree_text);
  out.tree_mb = heap_mb() - held;
  core::Hierarchy scaled(tree.link_rate() * inv, tree.node(0).name);
  net::FlowId max_flow = 0;
  for (std::uint32_t i = 1; i < tree.size(); ++i) {
    const core::Hierarchy::NodeSpec& n = tree.node(i);
    const auto parent = static_cast<std::uint32_t>(n.parent);
    if (n.leaf) {
      scaled.add_session(parent, n.name, n.rate_bps * inv, n.flow,
                         n.capacity_packets);
      max_flow = std::max(max_flow, n.flow);
    } else {
      scaled.add_class(parent, n.name, n.rate_bps * inv);
    }
  }
  std::vector<ReplayShard> shards(n_shards);
  for (ReplayShard& s : shards) {
    held = heap_mb();
    const Clock::time_point t0 = Clock::now();
    s.sched = hfq::runner::build_scheduler(cfg.scheduler, scaled);
    out.build_ms += secs(Clock::now() - t0) * 1e3;
    out.sched_mb += heap_mb() - held;
  }
  telemetry::ShardTelemetryConfig tc;
  tc.flow_slots = std::min(static_cast<std::size_t>(max_flow) + 1 +
                               cfg.telemetry.flow_headroom,
                           serve::TelemetrySpec::kMaxFlowSlots);
  tc.delay_checks = true;
  for (ReplayShard& s : shards) {
    held = heap_mb();
    s.tele = std::make_unique<telemetry::ShardTelemetry>(tc);
    out.cells_mb += heap_mb() - held;
  }
  held = heap_mb();
  telemetry::BoundMonitorConfig mc;
  mc.lmax_bits = cfg.telemetry.lmax_bits;
  mc.sigma_packets = cfg.telemetry.sigma_packets;
  mc.slack_s = cfg.telemetry.slack_s;
  mc.delay_checks = tc.delay_checks;
  telemetry::BoundMonitor monitor(tree, n_shards, mc);
  std::vector<telemetry::ShardTelemetry*> blocks;
  for (ReplayShard& s : shards) blocks.push_back(s.tele.get());
  monitor.attach(blocks);
  out.monitor_mb = heap_mb() - held;
  for (ReplayShard& s : shards) {
    held = heap_mb();
    s.ring = std::make_unique<serve::MpscRing>(cfg.ring_capacity);
    out.ring_mb += heap_mb() - held;
    s.in.reserve(cfg.ingest_burst);
    s.out.reserve(cfg.service_burst);
  }

  // --- the shard loop, single-threaded ------------------------------------
  Tracer tr;
  Stream stream(w, a.seed);
  Directory dir(tree);
  const double rate = scaled.link_rate();
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::uint64_t dequeues = 0;
  std::uint64_t sample = 0;

  // drain_ingress(): pop one burst, enqueue it at `now`, arrival hooks.
  auto drain = [&](ReplayShard& s, double now) {
    s.in.clear();
    const std::size_t n = tr.time(kPop, [&] {
      return s.ring->pop_burst(s.in, cfg.ingest_burst);
    });
    if (n == 0) return n;
    popped += n;
    const std::size_t ok = tr.time(kEnqueue, [&] {
      return s.sched->enqueue_burst(s.in, now);
    });
    tr.time(kHooksIn, [&] {
      std::uint32_t max_bytes = 0;
      for (const net::Packet& p : s.in) {
        s.tele->on_arrival(p.flow, p.size_bytes);
        max_bytes = std::max(max_bytes, p.size_bytes);
      }
      if (ok < n) s.tele->on_sched_drop(n - ok, 8ull * (n - ok) * max_bytes);
      return 0;
    });
    return n;
  };
  // service_link(): one dequeue_burst from the link cursor up to `fence`,
  // delivery hooks.
  auto serve = [&](ReplayShard& s, double fence) {
    if (s.sched->backlog_packets() == 0) return std::size_t{0};
    const double t0 = std::max(s.link_free, s.now);
    s.out.clear();
    const std::size_t m = tr.time(kDequeue, [&] {
      return s.sched->dequeue_burst(s.out, cfg.service_burst, t0, rate, fence);
    });
    ++dequeues;
    s.link_free = tr.time(kHooksOut, [&] {
      double t = t0;
      for (const net::Packet& p : s.out) {
        t += p.size_bits() / rate;
        s.tele->on_delivery(p.flow, p.size_bytes, t - p.created, t,
                            (++sample & 7u) == 0);
      }
      s.tele->on_loop(s.sched->backlog_packets());
      return t;
    });
    s.delivered += m;
    return m;
  };
  // Epoch boundary on every shard for edit batch k.
  auto edit = [&](std::uint64_t k) {
    const std::string text = edit_text(w, k, a.seed);
    const std::vector<serve::EditOp> ops =
        tr.time(kParse, [&] { return serve::parse_edits(text); });
    const std::vector<serve::ResolvedEdit> res = dir.resolve(ops, inv);
    for (ReplayShard& s : shards) {
      tr.time(kCommit, [&] {
        for (const serve::ResolvedEdit& e : res) {
          s.sched->live_set_rate(e.flow, e.rate_bps);
        }
        s.sched->commit_live_edits();
        return 0;
      });
      const bool ok = tr.time(kValidate, [&] {
        std::string why;
        return s.sched->validate_splice(&why);
      });
      if (!ok) throw std::runtime_error("replay: splice validation failed");
    }
    tr.time(kOnEdits, [&] {
      monitor.on_edits(res);
      return 0;
    });
    ++out.edit_batches;
  };

  constexpr std::size_t kBlock = 512;
  std::vector<net::Packet> block;
  block.reserve(kBlock);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  std::uint64_t next_edit = 0;
  while (Clock::now() < deadline) {
    tr.open(kIter);
    block.clear();
    tr.time(kGen, [&] {
      for (std::size_t i = 0; i < kBlock; ++i) block.push_back(stream.next());
      return 0;
    });
    // Virtual time follows the stream; each shard's link is served up to
    // the next arrival (the fence) before that arrival is enqueued, and
    // edit batches land at their scheduled times.
    for (const net::Packet& p : block) {
      while (w.edit_period_s > 0.0 &&
             static_cast<double>(next_edit + 1) * w.edit_period_s <=
                 p.created) {
        edit(next_edit++);
      }
      ReplayShard& s = shards[serve::shard_of(p.flow, n_shards)];
      while (s.link_free < p.created && serve(s, p.created) > 0) {
      }
      s.now = p.created;
      tr.time(kPush, [&] { return s.ring->try_push(p); });
      ++pushed;
      drain(s, p.created);
    }
    tr.close_root();
  }
  if (next_edit % 2 != 0) edit(next_edit++);

  const double pkts = static_cast<double>(pushed);
  out.packets = pushed;
  out.pop_ns = tr.self_ns(kPop) / pkts;
  out.enqueue_ns = tr.self_ns(kEnqueue) / pkts;
  out.dequeue_ns = tr.self_ns(kDequeue) / pkts;
  out.hook_ns = (tr.self_ns(kHooksIn) + tr.self_ns(kHooksOut)) / pkts;
  out.ingest_burst_mean =
      static_cast<double>(popped) / static_cast<double>(tr.calls(kPop));
  std::uint64_t delivered = 0;
  for (const ReplayShard& s : shards) delivered += s.delivered;
  out.dequeue_burst_mean =
      dequeues > 0
          ? static_cast<double>(delivered) / static_cast<double>(dequeues)
          : 0.0;
  if (out.edit_batches > 0) {
    const double b = static_cast<double>(out.edit_batches);
    out.edit_parse_us = tr.self_ns(kParse) / b * 1e-3;
    out.commit_us = tr.self_ns(kCommit) / (b * n_shards) * 1e-3;
    out.validate_splice_us = tr.self_ns(kValidate) / (b * n_shards) * 1e-3;
    out.on_edits_us = tr.self_ns(kOnEdits) / b * 1e-3;
  }
  out.shard_ns_per_pkt =
      (tr.self_ns(kPop) + tr.self_ns(kEnqueue) + tr.self_ns(kHooksIn) +
       tr.self_ns(kDequeue) + tr.self_ns(kHooksOut) + tr.self_ns(kCommit) +
       tr.self_ns(kValidate)) /
      pkts;
  out.spans = tr.recorded();
  if (!span_path.empty()) tr.write(span_path);
  return out;
}

}  // namespace perfbench
