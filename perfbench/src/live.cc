#include "live.h"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "core/tree_parser.h"
#include "telemetry/log_histogram.h"

namespace perfbench {

namespace {

using telemetry::HistogramSnapshot;

double cpu_of(std::thread& t) {
  clockid_t cid;
  if (!t.joinable() || pthread_getcpuclockid(t.native_handle(), &cid) != 0) {
    return 0.0;
  }
  timespec ts{};
  clock_gettime(cid, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Keeps a computed value alive so timed loops are not optimised away.
void keep(std::uint64_t v) {
  static std::atomic<std::uint64_t> sink{0};
  sink.store(v, std::memory_order_relaxed);
}

HistogramSnapshot minus(HistogramSnapshot b, const HistogramSnapshot& a) {
  b.count = 0;
  for (std::size_t i = 0; i < b.buckets.size(); ++i) {
    if (i < a.buckets.size()) b.buckets[i] -= a.buckets[i];
    b.count += b.buckets[i];
  }
  return b;
}

void set_delays(LiveOutcome& l) {
  l.delay_us_p50 = l.latency.quantile(0.5) * 1e6;
  l.delay_us_p99 = l.latency.quantile(0.99) * 1e6;
}

struct Producer {
  std::atomic<bool> stop{false};
  std::atomic<bool> in_window{false};  // lateness counts inside the window
  alignas(64) std::atomic<std::uint64_t> offered{0};
  alignas(64) std::atomic<std::uint64_t> losses{0};
  // Read after join.
  double submit_ns_sum = 0.0;
  std::uint64_t submit_samples = 0;
  double origin = 0.0;
  telemetry::LogHistogram late{1e-7};
};

struct Editor {
  std::uint64_t batches = 0;
  std::vector<std::pair<double, double>> spans;  // (start clock s, wall ms)
  std::string error;
};

struct Snap {
  Clock::time_point wall;
  double proc = 0.0;
  double bench = 0.0;  // CPU of the benchmark's own threads
  serve::Service::Totals totals;
  std::uint64_t offered = 0;
  std::uint64_t losses = 0;
  std::vector<std::uint64_t> delivered;
  HistogramSnapshot latency;
  HistogramSnapshot backlog;
  std::vector<double> served_bits;  // per leaf (share check only)
  std::uint64_t seq = 0;
};

std::vector<net::FlowId> leaf_flows(const core::Hierarchy& tree) {
  std::vector<net::FlowId> f;
  for (std::uint32_t i = 1; i < tree.size(); ++i) {
    if (tree.node(i).leaf) f.push_back(tree.node(i).flow);
  }
  return f;
}

Snap snap(serve::Service& svc, const Producer& prod,
          const std::vector<net::FlowId>& share_flows, double bench_cpu) {
  Snap s;
  s.wall = Clock::now();
  s.proc = process_cpu_s();
  s.bench = bench_cpu;
  s.offered = prod.offered.load(std::memory_order_relaxed);
  s.losses = prod.losses.load(std::memory_order_relaxed);
  s.totals = svc.totals();
  for (std::size_t i = 0; i < svc.num_shards(); ++i) {
    const serve::ShardStats& st = svc.shard(i).stats();
    s.delivered.push_back(st.delivered.load(std::memory_order_relaxed));
    const telemetry::ShardTelemetry* t = svc.shard_telemetry(i);
    if (i == 0) {
      s.latency = t->latency_snapshot();
      s.backlog = t->backlog_snapshot();
    } else {
      s.latency.merge(t->latency_snapshot());
      s.backlog.merge(t->backlog_snapshot());
    }
  }
  for (const net::FlowId f : share_flows) {
    s.served_bits.push_back(static_cast<double>(
        svc.shard_telemetry(svc.shard_index_of(f))->served_bits(f)));
  }
  s.seq = svc.plane()->snapshot_seq();
  return s;
}

// Smallest measured/ideal service ratio over interior classes; the ideal is
// H-GPS water-filling on the offered demands.
double share_min(const Workload& w, const core::Hierarchy& tree,
                 const std::vector<double>& served_bits, double window_s) {
  fluid::ShareSolver solver = tree.build_solver();
  std::unordered_map<net::FlowId, double> demand;
  for (const TrafficGroup& g : w.groups) {
    for (std::uint32_t i = 0; i < g.count; ++i) {
      demand[g.first_flow + i] = g.pps_each * 8.0 * w.packet_bytes;
    }
  }
  std::vector<double> measured(tree.size(), 0.0);
  std::size_t leaf = 0;
  for (std::uint32_t i = 1; i < tree.size(); ++i) {
    const core::Hierarchy::NodeSpec& n = tree.node(i);
    if (!n.leaf) continue;
    const auto it = demand.find(n.flow);
    solver.set_demand(i, it == demand.end() ? 0.0 : it->second);
    const double bps = served_bits[leaf++] / window_s;
    for (std::int32_t a = n.parent; a > 0; a = tree.node(a).parent) {
      measured[static_cast<std::size_t>(a)] += bps;
    }
  }
  const std::vector<double> ideal = solver.solve(tree.link_rate());
  double lo = 0.0;
  bool any = false;
  for (std::uint32_t i = 1; i < tree.size(); ++i) {
    if (tree.node(i).leaf || ideal[i] <= 0.0) continue;
    const double ratio = measured[i] / ideal[i];
    lo = any ? std::min(lo, ratio) : ratio;
    any = true;
  }
  return lo;
}

bool same_directory(std::vector<serve::Service::Session> got,
                    const core::Hierarchy& tree) {
  std::vector<std::tuple<std::string, net::FlowId, double>> want;
  for (std::uint32_t i = 1; i < tree.size(); ++i) {
    const core::Hierarchy::NodeSpec& n = tree.node(i);
    if (n.leaf) want.emplace_back(n.name, n.flow, n.rate_bps);
  }
  if (got.size() != want.size()) return false;
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end(),
            [](const auto& x, const auto& y) { return x.name < y.name; });
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::get<0>(want[i]) != got[i].name ||
        std::get<1>(want[i]) != got[i].flow ||
        std::get<2>(want[i]) != got[i].rate_bps) {
      return false;
    }
  }
  return true;
}

// Checks every breach the plane logged against the offered stream.
// The envelope is the one the service guarantees today: (sigma,
// r_i / shards), since every shard runs the tree at 1/shards of its rates.
// A breach on a session that broke its envelope before the breach was
// detected is expected. On a conforming session it is a false alarm; it
// fails the run only when the measured lag also exceeds the paper's WFI
// bound for WF2Q+, which adds the session's own packetization term Lmax/r_i
// to the monitor's budget. A run whose conforming cohort all left their
// envelopes fails too: the check would have nothing left to hold.
void judge_breaches(const Workload& w, std::uint64_t seed,
                    const core::Hierarchy& tree, std::uint64_t produced,
                    double origin, const std::vector<telemetry::Breach>& log,
                    LiveOutcome& out, Result& r) {
  out.breaches = log.size();
  const telemetry::BoundMonitorConfig mc;
  Conformance conf(tree, mc.sigma_packets * mc.lmax_bits,
                   1.0 / static_cast<double>(kShards));
  Stream again(w, seed);
  for (std::uint64_t i = 0; i < produced; ++i) {
    net::Packet p = again.next();
    p.created += origin;
    conf.observe(p);
  }
  out.conforming_sessions = conf.conforming_active();
  if (out.conforming_sessions == 0) {
    r.fail("no session stayed inside its envelope; the breach gate is empty");
  }
  std::unordered_map<net::FlowId, double> rate;
  for (std::uint32_t i = 1; i < tree.size(); ++i) {
    if (tree.node(i).leaf) rate[tree.node(i).flow] = tree.node(i).rate_bps;
  }
  static const char* kKinds[] = {"delay", "flow-lag", "class-lag"};
  for (const telemetry::Breach& b : log) {
    bool conforming = true;
    double allowance = 0.0;
    if (b.kind == telemetry::Breach::Kind::kClassLag) {
      const std::uint32_t cls = tree.index_of(b.name);
      for (std::uint32_t i = 1; i < tree.size() && conforming; ++i) {
        if (!tree.node(i).leaf) continue;
        for (std::int32_t a = tree.node(i).parent; a > 0;
             a = tree.node(a).parent) {
          if (static_cast<std::uint32_t>(a) == cls) {
            conforming = conf.conforming(tree.node(i).flow, b.at_s);
            break;
          }
        }
      }
    } else {
      conforming = conf.conforming(b.flow, b.at_s);
      const auto it = rate.find(b.flow);
      if (b.kind == telemetry::Breach::Kind::kFlowLag && it != rate.end()) {
        allowance = mc.lmax_bits * static_cast<double>(kShards) / it->second;
      }
    }
    if (!conforming) continue;
    ++out.breaches_conforming;
    if (b.measured_s <= b.budget_s + allowance) continue;
    r.fail(std::string("conforming ") + kKinds[static_cast<int>(b.kind)] +
           " breach beyond the paper's bound: " + b.name + " measured " +
           std::to_string(b.measured_s) + " s > " +
           std::to_string(b.budget_s + allowance) + " s");
  }
}


// One service instance: build, run one window, stop, gate.
LiveOutcome run_instance(const Workload& w, std::uint64_t seed,
                         const LiveOptions& o, Result& r) {
  LiveOutcome out;
  const serve::ServiceConfig cfg = service_config(w);

  // The producer generates the seeded stream as it goes and submits each
  // packet when it is due.
  Stream stream(w, seed);
  Producer prod;
  Editor ed;

  const Clock::time_point setup0 = Clock::now();
  const core::Hierarchy tree = core::parse_hierarchy(w.tree_text);
  const double rss0 = rss_mb();
  auto svc = std::make_unique<serve::Service>(tree, cfg);
  svc->start();
  out.setup_s = secs(Clock::now() - setup0);
  double rss_peak = rss_mb();

  const std::vector<net::FlowId> share_flows =
      w.share_check ? leaf_flows(tree) : std::vector<net::FlowId>{};

  std::thread producer([&] {
    serve::Service& s = *svc;
    std::uint64_t n = 0;
    std::uint64_t losses = 0;
    std::uint64_t k = 0;
    auto submit = [&](const net::Packet& p) {
      if (!o.traced || (++k & 63u) != 0) return s.submit(p);
      const Clock::time_point t0 = Clock::now();
      const bool ok = s.submit(p);
      prod.submit_ns_sum += secs(Clock::now() - t0) * 1e9;
      ++prod.submit_samples;
      return ok;
    };
    prod.origin = s.clock_s() + 0.005;
    while (!prod.stop.load(std::memory_order_relaxed)) {
      net::Packet p = stream.next();
      const double due = prod.origin + p.created;
      for (;;) {
        const double lag = due - s.clock_s();
        if (lag <= 0.0) break;
        if (lag > 200e-6) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        } else {
          std::this_thread::yield();
        }
      }
      p.created = due;
      p.arrival = due;
      if (prod.in_window.load(std::memory_order_relaxed)) {
        prod.late.observe(s.clock_s() - due);
      }
      if (!submit(p)) prod.losses.store(++losses, std::memory_order_relaxed);
      prod.offered.store(++n, std::memory_order_relaxed);
    }
  });

  std::thread editor;
  if (w.edit_period_s > 0.0) {
    editor = std::thread([&] {
      serve::Service& s = *svc;
      double next = s.clock_s() + w.edit_period_s;
      try {
        while (!prod.stop.load(std::memory_order_relaxed) ||
               ed.batches % 2 != 0) {
          const double wait = next - s.clock_s();
          if (wait > 0.0 && !prod.stop.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
          const std::string text = edit_text(w, ed.batches, seed);
          const double start = s.clock_s();
          const Clock::time_point t0 = Clock::now();
          s.apply_edit_text(text);
          ed.spans.emplace_back(start, secs(Clock::now() - t0) * 1e3);
          ++ed.batches;
          next = std::max(next + w.edit_period_s, s.clock_s());
        }
      } catch (const std::exception& e) {
        ed.error = e.what();
      }
    });
  }

  // Stops and joins the benchmark's threads on every way out of this scope.
  struct Joiner {
    Producer& prod;
    std::thread& producer;
    std::thread& editor;
    ~Joiner() {
      prod.stop.store(true, std::memory_order_relaxed);
      if (producer.joinable()) producer.join();
      if (editor.joinable()) editor.join();
    }
  } joiner{prod, producer, editor};
  auto bench_cpu = [&] {
    return thread_cpu_s() + cpu_of(producer) + cpu_of(editor);
  };

  std::this_thread::sleep_for(std::chrono::duration<double>(w.warmup_s));
  prod.in_window.store(true, std::memory_order_relaxed);
  const Snap s1 = snap(*svc, prod, share_flows, bench_cpu());
  const Clock::time_point t_end =
      s1.wall + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(o.window_s));
  const double win_lo = svc->clock_s();
  std::vector<double> tick_ms;
  std::vector<double> render_ms;
  Clock::time_point next_rss = s1.wall;
  Clock::time_point next_tick = s1.wall + std::chrono::milliseconds(250);
  while (Clock::now() < t_end) {
    std::this_thread::sleep_for(std::chrono::microseconds(2000));
    const Clock::time_point now = Clock::now();
    if (now >= next_rss) {
      rss_peak = std::max(rss_peak, rss_mb());
      next_rss = now + std::chrono::milliseconds(10);
    }
    if (o.traced && now >= next_tick) {
      Clock::time_point t0 = Clock::now();
      svc->plane()->tick();
      tick_ms.push_back(secs(Clock::now() - t0) * 1e3);
      t0 = Clock::now();
      keep(svc->plane()->render().size());
      render_ms.push_back(secs(Clock::now() - t0) * 1e3);
      next_tick = now + std::chrono::milliseconds(1000);
    }
  }
  const Snap s2 = snap(*svc, prod, share_flows, bench_cpu());
  prod.in_window.store(false, std::memory_order_relaxed);
  const double win_hi = svc->clock_s();
  prod.stop.store(true, std::memory_order_relaxed);
  producer.join();
  if (editor.joinable()) editor.join();
  rss_peak = std::max(rss_peak, rss_mb());
  svc->stop();

  // --- end-to-end figures over the window ----------------------------------
  const double win = secs(s2.wall - s1.wall);
  const double delivered =
      static_cast<double>(s2.totals.delivered - s1.totals.delivered);
  out.delivered_mpps = delivered / win * 1e-6;
  out.cpu_ns_per_pkt =
      ((s2.proc - s1.proc) - (s2.bench - s1.bench)) * 1e9 / delivered;
  out.service_rss_mb = rss_peak - rss0;
  const double offered = static_cast<double>(s2.offered - s1.offered);
  const auto lost = [](const Snap& s) {
    return static_cast<double>(s.totals.sched_drops + s.totals.edit_drops +
                               s.losses);
  };
  out.loss_ratio = offered > 0.0 ? (lost(s2) - lost(s1)) / offered : 0.0;
  out.latency = minus(s2.latency, s1.latency);
  out.delay_samples = out.latency.count;
  set_delays(out);
  if (w.share_check) {
    std::vector<double> bits(s2.served_bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      bits[i] = s2.served_bits[i] - s1.served_bits[i];
    }
    out.share_min_ratio = share_min(w, tree, bits, win);
  }
  for (const auto& [start, ms] : ed.spans) {
    if (start >= win_lo && start < win_hi) out.edit_ms.push_back(ms);
  }
  out.edit_batches = ed.batches;

  // --- per-layer figures visible from outside ------------------------------
  if (prod.submit_samples > 0) {
    out.submit_ns =
        prod.submit_ns_sum / static_cast<double>(prod.submit_samples);
  }
  double deliv_max = 0.0;
  for (std::size_t i = 0; i < s2.delivered.size(); ++i) {
    deliv_max = std::max(
        deliv_max, static_cast<double>(s2.delivered[i] - s1.delivered[i]));
  }
  out.shard_skew =
      deliv_max / (delivered / static_cast<double>(s2.delivered.size()));
  const HistogramSnapshot backlog = minus(s2.backlog, s1.backlog);
  out.backlog_p50 = backlog.quantile(0.5);
  out.backlog_p99 = backlog.quantile(0.99);
  const double ingested =
      static_cast<double>(s2.totals.ingested - s1.totals.ingested);
  out.accept_ratio =
      ingested > 0.0
          ? static_cast<double>(s2.totals.accepted - s1.totals.accepted) /
                ingested
          : 0.0;
  out.tick_ms = median(tick_ms);
  out.render_ms = median(render_ms);
  out.snapshots_per_s = static_cast<double>(s2.seq - s1.seq) / win;
  out.gen_late_us_p99 = prod.late.snapshot().quantile(0.99) * 1e6;

  // --- correctness gate ----------------------------------------------------
  const serve::Service::Totals t = svc->totals();
  const std::uint64_t offered_n = prod.offered.load(std::memory_order_relaxed);
  const std::uint64_t losses = prod.losses.load(std::memory_order_relaxed);
  const std::uint64_t accounted = t.delivered + t.backlog + t.sched_drops +
                                  t.edit_drops + t.ring_drops;
  r.attempted += offered_n + ed.batches;
  if (offered_n != accounted) {
    r.fail("conservation: offered " + std::to_string(offered_n) +
           " != delivered+backlog+drops " + std::to_string(accounted));
  }
  if (losses > 0) {
    r.failed += losses;
    r.fail("ring overflow lost " + std::to_string(losses) + " packets");
  }
  if (t.faulted_shards + t.splice_failures + t.audit_violations > 0) {
    r.fail("faulted shards / splice failures / audit violations: " +
           std::to_string(t.faulted_shards) + "/" +
           std::to_string(t.splice_failures) + "/" +
           std::to_string(t.audit_violations));
  }
  if (!ed.error.empty()) {
    r.failed += 1;
    r.fail("edit batch failed: " + ed.error);
  }
  if (w.edit_period_s > 0.0 && !same_directory(svc->sessions(), tree)) {
    r.fail("session directory differs from the one the edit script implies");
  }
  judge_breaches(w, seed, tree, offered_n, prod.origin,
                 svc->plane()->breach_log(), out, r);
  if (out.delay_samples == 0) r.fail("no delay samples in the window");
  svc.reset();
  return out;
}

}  // namespace

LiveOutcome run_live(const Workload& w, const Args& a, const LiveOptions& o,
                     Result& r) {
  // Generator cost, measured before anything is timed.
  double gen_ns = 0.0;
  {
    Stream cal(w, a.seed ^ 0x5bd1e995u);
    std::uint64_t sink = 0;
    const std::size_t n = a.smoke ? (1u << 16) : (1u << 21);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) sink += cal.next().flow;
    gen_ns = secs(Clock::now() - t0) * 1e9 / static_cast<double>(n);
    keep(sink);
  }

  // Several service instances, each on its own stream derived from the
  // seed; a run reports the median over them. The memory figure is the
  // first instance's, taken in a fresh process.
  std::vector<LiveOutcome> runs;
  for (std::size_t i = 0; i < o.instances; ++i) {
    LiveOptions one = o;
    one.window_s = o.window_s / static_cast<double>(o.instances);
    runs.push_back(run_instance(w, a.seed + 0x9e3779b97f4a7c15ULL * i, one, r));
    runs.back().gen_ns_per_pkt = gen_ns;
    std::cerr << "servebench: instance " << i << ": "
              << runs.back().delivered_mpps << " Mpps, "
              << runs.back().cpu_ns_per_pkt << " cpu ns/pkt, delay p50/p99 "
              << runs.back().delay_us_p50 << "/" << runs.back().delay_us_p99
              << " us, setup " << runs.back().setup_s << " s\n";
  }
  auto med = [&](double LiveOutcome::*f) {
    std::vector<double> v;
    for (const LiveOutcome& l : runs) v.push_back(l.*f);
    return median(v);
  };
  LiveOutcome out = runs.front();
  for (double LiveOutcome::*f :
       {&LiveOutcome::delivered_mpps, &LiveOutcome::cpu_ns_per_pkt,
        &LiveOutcome::loss_ratio, &LiveOutcome::share_min_ratio,
        &LiveOutcome::submit_ns, &LiveOutcome::shard_skew,
        &LiveOutcome::backlog_p50, &LiveOutcome::backlog_p99,
        &LiveOutcome::accept_ratio, &LiveOutcome::tick_ms,
        &LiveOutcome::render_ms, &LiveOutcome::snapshots_per_s,
        &LiveOutcome::gen_late_us_p99}) {
    out.*f = med(f);
  }
  std::vector<double> setups;
  out.delay_samples = out.breaches = out.breaches_conforming = 0;
  out.conforming_sessions = runs.front().conforming_sessions;
  out.edit_batches = 0;
  out.edit_ms.clear();
  // Delays pool the instances' samples: a median of per-instance p50s
  // jumps when the p50 sits where two traffic classes' delays meet.
  for (std::size_t i = 1; i < runs.size(); ++i) {
    out.latency.merge(runs[i].latency);
  }
  set_delays(out);
  for (const LiveOutcome& l : runs) {
    setups.push_back(l.setup_s);
    out.delay_samples += l.delay_samples;
    out.breaches += l.breaches;
    out.breaches_conforming += l.breaches_conforming;
    out.conforming_sessions =
        std::min(out.conforming_sessions, l.conforming_sessions);
    out.edit_batches += l.edit_batches;
    out.edit_ms.insert(out.edit_ms.end(), l.edit_ms.begin(), l.edit_ms.end());
  }

  // Further builds until setup_s rests on enough of them.
  double total = 0.0;
  for (const double s : setups) total += s;
  while (setups.size() < o.setups || (total < 1.0 && setups.size() < 50)) {
    const Clock::time_point t0 = Clock::now();
    const core::Hierarchy again = core::parse_hierarchy(w.tree_text);
    serve::Service s(again, service_config(w));
    s.start();
    setups.push_back(secs(Clock::now() - t0));
    total += setups.back();
    s.stop();
  }
  out.setup_s = median(setups);
  if (out.gen_late_us_p99 > out.delay_us_p50) {
    r.fail("generator late: p99 " + std::to_string(out.gen_late_us_p99) +
           " us > delay p50 " + std::to_string(out.delay_us_p50) + " us");
  }
  return out;
}

}  // namespace perfbench
