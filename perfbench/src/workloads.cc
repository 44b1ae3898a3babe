// The benchmark workloads, the seeded arrival stream and the edit
// script. Everything here is a pure function of (workload, seed).
#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

namespace {

constexpr double kLinkBps = 1e9;

std::string rate(double bps) {
  return std::to_string(static_cast<std::uint64_t>(std::floor(bps)));
}

// hier-paced: link -> 8 classes (weights 1..8) -> 8 subclasses -> 64
// sessions. Classes 0-1 silent, 2-4 Poisson at 0.8x; in 5-7 half the
// sessions offer 3x (greedy), a quarter offer 0.3x (the conforming cohort:
// inside their (sigma, r_i / shards) envelope, so the breach gate has
// sessions to hold to the bounds) and a quarter are silent. Offered load is
// 1.18x the link, so greedy sessions sit at their buffer caps.
constexpr int kClasses = 8;
constexpr int kSubs = 8;
constexpr std::uint32_t kLeaves = 64;

// Small enough to run unshrunk in self-tests.
Workload hier_paced() {
  Workload w;
  w.name = "hier-paced";
  w.scheduler = "hwf2q+";
  // Smallest of 64/128/256 B at which the traced per-packet cost keeps each
  // shard under half busy at line rate (gen.line_rate_busy_frac): 64 B
  // measured 0.50-0.57 on a 4-vCPU Xeon VM, 128 B about half that.
  w.packet_bytes = 128;
  w.share_check = true;
  const double bits = 8.0 * w.packet_bytes;
  std::ostringstream os;
  os << "link " << rate(w.link_bps) << '\n';
  for (int c = 0; c < kClasses; ++c) {
    const double leaf_r =
        std::floor(w.link_bps * (c + 1) / 36.0 / kSubs / kLeaves);
    os << 'c' << c << ' ' << rate(leaf_r * kSubs * kLeaves) << " {\n";
    for (int s = 0; s < kSubs; ++s) {
      os << "  c" << c << 's' << s << ' ' << rate(leaf_r * kLeaves)
         << " {\n";
      const auto first = static_cast<net::FlowId>((c * kSubs + s) * kLeaves);
      for (std::uint32_t l = 0; l < kLeaves; ++l) {
        os << "    c" << c << 's' << s << 'f' << l << ' ' << rate(leaf_r)
           << " flow=" << first + l << " cap=16\n";
      }
      os << "  }\n";
      if (c >= 2 && c <= 4) {
        w.groups.push_back(TrafficGroup{first, kLeaves, 0.8 * leaf_r / bits});
      } else if (c >= 5) {
        w.groups.push_back(
            TrafficGroup{first, kLeaves / 2, 3.0 * leaf_r / bits});
        w.groups.push_back(TrafficGroup{first + kLeaves / 2, kLeaves / 4,
                                        0.3 * leaf_r / bits});
      }
    }
    os << "}\n";
  }
  w.tree_text = os.str();
  w.sessions = kClasses * kSubs * kLeaves;
  w.warmup_s = 1.0;
  return w;
}

// flat-edit: N sessions; heavy flows [0, H) hold half the link and are
// offered 1.2x behind cap=32 buffers; light flows [H, 2H) share the other
// half at load 0.9 (an eighth of them at 0.3x, the conforming cohort, and
// the rest at 0.986x); the remaining ~1M sessions are idle at 1 b/s each and
// only fill the flow table that validate_splice scans. (Spreading the light
// half over ~1M sessions would make one 1000 B packet take 17 s at its
// session's rate, and per-session waits run to minutes.) An editor
// re-weights heavy pairs in self-restoring pairs of batches.
Workload flat_edit(bool smoke) {
  Workload w;
  w.name = "flat-edit";
  w.scheduler = "wf2q+";
  w.packet_bytes = 1000;
  w.sessions = smoke ? 8192 : (1u << 20);
  w.edit_heavy = smoke ? 64 : 1024;
  const double link = smoke ? 100e6 : kLinkBps;
  w.link_bps = link;
  const double bits = 8.0 * w.packet_bytes;
  constexpr double kIdleBps = 1.0;
  const double idle = static_cast<double>(w.sessions - 2 * w.edit_heavy);
  const double half = 0.5 * (link - idle * kIdleBps);
  w.heavy_rate_bps = std::floor(half / static_cast<double>(w.edit_heavy));
  std::ostringstream os;
  os << "link " << rate(link) << '\n';
  for (std::size_t i = 0; i < w.sessions; ++i) {
    os << 's' << i << ' ';
    if (i < w.edit_heavy) {
      os << rate(w.heavy_rate_bps) << " flow=" << i << " cap=32\n";
    } else if (i < 2 * w.edit_heavy) {
      os << rate(w.heavy_rate_bps) << " flow=" << i << '\n';
    } else {
      os << rate(kIdleBps) << " flow=" << i << '\n';
    }
  }
  w.tree_text = os.str();
  const auto heavy = static_cast<std::uint32_t>(w.edit_heavy);
  w.groups.push_back(TrafficGroup{0, heavy, 1.2 * w.heavy_rate_bps / bits});
  const std::uint32_t cohort = heavy / 8;
  w.groups.push_back(
      TrafficGroup{heavy, cohort, 0.3 * w.heavy_rate_bps / bits});
  w.groups.push_back(TrafficGroup{heavy + cohort, heavy - cohort,
                                  (0.9 * 8.0 - 0.3) / 7.0 *
                                      w.heavy_rate_bps / bits});
  w.edit_period_s = 0.2;
  w.warmup_s = smoke ? 0.2 : 1.0;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  if (name == "hier-paced") {
    w = hier_paced();
  } else if (name == "flat-edit") {
    w = flat_edit(smoke);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::string edit_text(const Workload& w, std::uint64_t k, std::uint64_t seed) {
  // Both batches of pair p touch the same two heavy sessions a != b: the
  // first moves half of b's rate to a (the rate sum stays at the link
  // rate), the second restores both.
  const std::uint64_t p = k / 2;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + p);
  const auto heavy = static_cast<std::uint32_t>(w.edit_heavy);
  const std::uint32_t a = rng.below(heavy);
  const std::uint32_t b = (a + 1 + rng.below(heavy - 1)) % heavy;
  const bool up = k % 2 == 0;
  std::ostringstream os;
  os << 's' << a << ' ' << rate((up ? 1.5 : 1.0) * w.heavy_rate_bps) << '\n';
  os << 's' << b << ' ' << rate((up ? 0.5 : 1.0) * w.heavy_rate_bps) << '\n';
  return os.str();
}

serve::ServiceConfig service_config(const Workload& w) {
  serve::ServiceConfig cfg;
  cfg.num_shards = kShards;
  cfg.scheduler = w.scheduler;
  return cfg;
}

Stream::Stream(const Workload& w, std::uint64_t seed)
    : groups_(w.groups), bytes_(w.packet_bytes), rng_(seed) {
  for (const TrafficGroup& g : groups_) total_pps_ += g.pps_each * g.count;
  double acc = 0.0;
  for (const TrafficGroup& g : groups_) {
    acc += g.pps_each * g.count / total_pps_;
    cum_.push_back(acc);
  }
  cum_.back() = 1.0;
}

net::Packet Stream::next() noexcept {
  t_ += -std::log(rng_.unit()) / total_pps_;
  std::size_t g = 0;
  if (groups_.size() > 1) {
    const double u = rng_.unit();
    g = static_cast<std::size_t>(
        std::lower_bound(cum_.begin(), cum_.end(), u) - cum_.begin());
    if (g >= groups_.size()) g = groups_.size() - 1;
  }
  const TrafficGroup& grp = groups_[g];
  net::Packet p;
  p.id = ++id_;
  p.flow = grp.first_flow + rng_.below(grp.count);
  p.size_bytes = bytes_;
  p.created = t_;
  p.arrival = t_;
  return p;
}

Conformance::Conformance(const core::Hierarchy& tree, double sigma_bits,
                         double rate_scale)
    : sigma_(sigma_bits) {
  for (std::uint32_t i = 1; i < tree.size(); ++i) {
    const core::Hierarchy::NodeSpec& n = tree.node(i);
    if (!n.leaf) continue;
    if (n.flow >= b_.size()) b_.resize(n.flow + 1);
    b_[n.flow] = Bucket{n.rate_bps * rate_scale, sigma_bits, 0.0,
                        std::numeric_limits<double>::infinity()};
  }
}

void Conformance::observe(const net::Packet& p) {
  if (p.flow >= b_.size()) return;
  Bucket& b = b_[p.flow];
  b.tokens = std::min(sigma_, b.tokens + (p.created - b.last) * b.rate);
  b.last = p.created;
  b.tokens -= p.size_bits();
  b.active = true;
  if (b.tokens < 0.0) b.broken_at = std::min(b.broken_at, p.created);
}

bool Conformance::conforming(net::FlowId f, double t) const {
  return f < b_.size() && b_[f].broken_at > t;
}

std::uint64_t Conformance::conforming_active() const {
  return static_cast<std::uint64_t>(
      std::count_if(b_.begin(), b_.end(), [](const Bucket& b) {
        return b.active && std::isinf(b.broken_at);
      }));
}

}  // namespace perfbench
