// Shared pieces of the service benchmark: command-line arguments, workload
// definitions, the seeded packet stream, clocks, memory probes and the
// metric sheet every mode fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "net/packet.h"
#include "serve/service.h"

namespace perfbench {

namespace core = hfq::core;
namespace fluid = hfq::fluid;
namespace net = hfq::net;
namespace serve = hfq::serve;
namespace telemetry = hfq::telemetry;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // shrunk workload (small N, short run) for self-tests
  std::string out_dir = ".bench_build";  // span files (trace mode)
};

// One set of sessions whose superposed Poisson arrivals share a rate:
// flows [first_flow, first_flow + count), each offering `pps_each`.
struct TrafficGroup {
  net::FlowId first_flow = 0;
  std::uint32_t count = 0;
  double pps_each = 0.0;
};

struct Workload {
  std::string name;
  std::string tree_text;
  std::string scheduler;
  std::uint32_t packet_bytes = 1000;
  double link_bps = 1e9;
  std::size_t sessions = 0;
  std::vector<TrafficGroup> groups;
  // Interior nodes whose measured/ideal service is compared (hier-paced).
  bool share_check = false;
  // Live edits (flat-edit): period between batches and what they touch.
  double edit_period_s = 0.0;
  std::size_t edit_heavy = 0;        // heavy sessions are flows [0, heavy)
  double heavy_rate_bps = 0.0;
  double warmup_s = 0.5;
};

[[nodiscard]] Workload make_workload(const std::string& name, bool smoke);

// The edit batch with ordinal `k` (even: perturb, odd: restore).
[[nodiscard]] std::string edit_text(const Workload& w, std::uint64_t k,
                                    std::uint64_t seed);

// The deployed service configuration for a workload: everything at its
// default (paced) except shard count and scheduler key.
[[nodiscard]] serve::ServiceConfig service_config(const Workload& w);
inline constexpr std::size_t kShards = 2;

// splitmix64: the stream's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in (0, 1].
  double unit() noexcept {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }
  std::uint32_t below(std::uint32_t n) noexcept {
    return static_cast<std::uint32_t>(((next() >> 32) * n) >> 32);
  }

 private:
  std::uint64_t s_;
};

// The seeded arrival stream: the superposition of every group's Poisson
// process. O(1) per packet (group pick over a short cumulative table, one
// uniform session pick, one exponential gap), so it can run inside the timed
// window without bounding capacity. Times are seconds from the origin.
class Stream {
 public:
  Stream(const Workload& w, std::uint64_t seed);
  net::Packet next() noexcept;

 private:
  std::vector<TrafficGroup> groups_;
  std::vector<double> cum_;  // cumulative group rate share
  double total_pps_ = 0.0;
  std::uint32_t bytes_ = 0;
  Rng rng_;
  double t_ = 0.0;
  std::uint64_t id_ = 0;
};

// (sigma, rho) conformance of every flow's offered stream, judged by a token
// bucket with the bound monitor's burst allowance at `rate_scale` times the
// session's rate: records when each flow first exceeded its envelope.
class Conformance {
 public:
  Conformance(const core::Hierarchy& tree, double sigma_bits,
              double rate_scale);
  void observe(const net::Packet& p);
  // True when flow `f` stayed within its envelope up to time `t`.
  [[nodiscard]] bool conforming(net::FlowId f, double t) const;
  // Sessions that offered traffic and never left their envelope.
  [[nodiscard]] std::uint64_t conforming_active() const;

 private:
  struct Bucket {
    double rate = 0.0;
    double tokens = 0.0;
    double last = 0.0;
    double broken_at = 0.0;  // first excess; +inf while conforming
    bool active = false;     // offered at least one packet
  };
  std::vector<Bucket> b_;
  double sigma_;
};

// --- clocks and probes -----------------------------------------------------

using Clock = std::chrono::steady_clock;
[[nodiscard]] inline double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();  // calling thread
[[nodiscard]] double rss_mb();   // resident anonymous memory
[[nodiscard]] double heap_mb();  // bytes allocated through malloc

// --- metrics ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Name -> value sheet plus the gate verdict; printed as the final JSON line.
struct Result {
  std::map<std::string, Metric> metrics;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double quantile(std::vector<double> v, double q);

// Writes `r` as one JSON line on stdout (problems go to stderr first).
// Returns the verdict printed: false also when a named metric is missing.
bool print_result(const Result& r, const std::vector<std::string>& names);

}  // namespace perfbench
