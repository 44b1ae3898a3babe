// Clocks, memory probes, quantiles and the result line.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.h"

namespace perfbench {

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "RssAnon:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

bool print_result(const Result& r, const std::vector<std::string>& names) {
  for (const std::string& p : r.problems) {
    std::cerr << "servebench: gate: " << p << '\n';
  }
  bool correct = r.correct;
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": ";
  std::ostringstream ms;
  ms.precision(17);
  bool first = true;
  for (const std::string& name : names) {
    const auto it = r.metrics.find(name);
    if (it == r.metrics.end() || !std::isfinite(it->second.value)) {
      std::cerr << "servebench: metric " << name << " missing or not finite\n";
      correct = false;
      continue;
    }
    ms << (first ? "" : ", ");
    first = false;
    json_string(ms, name);
    ms << ": {\"value\": " << it->second.value << ", \"unit\": ";
    json_string(ms, it->second.unit);
    ms << '}';
  }
  os << (correct ? "true" : "false") << ", \"attempted\": "
     << std::max<std::uint64_t>(r.attempted, 1) << ", \"failed\": "
     << r.failed + (correct ? 0 : 1) << ", \"metrics\": {" << ms.str()
     << "}}";
  std::cout << os.str() << std::endl;
  return correct;
}

}  // namespace perfbench
