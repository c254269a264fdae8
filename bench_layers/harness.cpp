#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace bench_layers {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Full precision, so a value is reported with all its digits. JSON has no
// NaN/Inf; those become null (and fail the run's checks elsewhere).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      if (!(a.seconds > 0.0) || a.seconds > 3600.0) {
        throw std::invalid_argument("--seconds must be in (0, 3600]");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out = val;
    } else if (key == "--chrome-trace") {
      a.chrome_trace = val;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

namespace {

static_assert(kPoolThreads == 2, "Reference runs one helper thread beside the caller");
constexpr int kRefBlock = 256;    // floats: 1 KiB, L1-resident
constexpr int kRefRounds = 3500;  // about 1 ms per lane

const std::vector<double>& find_or_empty(const std::map<std::string, std::vector<double>>& m,
                                         const std::string& name) {
  static const std::vector<double> kEmpty;
  const auto it = m.find(name);
  return it == m.end() ? kEmpty : it->second;
}

}  // namespace

Reference::Reference() : helper_([this] { helper_main(); }) {}

Reference::~Reference() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  helper_.join();
}

void Reference::helper_main() {
  std::uint64_t round = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || go_ != round; });
      if (stop_) return;
      round = go_;
    }
    kernel(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = round;
    }
    cv_.notify_all();
  }
}

double Reference::measure_ms() {
  const std::uint64_t t0 = nufft::now_ns();
  std::uint64_t round = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    round = ++go_;
  }
  cv_.notify_all();
  kernel(0);
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ == round; });
  }
  const double ms = static_cast<double>(nufft::now_ns() - t0) * 1e-6;
  samples_.push_back(ms);
  return ms;
}

void Reference::kernel(int lane) {
  // Each round maps every x to half a degree-8 polynomial of itself; the
  // values settle near 0.18, so no denormal or overflow ever slows a round.
  float block[kRefBlock];
  const float seed = seed_;
  for (int i = 0; i < kRefBlock; ++i) block[i] = seed * static_cast<float>(i);
  for (int r = 0; r < kRefRounds; ++r) {
    for (float& x : block) {
      float p = 0.1f;
      for (int k = 0; k < 8; ++k) p = p * x + 0.3f;
      x = p * 0.5f;
    }
  }
  float sum = 0.0f;
  for (const float x : block) sum += x;
  sink_[lane] = sum;
}

void LayerLog::commit(double speed) {
  for (const auto& ev : nufft::obs::drain_spans()) {
    if (std::strcmp(ev.cat, "bench") != 0) continue;
    events_.push_back(ev);
    spans_[ev.name].push_back(static_cast<double>(ev.t1_ns - ev.t0_ns) * 1e-6 * speed);
  }
  for (const auto& [name, ms] : pending_ms_) values_[name].push_back(ms * speed);
  pending_ms_.clear();
}

const std::vector<double>& LayerLog::span_ms(const std::string& name) const {
  return find_or_empty(spans_, name);
}

const std::vector<double>& LayerLog::values(const std::string& name) const {
  return find_or_empty(values_, name);
}

nufft::datasets::SampleSet jitter(const nufft::datasets::SampleSet& base,
                                  const nufft::datasets::SampleSet& prev, double fraction,
                                  nufft::Rng& rng) {
  nufft::datasets::SampleSet out = prev;
  const auto count = static_cast<std::size_t>(base.count());
  const auto top = std::nextafter(static_cast<float>(base.m), 0.0f);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.uniform() >= fraction) continue;
    for (int d = 0; d < base.dim; ++d) {
      const auto dd = static_cast<std::size_t>(d);
      const auto x = base.coords[dd][i] + static_cast<float>(rng.uniform(-0.25, 0.25));
      out.coords[dd][i] = std::clamp(x, 0.0f, top);
    }
  }
  return out;
}

cvecf random_values(index_t n, nufft::Rng& rng) {
  cvecf v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = cfloat(static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1)));
  }
  return v;
}

double rel_l2(const cfloat* a, const cdouble* ref, index_t n) {
  double num = 0.0;
  double den = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const cdouble x(a[i].real(), a[i].imag());
    num += std::norm(x - ref[i]);
    den += std::norm(ref[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

bool bit_identical(const cfloat* a, const cfloat* b, index_t n) {
  return n == 0 || std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(cfloat)) == 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string pin_to_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "unpinned";
  cpu_set_t want;
  CPU_ZERO(&want);
  std::string list;
  int picked = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && picked < kPoolThreads; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &want);
    list = std::to_string(c) + (picked == 0 ? "" : ",") + list;
    ++picked;
  }
  if (picked == 0 || sched_setaffinity(0, sizeof(want), &want) != 0) return "unpinned";
  return list;
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::check(const std::string& name, bool ok, double value, double limit) {
  checks_.push_back({name, ok, value, limit});
}

void Report::context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, json_string(value));
}

void Report::context(const std::string& key, double value) {
  context_.emplace_back(key, json_number(value));
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ = attempted;
  failed_ = failed;
}

bool Report::correct() const {
  if (failed_ != 0) return false;
  for (const auto& c : checks_) {
    if (!c.ok) return false;
  }
  for (const auto& m : metrics_) {
    if (!std::isfinite(m.value)) return false;
  }
  return true;
}

std::string Report::result_line() const {
  std::uint64_t failed_checks = 0;
  for (const auto& c : checks_) failed_checks += c.ok ? 0 : 1;
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_ + checks_.size());
  out += ", \"failed\": " + std::to_string(failed_ + failed_checks);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    if (i != 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

std::string Report::detail_json() const {
  std::string out = "{\n";
  for (const auto& [k, v] : context_) out += "  " + json_string(k) + ": " + v + ",\n";
  out += "  \"correct\": " + std::string(correct() ? "true" : "false") + ",\n";
  out += "  \"ops_attempted\": " + std::to_string(attempted_) + ",\n";
  out += "  \"ops_failed\": " + std::to_string(failed_) + ",\n";
  out += "  \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    " + json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  out += "\n  },\n  \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const auto& c = checks_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + json_string(c.name) + ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"value\": " + json_number(c.value) + ", \"limit\": " + json_number(c.limit) + "}";
  }
  return out + "\n  ]\n}\n";
}

std::string Report::check_summary() const {
  std::string out;
  for (const auto& c : checks_) {
    char line[256];
    std::snprintf(line, sizeof(line), "  check %-28s %s  value %.6g  limit %.6g\n",
                  c.name.c_str(), c.ok ? "ok  " : "FAIL", c.value, c.limit);
    out += line;
  }
  return out;
}

}  // namespace bench_layers
