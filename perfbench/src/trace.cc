#include "trace.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

int Tracer::open(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.op = op;
  s.parent = stack_.empty() ? -1 : stack_.back();
  const int id = static_cast<int>(spans_.size());
  stack_.push_back(id);
  s.start_s = now_s();
  spans_.push_back(s);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(s.duration_s());
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_times(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,"
                 "\"op\":%" PRIu64 ",\"self_s\":%.9f}\n",
                 i, s.name, s.start_s, s.end_s, s.parent, s.op, self[i]);
  }
  return std::fclose(f) == 0;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
      children[static_cast<std::size_t>(p)].push_back(i);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> iv;
    for (const std::size_t c : children[i]) {
      const double a = std::max(spans[c].start_s, s.start_s);
      const double b = std::min(spans[c].end_s, s.end_s);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0, cur_b = 0.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = s.duration_s() - covered;
  }
  return out;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) { return percentile(values, 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

double best_rate(const std::vector<double>& rates) {
  return rates.empty() ? 0.0 : *std::max_element(rates.begin(), rates.end());
}

std::size_t samples_beyond(std::size_t n, double pct) {
  // Beyond p means ranked strictly above the p-quantile position; with
  // n samples that is floor(n * (1 - p/100)) of them.
  const double beyond = static_cast<double>(n) * (1.0 - pct / 100.0);
  return static_cast<std::size_t>(std::floor(beyond + 1e-9));
}

TailPercentile highest_tail(const std::vector<double>& values) {
  TailPercentile t;
  t.samples = values.size();
  for (const double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (samples_beyond(values.size(), pct) >= 10) {
      t.pct = pct;
      t.value = percentile(values, pct / 100.0);
      return t;
    }
  }
  return t;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

}  // namespace perfbench
