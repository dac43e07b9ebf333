#include "trace.hpp"

#include <algorithm>
#include <cstring>

#include "dcnas/obs/trace_export.hpp"

namespace perfbench {

int SpanLog::record(std::string name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t op, int parent,
                    std::string args) {
  if (!enabled_) return -1;
  BenchSpan s;
  s.name = std::move(name);
  s.start_us = ms_between(origin_, start) * 1000.0;
  s.dur_us = ms_between(start, end) * 1000.0;
  s.op = op;
  s.parent = parent;
  s.args = std::move(args);
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<BenchSpan> SpanLog::named(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<BenchSpan> out;
  for (const BenchSpan& s : spans_) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const BenchSpan& s : named(name)) out.push_back(s.dur_us / 1000.0);
  return out;
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::size_t SpanLog::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

namespace {

void copy_truncated(char* dst, std::size_t capacity, const std::string& src) {
  const std::size_t n = std::min(capacity - 1, src.size());
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::vector<dcnas::obs::SpanEvent> events;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    events.reserve(spans_.size());
    for (const BenchSpan& s : spans_) {
      dcnas::obs::SpanEvent e;
      copy_truncated(e.name, sizeof(e.name), s.name);
      copy_truncated(e.category, sizeof(e.category),
                     s.name.substr(0, s.name.find('.')));
      std::string args = "op=" + std::to_string(s.op);
      if (s.parent >= 0) args += ",parent=" + std::to_string(s.parent);
      if (!s.args.empty()) args += "," + s.args;
      copy_truncated(e.args, sizeof(e.args), args);
      e.start_ns = static_cast<std::uint64_t>(std::max(0.0, s.start_us) * 1e3);
      e.duration_ns = static_cast<std::uint64_t>(std::max(0.0, s.dur_us) * 1e3);
      // One Chrome-trace row per operation id keeps a request's spans
      // together; the exporter only needs a stable small integer.
      e.thread_id = static_cast<std::uint32_t>(s.op % 64 + 1);
      e.depth = s.parent >= 0 ? 1 : 0;
      events.push_back(e);
    }
  }
  dcnas::obs::write_chrome_trace(path, events);
}

}  // namespace perfbench
