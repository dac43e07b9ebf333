#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "dcnas/common/rng.hpp"

namespace perfbench {

std::vector<double> poisson_schedule(double rate_per_s, double seconds,
                                     std::uint64_t seed) {
  std::vector<double> offsets;
  if (rate_per_s <= 0.0 || seconds <= 0.0) return offsets;
  dcnas::Rng rng(seed);
  const double mean_gap_ms = 1000.0 / rate_per_s;
  double t = 0.0;
  for (;;) {
    // Inverse-CDF exponential draw from the repo's portable generator, so a
    // seed gives the same schedule on every platform.
    t += -std::log1p(-rng.uniform()) * mean_gap_ms;
    if (t >= seconds * 1000.0) break;
    offsets.push_back(t);
  }
  return offsets;
}

LoadSummary account(const std::vector<RequestRecord>& records,
                    double limit_ms) {
  LoadSummary s;
  s.attempted = records.size();
  constexpr double kMiss = std::numeric_limits<double>::infinity();
  std::vector<double> sojourn, gen_late;
  sojourn.reserve(records.size());
  double first = std::numeric_limits<double>::infinity();
  double last = 0.0;
  for (const RequestRecord& r : records) {
    first = std::min(first, r.scheduled_ms);
    last = std::max({last, r.done_ms, r.scheduled_ms});
    gen_late.push_back(r.sent_ms - r.scheduled_ms);
    switch (r.outcome) {
      case Outcome::kOk: {
        ++s.ok;
        const double t = r.done_ms - r.scheduled_ms;
        if (t <= limit_ms) {
          ++s.ok_within;
        } else {
          ++s.late;
        }
        sojourn.push_back(t);
        break;
      }
      case Outcome::kRefused:
        ++s.refused;
        sojourn.push_back(kMiss);
        break;
      case Outcome::kFailed:
        ++s.failed;
        sojourn.push_back(kMiss);
        break;
    }
  }
  if (!records.empty()) s.elapsed_s = (last - first) / 1000.0;
  if (s.elapsed_s > 0.0) {
    s.goodput_per_s = static_cast<double>(s.ok_within) / s.elapsed_s;
    s.throughput_per_s = static_cast<double>(s.ok) / s.elapsed_s;
  }
  const std::size_t quarter = sojourn.size() / 4;
  if (quarter > 0) {
    double sum = 0.0;
    for (std::size_t i = sojourn.size() - quarter; i < sojourn.size(); ++i) {
      sum += sojourn[i];
    }
    s.backlog_grew = sum / static_cast<double>(quarter) > limit_ms;
  }
  s.sojourn_p99_ms = percentile_or_tail(sojourn, 0.99);
  s.sojourn_ms = percentiles(std::move(sojourn));
  s.gen_late_p99_ms = percentile_or_tail(gen_late, 0.99);
  s.gen_late_ms = percentiles(std::move(gen_late));
  return s;
}

std::size_t max_sender_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<RequestRecord> run_open_loop(const std::vector<double>& schedule,
                                         std::size_t connections,
                                         const SendFn& send,
                                         Clock::time_point* origin) {
  std::vector<RequestRecord> records(schedule.size());
  const std::size_t senders =
      std::clamp<std::size_t>(connections, 1, max_sender_threads());
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  const Clock::time_point start = Clock::now();
  if (origin != nullptr) *origin = start;
  const auto at = [&](double ms) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
  };
  const auto worker = [&](std::size_t conn) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= schedule.size()) return;
      RequestRecord& r = records[i];
      r.scheduled_ms = schedule[i];
      std::this_thread::sleep_until(at(schedule[i]));
      r.sent_ms = ms_between(start, Clock::now());
      try {
        r.outcome = send(conn, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        next.store(schedule.size());
        return;
      }
      r.done_ms = ms_between(start, Clock::now());
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(senders);
  for (std::size_t c = 0; c < senders; ++c) threads.emplace_back(worker, c);
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  return records;
}

}  // namespace perfbench
