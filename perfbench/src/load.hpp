#pragma once
/// \file load.hpp
/// \brief Open-loop load generation and its accounting.
///
/// Arrivals follow one seeded Poisson schedule at a fixed absolute rate.
/// At most `connections` sender threads (never more than the host's cores)
/// take arrivals in schedule order, each sleeping until its arrival is due,
/// so an arrival waits only when every connection is busy. Each request is
/// timed from its *scheduled* send, which charges that wait to the system.
/// Every arrival is sent, however late: past capacity the backlog shows as
/// late answers, never as dropped work.

#include <cstdint>
#include <functional>
#include <vector>

#include "util.hpp"

namespace perfbench {

/// Offsets (ms from the run start) of Poisson arrivals at \p rate_per_s
/// over \p seconds. Same seed, same schedule.
std::vector<double> poisson_schedule(double rate_per_s, double seconds,
                                     std::uint64_t seed);

enum class Outcome : std::uint8_t {
  kOk,       ///< answered with a correct output
  kRefused,  ///< refused or shed by the server (a typed reject)
  kFailed,   ///< transport/internal error or a wrong output
};

/// One arrival's fate. Times are ms from the run start.
struct RequestRecord {
  double scheduled_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
  Outcome outcome = Outcome::kFailed;
};

/// The accounting of one open-loop run against a latency limit.
struct LoadSummary {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t ok_within = 0;  ///< ok and done - scheduled <= limit
  std::size_t late = 0;       ///< ok but past the limit
  std::size_t refused = 0;
  std::size_t failed = 0;
  /// First scheduled send to the last response.
  double elapsed_s = 0.0;
  double goodput_per_s = 0.0;     ///< ok_within / elapsed_s
  double throughput_per_s = 0.0;  ///< ok / elapsed_s, late ones included
  /// scheduled -> response over all attempted; refused and failed
  /// requests read +inf (they missed any limit).
  Percentiles sojourn_ms;
  double sojourn_p99_ms = 0.0;  ///< percentile_or_tail(sojourn, 0.99)
  Percentiles gen_late_ms;  ///< scheduled -> actually sent
  double gen_late_p99_ms = 0.0;
  /// True when the last quarter's mean sojourn exceeds the limit: the
  /// queue grew through the run instead of settling.
  bool backlog_grew = false;
};

LoadSummary account(const std::vector<RequestRecord>& records,
                    double limit_ms);

/// Sends one arrival (index into the schedule) on connection \p conn and
/// returns its outcome. Called from sender threads; one connection is only
/// ever used by one thread.
using SendFn = std::function<Outcome(std::size_t conn, std::size_t arrival)>;

/// Drives \p schedule open-loop over \p connections senders (clamped to
/// max_sender_threads()). Returns one record per arrival, in schedule
/// order. \p origin, when given, receives the run's time origin. An
/// exception from \p send propagates after every sender has stopped.
std::vector<RequestRecord> run_open_loop(const std::vector<double>& schedule,
                                         std::size_t connections,
                                         const SendFn& send,
                                         Clock::time_point* origin = nullptr);

/// The most sender threads (and so connections) a load run may use: the
/// host's core count, at least 1.
std::size_t max_sender_threads();

}  // namespace perfbench
