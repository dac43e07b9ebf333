// Tests for the benchmark's own pieces: percentile reporting, open-loop
// accounting, seeded inputs, metric names and the load generator's
// thread/connection cap. Run with `python3 perfbench/run.py --selftest`.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "load.hpp"
#include "model.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentiles, ReportsHighestWithTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond; p99.9 leaves 1.
  Percentiles p = percentiles(one_to(1000));
  EXPECT_EQ(p.count, 1000u);
  EXPECT_DOUBLE_EQ(p.tail_q, 0.99);
  EXPECT_DOUBLE_EQ(p.tail, 990.0);
  EXPECT_DOUBLE_EQ(p.p50, 500.5);
  EXPECT_EQ(p.tail_label(), "p99");

  // 999 samples: p99 would leave 9, so p95 is reported.
  p = percentiles(one_to(999));
  EXPECT_DOUBLE_EQ(p.tail_q, 0.95);
  EXPECT_EQ(p.count, 999u);

  // 10,000 samples support p99.9.
  EXPECT_DOUBLE_EQ(percentiles(one_to(10000)).tail_q, 0.999);

  // Too few for any tail: only the median.
  p = percentiles(one_to(30));
  EXPECT_EQ(p.tail_q, 0.0);
  EXPECT_EQ(p.tail_label(), "-");
}

TEST(Percentiles, NamedPercentileFallsBackToSupportedTail) {
  EXPECT_DOUBLE_EQ(percentile_or_tail(one_to(1000), 0.99), 990.0);
  // 200 samples cannot support p99; the p95 (10 beyond) is reported.
  EXPECT_DOUBLE_EQ(percentile_or_tail(one_to(200), 0.99), 190.0);
}

RequestRecord rec(double sched, double sent, double done, Outcome o) {
  return RequestRecord{sched, sent, done, o};
}

TEST(LoadAccounting, GoodputCountsOnlyOkWithinLimitFromScheduledSend) {
  const double limit = 25.0;
  const std::vector<RequestRecord> records = {
      rec(0, 0, 10, Outcome::kOk),          // within
      rec(10, 30, 40, Outcome::kOk),        // 30 ms from schedule: late,
                                            // though only 10 ms from send
      rec(20, 20, 45, Outcome::kOk),        // exactly at the limit: within
      rec(30, 30, 31, Outcome::kRefused),   // refused: a miss
      rec(50, 50, 70, Outcome::kFailed),    // failed: a miss and a failure
  };
  const LoadSummary s = account(records, limit);
  EXPECT_EQ(s.attempted, 5u);
  EXPECT_EQ(s.ok, 3u);
  EXPECT_EQ(s.ok_within, 2u);
  EXPECT_EQ(s.late, 1u);
  EXPECT_EQ(s.refused, 1u);
  EXPECT_EQ(s.failed, 1u);
  // Elapsed is first scheduled send (0) to the last response (70 ms), not
  // a nominal duration.
  EXPECT_DOUBLE_EQ(s.elapsed_s, 0.070);
  EXPECT_DOUBLE_EQ(s.goodput_per_s, 2.0 / 0.070);
  EXPECT_DOUBLE_EQ(s.throughput_per_s, 3.0 / 0.070);
  // Misses read +inf in the latency distribution, above every answer:
  // sorted 10, 25, 30, inf, inf.
  EXPECT_EQ(s.sojourn_ms.count, 5u);
  EXPECT_DOUBLE_EQ(s.sojourn_ms.p50, 30.0);
  // Generator lateness: 0, 20, 0, 0, 0.
  EXPECT_EQ(s.gen_late_ms.count, 5u);
  EXPECT_DOUBLE_EQ(s.gen_late_ms.p50, 0.0);
}

TEST(LoadAccounting, MissesSitAboveEveryAnsweredRequest) {
  std::vector<RequestRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(rec(i, i, i + 5, i % 2 == 0 ? Outcome::kOk
                                                  : Outcome::kRefused));
  }
  const LoadSummary s = account(records, 25.0);
  EXPECT_TRUE(std::isinf(s.sojourn_ms.tail));
  EXPECT_EQ(s.ok_within, 50u);
  EXPECT_TRUE(s.backlog_grew);  // the last quarter holds misses
}

TEST(LoadAccounting, SteadyRunHasNoBacklog) {
  std::vector<RequestRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(rec(i * 10.0, i * 10.0, i * 10.0 + 3, Outcome::kOk));
  }
  const LoadSummary s = account(records, 25.0);
  EXPECT_FALSE(s.backlog_grew);
  EXPECT_EQ(s.ok_within, 100u);
  EXPECT_NEAR(s.goodput_per_s, 100.0 / 0.993, 1e-9);
}

TEST(Seeding, SameSeedSameScheduleDifferentSeedDifferent) {
  const auto a = poisson_schedule(300.0, 2.0, 7);
  const auto b = poisson_schedule(300.0, 2.0, 7);
  const auto c = poisson_schedule(300.0, 2.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Rate is honoured: about 600 arrivals, within 5 sigma.
  EXPECT_NEAR(static_cast<double>(a.size()), 600.0, 5.0 * std::sqrt(600.0));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 2000.0);
}

TEST(Seeding, SameSeedSameChipsDifferentSeedDifferent) {
  const dcnas::Tensor a = tile_chips(3, 64, 8);
  const dcnas::Tensor b = tile_chips(3, 64, 8);
  const dcnas::Tensor c = tile_chips(4, 64, 8);
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(a.shape(), c.shape());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()));
  EXPECT_NE(0, std::memcmp(a.data(), c.data(), sizeof(float) * a.numel()));
}

TEST(Metrics, EveryNameIsLegalAndUnique) {
  std::set<std::string> seen;
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *table) {
      EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      EXPECT_FALSE(std::string(m.unit).empty()) << m.name;
    }
  }
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/not"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name("plan.stage.s4.us_per_img.b1"));
}

TEST(Metrics, ResultLineCarriesEveryMetricOfItsKind) {
  RunResult r;
  r.attempted = 3;
  for (const MetricSpec& m : end_to_end_metrics()) r.end_to_end[m.name] = 1.5;
  r.per_layer["plan.exec.allocs"] = 2;
  const std::string e2e = result_json(r, false);
  for (const MetricSpec& m : end_to_end_metrics()) {
    EXPECT_NE(e2e.find(std::string("\"") + m.name + "\""), std::string::npos);
  }
  EXPECT_EQ(e2e.find("plan.exec.allocs"), std::string::npos);
  EXPECT_NE(e2e.find("\"correct\": true"), std::string::npos);
  const std::string layers = result_json(r, true);
  for (const MetricSpec& m : per_layer_metrics()) {
    EXPECT_NE(layers.find(std::string("\"") + m.name + "\""),
              std::string::npos);
  }
  r.fail("bad output");
  EXPECT_NE(result_json(r, false).find("\"correct\": false"),
            std::string::npos);
  r.end_to_end.erase("setup_s");
  EXPECT_THROW(result_json(r, false), std::logic_error);
  r.per_layer["not.a.listed.metric"] = 1;
  EXPECT_THROW(result_json(r, true), std::logic_error);
}

TEST(LoadGenerator, NeverExceedsCoresInThreadsOrConnections) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(max_sender_threads(), cores);
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::set<std::size_t> conns;
  const auto schedule = poisson_schedule(2000.0, 0.2, 1);
  const auto records = run_open_loop(
      schedule, 64, [&](std::size_t conn, std::size_t) {
        const std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
        conns.insert(conn);
        return Outcome::kOk;
      });
  EXPECT_EQ(records.size(), schedule.size());
  EXPECT_LE(threads.size(), cores);
  EXPECT_LE(conns.size(), cores);
  for (const std::size_t c : conns) EXPECT_LT(c, cores);
}

TEST(LoadGenerator, SendsLateArrivalsAndTimesThemFromTheSchedule) {
  // One connection, each request takes 20 ms, arrivals every 1 ms: every
  // arrival after the first finds the connection busy, is still sent, and
  // is charged the wait.
  std::vector<double> schedule;
  for (int i = 0; i < 10; ++i) schedule.push_back(i);
  const auto records = run_open_loop(schedule, 1,
                                     [](std::size_t, std::size_t) {
                                       std::this_thread::sleep_for(
                                           std::chrono::milliseconds(20));
                                       return Outcome::kOk;
                                     });
  const LoadSummary s = account(records, 25.0);
  EXPECT_EQ(s.ok, s.attempted);
  EXPECT_EQ(s.ok_within, 1u);  // only the first makes 25 ms
  for (std::size_t i = 0; i < records.size(); ++i) {
    // Arrival i waits for the i answers before it: about 20 i - i ms.
    EXPECT_GE(records[i].sent_ms - records[i].scheduled_ms, 19.0 * i);
    EXPECT_GE(records[i].done_ms - records[i].scheduled_ms, 20.0);
  }
  EXPECT_GE(s.gen_late_ms.p50, 19.0 * 4);
}

TEST(LoadGenerator, SenderErrorsPropagateAfterAllThreadsStop) {
  const auto schedule = poisson_schedule(1000.0, 0.05, 2);
  EXPECT_THROW(run_open_loop(schedule, 4,
                             [](std::size_t, std::size_t i) -> Outcome {
                               if (i == 3) throw std::runtime_error("boom");
                               return Outcome::kOk;
                             }),
               std::runtime_error);
}

TEST(OutputCheck, OneWrongWireAnswerFailsTheRun) {
  dcnas::Tensor reference = dcnas::Tensor::zeros({2, 2});
  reference[0] = 1.0f;  // row 0: class 0
  reference[3] = 1.0f;  // row 1: class 1
  std::map<dcnas::serve::RejectReason, std::int64_t> refused;
  RunResult r;
  for (const MetricSpec& m : end_to_end_metrics()) r.end_to_end[m.name] = 1.0;

  dcnas::serve::WireResponse good;
  good.output = dcnas::Tensor::zeros({1, 2});
  good.output[1] = 1.0f;
  EXPECT_EQ(check_wire_response(good, reference, 1, r, refused), Outcome::kOk);
  dcnas::serve::WireResponse shed;
  shed.status = dcnas::serve::WireStatus::kShedOverload;
  EXPECT_EQ(check_wire_response(shed, reference, 1, r, refused),
            Outcome::kRefused);
  EXPECT_EQ(refused[dcnas::serve::RejectReason::kShedOverload], 1);
  EXPECT_NE(result_json(r, false).find("\"correct\": true"),
            std::string::npos);

  // The right answer for row 1 sent for row 0: off by a whole logit.
  EXPECT_EQ(check_wire_response(good, reference, 0, r, refused),
            Outcome::kFailed);
  EXPECT_EQ(r.check_failures.size(), 1u);
  EXPECT_NE(result_json(r, false).find("\"correct\": false"),
            std::string::npos);

  // A row of the wrong width fails too.
  dcnas::serve::WireResponse wide;
  wide.output = dcnas::Tensor::zeros({1, 3});
  EXPECT_EQ(check_wire_response(wide, reference, 0, r, refused),
            Outcome::kFailed);
  EXPECT_EQ(r.check_failures.size(), 2u);
}

}  // namespace
}  // namespace perfbench
