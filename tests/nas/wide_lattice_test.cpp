#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "dcnas/common/rng.hpp"
#include "dcnas/nas/scheduler.hpp"
#include "dcnas/nas/search_space.hpp"
#include "dcnas/nas/store/trial_store.hpp"

namespace dcnas::nas {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() / ("dcnas_wide_test_" + name))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::string csv_text(const TrialDatabase& db) { return db.to_csv().to_string(); }

// ---- spec identity ----------------------------------------------------------

TEST(SearchSpaceSpecTest, PaperSpecReproducesLegacyEnumerationExactly) {
  const SearchSpaceSpec spec = SearchSpaceSpec::paper();
  spec.validate();
  // The historical enumeration, written out as the nested loops it was:
  // input combination outermost, then the seven architecture knobs.
  std::vector<TrialConfig> legacy;
  for (int ch : {5, 7})
    for (int b : {8, 16, 32})
      for (int k : {3, 7})
        for (int s : {1, 2})
          for (int p : {1, 2, 3})
            for (int pc : {0, 1})
              for (int pk : {2, 3})
                for (int ps : {1, 2})
                  for (int w : {32, 48, 64}) {
                    TrialConfig c;
                    c.channels = ch;
                    c.batch = b;
                    c.kernel_size = k;
                    c.stride = s;
                    c.padding = p;
                    c.pool_choice = pc;
                    c.kernel_size_pool = pk;
                    c.stride_pool = ps;
                    c.initial_output_feature = w;
                    legacy.push_back(c);
                  }
  ASSERT_EQ(legacy.size(), 1728u);
  ASSERT_EQ(spec.size(), static_cast<std::int64_t>(legacy.size()));
  // at(i) decodes index i to the exact config the historical enumeration
  // put at position i — the property that makes store/scheduler replays of
  // spec-driven sweeps byte-compatible with every pre-spec artifact.
  for (std::int64_t i = 0; i < spec.size(); ++i) {
    EXPECT_EQ(spec.at(i).lattice_key(), legacy[static_cast<std::size_t>(i)]
                                            .lattice_key())
        << "index " << i;
  }
}

TEST(SearchSpaceSpecTest, WideSpecSpans138240ConfigsAndContainsThePaper) {
  const SearchSpaceSpec wide = SearchSpaceSpec::wide();
  wide.validate();
  EXPECT_EQ(wide.size(), 138240);
  // Every paper lattice point is also a wide lattice point (the wide specs'
  // option lists are supersets), so a paper store can seed a wide sweep.
  for (const auto& config : SearchSpaceSpec::paper().enumerate()) {
    ASSERT_TRUE(wide.contains(config)) << config.lattice_key();
  }
  // ... but not vice versa.
  TrialConfig off_paper = TrialConfig::baseline(5, 8);
  off_paper.kernel_size = 1;
  off_paper.padding = 0;
  off_paper.depth = 3;
  EXPECT_TRUE(wide.contains(off_paper));
  EXPECT_FALSE(SearchSpaceSpec::paper().contains(off_paper));
}

TEST(SearchSpaceSpecTest, AtDecodesEveryIndexToAValidMemberConfig) {
  const SearchSpaceSpec wide = SearchSpaceSpec::wide();
  Rng rng(59);
  std::set<std::string> seen;
  for (int n = 0; n < 512; ++n) {
    const std::int64_t i = static_cast<std::int64_t>(
        rng.uniform_int(0, static_cast<int>(wide.size() - 1)));
    const TrialConfig config = wide.at(i);
    config.validate_universe();
    EXPECT_TRUE(wide.contains(config)) << "index " << i;
    seen.insert(config.lattice_key());
  }
  // Distinct indices decode to distinct configs (keys collide only when
  // indices repeat — overwhelmingly unlikely to drop below this bound).
  EXPECT_GT(seen.size(), 500u);
  EXPECT_THROW(wide.at(-1), InvalidArgument);
  EXPECT_THROW(wide.at(wide.size()), InvalidArgument);
}

TEST(SearchSpaceSpecTest, FingerprintIsStableAndDistinguishesLattices) {
  // Literal pins: the describe() layout and the fingerprint are stamped
  // into every TrialStore control file, so they are a persisted format.
  EXPECT_EQ(SearchSpaceSpec::paper().describe(),
            "dcnas-lattice v1;ch=5,7;b=8,16,32;k=3,7;s=1,2;p=1,2,3;pc=0,1;"
            "pk=2,3;ps=1,2;w=32,48,64;q=0;d=2;n=1728");
  EXPECT_EQ(SearchSpaceSpec::paper().fingerprint(), 0x66632136940ee5c1ULL);
  EXPECT_EQ(SearchSpaceSpec::wide().fingerprint(), 0x1024cdd9621cebbaULL);
  EXPECT_NE(SearchSpaceSpec::paper().fingerprint(),
            SearchSpaceSpec::wide().fingerprint());
  // Any dimension change changes the identity.
  SearchSpaceSpec tweaked = SearchSpaceSpec::paper();
  tweaked.widths.push_back(96);
  EXPECT_NE(tweaked.fingerprint(), SearchSpaceSpec::paper().fingerprint());
}

TEST(SearchSpaceSpecTest, ValidateRejectsMidListAndDuplicateOptions) {
  // An off-universe option between legal first and last options must fail
  // up front, not per trial once a sweep is under way.
  SearchSpaceSpec mid = SearchSpaceSpec::paper();
  mid.kernels = {3, 4, 7};
  EXPECT_THROW(mid.validate(), InvalidArgument);
  EXPECT_THROW(LatticeStream{mid}, InvalidArgument);
  // A repeated option would evaluate every point it spans twice.
  SearchSpaceSpec dup = SearchSpaceSpec::paper();
  dup.kernels = {3, 3, 7};
  EXPECT_THROW(dup.validate(), InvalidArgument);
  SearchSpaceSpec empty = SearchSpaceSpec::paper();
  empty.widths.clear();
  EXPECT_THROW(empty.validate(), InvalidArgument);
  EXPECT_NO_THROW(SearchSpaceSpec::paper().validate());
  EXPECT_NO_THROW(SearchSpaceSpec::wide().validate());
}

// ---- streaming --------------------------------------------------------------

TEST(LatticeStreamTest, StrideShardsPartitionTheLattice) {
  const SearchSpaceSpec spec = SearchSpaceSpec::paper();
  const int shards = 3;
  std::set<std::string> seen;
  std::int64_t yielded = 0;
  for (int w = 0; w < shards; ++w) {
    LatticeStream stream(spec, w, shards);
    while (auto config = stream.next()) {
      EXPECT_TRUE(seen.insert(config->lattice_key()).second)
          << "shard overlap at " << config->lattice_key();
      ++yielded;
    }
  }
  // Disjoint shards that together cover every lattice point exactly once.
  EXPECT_EQ(yielded, spec.size());
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), spec.size());
}

TEST(LatticeStreamTest, TotalReportsShardSize) {
  const SearchSpaceSpec spec = SearchSpaceSpec::paper();
  LatticeStream whole(spec);
  EXPECT_EQ(whole.total(), spec.size());
  LatticeStream shard(spec, 1, 5);
  std::int64_t count = 0;
  while (shard.next()) ++count;
  EXPECT_EQ(count, LatticeStream(spec, 1, 5).total());
}

// ---- streamed scheduling parity ---------------------------------------------

TEST(StreamedSchedulerTest, StreamedStoreRunMatchesSerialByteForByte) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  // A small sub-lattice keeps the test quick while spanning off-paper
  // dimensions (1x1 kernels, depth 1/3, int8) the wide lattice adds.
  SearchSpaceSpec spec;
  spec.channels = {5};
  spec.batches = {8, 16};
  spec.kernels = {1, 3};
  spec.strides = {1};
  spec.paddings = {0};
  spec.pool_choices = {1};
  spec.pool_kernels = {2};
  spec.pool_strides = {1};
  spec.widths = {32};
  spec.precisions = {0, 1};
  spec.depths = {1, 3};
  spec.validate();
  ASSERT_EQ(spec.size(), 16);

  const std::string serial = csv_text(exp.run_all(spec.enumerate()));
  const TempDir dir("stream_parity");
  SchedulerOptions opt;
  opt.threads = 2;
  opt.store_dir = dir.str();
  opt.fsync_store = false;
  opt.store_fingerprint = spec.fingerprint();
  {
    TrialScheduler scheduler(exp, opt);
    LatticeStream stream(spec);
    const SchedulerStats stats = scheduler.run_streamed(stream);
    EXPECT_EQ(stats.scheduled, static_cast<std::size_t>(spec.size()));
    EXPECT_EQ(stats.completed, static_cast<std::size_t>(spec.size()));
    EXPECT_EQ(stats.resumed, 0u);
  }
  TrialStoreOptions sopt;
  sopt.lattice_fingerprint = spec.fingerprint();
  sopt.fsync_each = false;
  const TrialStore store(dir.str(), sopt);
  EXPECT_EQ(csv_text(store.assemble(spec.enumerate())), serial);

  // A second streamed run over the same store resumes every trial.
  TrialScheduler again(exp, opt);
  LatticeStream stream(spec);
  const SchedulerStats stats = again.run_streamed(stream);
  EXPECT_EQ(stats.resumed, static_cast<std::size_t>(spec.size()));
  EXPECT_EQ(stats.scheduled, 0u);
}

TEST(StreamedSchedulerTest, RunStreamedRequiresAStore) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  TrialScheduler scheduler(exp, {});
  LatticeStream stream(SearchSpaceSpec::paper());
  EXPECT_THROW(scheduler.run_streamed(stream), InvalidArgument);
}

TEST(StreamedSchedulerTest, VectorRunWithStoreMatchesStreamedRun) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  auto configs = SearchSpaceSpec::paper().enumerate();
  Rng rng(37);
  rng.shuffle(configs);
  configs.resize(16);

  const TempDir vec_dir("vec_store");
  const TempDir str_dir("str_store");
  SchedulerOptions opt;
  opt.threads = 2;
  opt.fsync_store = false;
  opt.store_dir = vec_dir.str();
  TrialScheduler vec_scheduler(exp, opt);
  const std::string via_run = csv_text(vec_scheduler.run(configs));

  opt.store_dir = str_dir.str();
  TrialScheduler str_scheduler(exp, opt);
  VectorStream stream(configs);
  str_scheduler.run_streamed(stream);
  TrialStoreOptions sopt;
  sopt.fsync_each = false;
  const TrialStore store(str_dir.str(), sopt);
  EXPECT_EQ(csv_text(store.assemble(configs)), via_run);
  EXPECT_EQ(via_run, csv_text(exp.run_all(configs)));
}

}  // namespace
}  // namespace dcnas::nas
