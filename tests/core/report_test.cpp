#include "dcnas/core/report.hpp"

#include <gtest/gtest.h>

namespace dcnas::core {
namespace {

SweepResult small_sweep() {
  HwNasPipeline pipe;
  std::vector<nas::TrialConfig> configs;
  for (int batch : {8, 16}) {
    nas::TrialConfig fast = nas::TrialConfig::baseline(7, batch);
    fast.initial_output_feature = 32;
    fast.kernel_size = 3;
    fast.padding = 1;
    configs.push_back(fast);
    configs.push_back(nas::TrialConfig::baseline(5, batch));
  }
  return pipe.run_sweep(configs);
}

TEST(ReportTest, Table1ListsRegionsAndTotal) {
  const std::string t = table1_text();
  EXPECT_NE(t.find("Nebraska"), std::string::npos);
  EXPECT_NE(t.find("Illinois"), std::string::npos);
  EXPECT_NE(t.find("North Dakota"), std::string::npos);
  EXPECT_NE(t.find("California"), std::string::npos);
  EXPECT_NE(t.find("12068"), std::string::npos);
  EXPECT_NE(t.find("4776"), std::string::npos);
  EXPECT_NE(t.find("0.61m"), std::string::npos);
  EXPECT_NE(t.find("NAIP"), std::string::npos);
}

TEST(ReportTest, Table2ListsFourPredictorsWithAccuracy) {
  const std::string t = table2_text(latency::NnMeter::shared(), 40, 7);
  EXPECT_NE(t.find("cortexA76cpu"), std::string::npos);
  EXPECT_NE(t.find("adreno640gpu"), std::string::npos);
  EXPECT_NE(t.find("adreno630gpu"), std::string::npos);
  EXPECT_NE(t.find("myriadvpu"), std::string::npos);
  EXPECT_NE(t.find("Pixel4"), std::string::npos);
  EXPECT_NE(t.find("OpenVINO2019R2"), std::string::npos);
  EXPECT_NE(t.find('%'), std::string::npos);
}

TEST(ReportTest, Table3ShowsMinMaxRows) {
  const std::string t = table3_text(small_sweep());
  EXPECT_NE(t.find("Min"), std::string::npos);
  EXPECT_NE(t.find("Max"), std::string::npos);
  EXPECT_NE(t.find("ms"), std::string::npos);
  EXPECT_NE(t.find("MB"), std::string::npos);
}

TEST(ReportTest, Table4ListsFrontConfigs) {
  const SweepResult sweep = small_sweep();
  const std::string t = table4_text(sweep);
  EXPECT_NE(t.find("kernel_size_pool"), std::string::npos);
  EXPECT_NE(t.find("initial_output_feature"), std::string::npos);
  EXPECT_NE(t.find("non-dominated"), std::string::npos);
}

TEST(ReportTest, Table5HasSixRows) {
  HwNasPipeline pipe;
  const std::string t = table5_text(pipe.run_baselines());
  // 6 data rows -> "32" appears for both channel settings.
  std::size_t rows = 0;
  for (std::size_t pos = t.find('\n'); pos != std::string::npos;
       pos = t.find('\n', pos + 1)) {
    ++rows;
  }
  EXPECT_GE(rows, 10u);  // header + rules + 6 rows
  EXPECT_NE(t.find("44.7"), std::string::npos);
}

TEST(ReportTest, Fig1SummarizesBothChannelVariants) {
  const std::string t = fig1_text();
  EXPECT_NE(t.find("ch=5"), std::string::npos);
  EXPECT_NE(t.find("ch=7"), std::string::npos);
  EXPECT_NE(t.find("stage4"), std::string::npos);
  EXPECT_NE(t.find("11183810"), std::string::npos);  // 5ch param count
}

TEST(ReportTest, Fig2CountsLattice) {
  const std::string t = fig2_text();
  EXPECT_NE(t.find("288"), std::string::npos);
  EXPECT_NE(t.find("1728"), std::string::npos);
  EXPECT_NE(t.find("180"), std::string::npos);
  EXPECT_NE(t.find("{32, 48, 64}"), std::string::npos);
}

TEST(ReportTest, Fig2TextIsPinned) {
  EXPECT_EQ(fig2_text(),
            "Figure 2: NAS search space for ResNet-18 adaptations\n"
            "  input channels            {5, 7}\n"
            "  batch size                {8, 16, 32}\n"
            "  conv1 kernel_size         {3, 7}\n"
            "  conv1 stride              {1, 2}\n"
            "  conv1 padding             {1, 2, 3}\n"
            "  pool_choice (0=pool)      {0, 1}\n"
            "  kernel_size_pool          {2, 3}\n"
            "  stride_pool               {1, 2}\n"
            "  initial_output_feature    {32, 48, 64}\n"
            "  architectures per input combination: 288 lattice points (180 "
            "unique after no-pool collapse)\n"
            "  full lattice: 1728 trials over 6 input combinations (paper "
            "reports 1,717 valid outcomes)\n");
}

TEST(ReportTest, Fig3RendersThreeProjections) {
  const std::string t = fig3_text(small_sweep());
  EXPECT_NE(t.find("latency-accuracy"), std::string::npos);
  EXPECT_NE(t.find("memory-accuracy"), std::string::npos);
  EXPECT_NE(t.find("latency-memory"), std::string::npos);
  EXPECT_NE(t.find('#'), std::string::npos);
}

TEST(ReportTest, Fig4RadarRowsHaveNineAxes) {
  const SweepResult sweep = small_sweep();
  const auto rows = fig4_rows(sweep);
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    EXPECT_EQ(row.axes.size(), 9u);
    for (const auto& [axis, value] : row.axes) {
      EXPECT_GE(value, 0.0) << axis;
      EXPECT_LE(value, 1.0) << axis;
    }
  }
  const std::string t = fig4_text(sweep);
  EXPECT_NE(t.find("Radar"), std::string::npos);
  EXPECT_NE(t.find("accuracy"), std::string::npos);
}

}  // namespace
}  // namespace dcnas::core
