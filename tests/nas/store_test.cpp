#include "dcnas/nas/store/trial_store.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dcnas/common/error.hpp"
#include "dcnas/common/rng.hpp"
#include "dcnas/nas/experiment.hpp"
#include "dcnas/nas/search_space.hpp"
#include "dcnas/nas/store/format.hpp"

namespace dcnas::nas {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() / ("dcnas_store_test_" + name))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::vector<TrialConfig> sample_configs(std::size_t n, std::uint64_t seed) {
  auto configs = SearchSpaceSpec::paper().enumerate();
  Rng rng(seed);
  rng.shuffle(configs);
  configs.resize(n);
  return configs;
}

JournalEntry make_entry(const Experiment& exp, const TrialConfig& config) {
  JournalEntry entry;
  entry.record = exp.run_trial(config);
  for (std::size_t f = 0; f < entry.record.fold_accuracies.size(); ++f) {
    entry.fold_indices.push_back(static_cast<int>(f));
  }
  return entry;
}

std::string csv_text(const TrialDatabase& db) { return db.to_csv().to_string(); }

TrialStoreOptions fast_options() {
  TrialStoreOptions opt;
  opt.fsync_each = false;  // crash-safety paths are tested explicitly below
  return opt;
}

// ---- basic commit / read / reopen ------------------------------------------

TEST(TrialStoreTest, AppendReadFindReopenRoundTrip) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(6, 11);
  const TempDir dir("roundtrip");
  {
    TrialStore store(dir.str(), fast_options());
    for (const auto& c : configs) store.append(make_entry(exp, c));
    EXPECT_EQ(store.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const JournalEntry got = store.read(i);
      EXPECT_EQ(got.record.config.lattice_key(), configs[i].lattice_key());
    }
    const JournalEntry* hit = store.find(configs[2].lattice_key());
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->record.config.lattice_key(), configs[2].lattice_key());
    EXPECT_EQ(store.find("no-such-key"), nullptr);
  }
  // Reopen: everything committed is still there, nothing to repair.
  TrialStore store(dir.str(), fast_options());
  EXPECT_EQ(store.size(), configs.size());
  EXPECT_EQ(store.recovery().torn_records, 0u);
  EXPECT_EQ(store.recovery().torn_string_bytes, 0u);
  EXPECT_FALSE(store.recovery().control_rebuilt);
  // Bit-exact doubles through the store: the assembled database's CSV is
  // byte-identical to a direct serial run over the same configs.
  EXPECT_EQ(csv_text(store.assemble(configs)), csv_text(exp.run_all(configs)));
}

TEST(TrialStoreTest, RecordsSpanMultipleChunkFiles) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(10, 13);
  const TempDir dir("chunks");
  TrialStoreOptions opt = fast_options();
  opt.chunk_capacity = 4;  // 10 records -> 3 chunk files
  {
    TrialStore store(dir.str(), opt);
    for (const auto& c : configs) store.append(make_entry(exp, c));
  }
  int chunk_files = 0;
  for (const auto& e : fs::directory_iterator(dir.str())) {
    if (e.path().extension() == ".chunk") ++chunk_files;
  }
  EXPECT_EQ(chunk_files, 3);
  TrialStore store(dir.str(), opt);
  EXPECT_EQ(store.size(), configs.size());
  EXPECT_EQ(store.chunk_capacity(), 4u);
  EXPECT_EQ(csv_text(store.assemble(configs)), csv_text(exp.run_all(configs)));
}

TEST(TrialStoreTest, LastWriteWinsOnDuplicateKeys) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const TempDir dir("dupes");
  TrialStore store(dir.str(), fast_options());
  JournalEntry first = make_entry(exp, TrialConfig::baseline(5, 8));
  store.append(first);
  JournalEntry second = first;
  second.record.accuracy += 1.0;
  store.append(second);
  EXPECT_EQ(store.size(), 2u);
  const JournalEntry* hit = store.find(first.record.config.lattice_key());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->record.accuracy, second.record.accuracy);
  // to_database dedups to one record per key.
  EXPECT_EQ(store.to_database().size(), 1u);
}

TEST(TrialStoreTest, LatticeFingerprintMismatchThrows) {
  const TempDir dir("fingerprint");
  TrialStoreOptions create = fast_options();
  create.lattice_fingerprint = SearchSpaceSpec::paper().fingerprint();
  { TrialStore store(dir.str(), create); }
  TrialStoreOptions wrong = fast_options();
  wrong.lattice_fingerprint = SearchSpaceSpec::wide().fingerprint();
  EXPECT_THROW(TrialStore(dir.str(), wrong), InvalidArgument);
  // 0 = accept whatever is stamped; the stamp survives.
  TrialStore reopen(dir.str(), fast_options());
  EXPECT_EQ(reopen.lattice_fingerprint(), create.lattice_fingerprint);
}

TEST(TrialStoreTest, EntryRoundTripsBitExactly) {
  JournalEntry entry;
  entry.record.config = TrialConfig::baseline(7, 16);
  entry.record.accuracy = 87.123456789012345;
  entry.record.latency_ms = 415.73415977261743;
  entry.record.lat_std = 285.0203368304029;
  entry.record.memory_mb = 44.804802;
  entry.record.fold_accuracies = {86.3766644856339, 85.95641759017106,
                                  86.38652171093284, 89.46831624538649,
                                  86.88766613705032};
  entry.record.per_device_ms = {{"cortexA76cpu", 325.48614348128393},
                                {"myriadvpu", 838.5355983578854}};
  entry.fold_indices = {0, 1, 2, 3, 4};

  const TempDir dir("bitexact");
  { TrialStore(dir.str(), fast_options()).append(entry); }
  const TrialStore store(dir.str(), fast_options());
  ASSERT_EQ(store.size(), 1u);
  const JournalEntry decoded = store.read(0);
  EXPECT_EQ(decoded.status, TrialStatus::kOk);
  EXPECT_EQ(decoded.record.config.lattice_key(),
            entry.record.config.lattice_key());
  EXPECT_EQ(decoded.record.accuracy, entry.record.accuracy);
  EXPECT_EQ(decoded.record.latency_ms, entry.record.latency_ms);
  EXPECT_EQ(decoded.record.lat_std, entry.record.lat_std);
  EXPECT_EQ(decoded.record.memory_mb, entry.record.memory_mb);
  EXPECT_EQ(decoded.record.fold_accuracies, entry.record.fold_accuracies);
  EXPECT_EQ(decoded.record.per_device_ms, entry.record.per_device_ms);
  EXPECT_EQ(decoded.fold_indices, entry.fold_indices);
}

TEST(TrialStoreTest, PrunedEntryRoundTripsPartialFolds) {
  JournalEntry entry;
  entry.status = TrialStatus::kPruned;
  entry.record.config = TrialConfig::baseline(5, 8);
  entry.record.fold_accuracies = {81.5, 80.25};
  entry.record.accuracy = 80.875;
  entry.fold_indices = {0, 2};

  const TempDir dir("pruned");
  { TrialStore(dir.str(), fast_options()).append(entry); }
  const TrialStore store(dir.str(), fast_options());
  const JournalEntry* decoded = store.find(entry.record.config.lattice_key());
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->status, TrialStatus::kPruned);
  EXPECT_EQ(decoded->fold_indices, (std::vector<int>{0, 2}));
  EXPECT_EQ(decoded->record.fold_accuracies,
            (std::vector<double>{81.5, 80.25}));
  // Pruned trials are not results: the database view leaves them out.
  EXPECT_EQ(store.to_database().size(), 0u);
}

TEST(TrialStoreTest, RejectsNonStorePaths) {
  const TempDir dir("notastore");
  fs::create_directories(dir.str());
  const std::string csv = (fs::path(dir.str()) / "trials.csv").string();
  {
    std::ofstream out(csv);
    out << "channels,batch,accuracy\n5,8,90.0\n";
  }
  // A file where the store directory should be (e.g. --store trials.csv).
  EXPECT_THROW(TrialStore(csv, fast_options()), InvalidArgument);
  // A directory whose store.ctrl is something else entirely.
  const std::string foreign = (fs::path(dir.str()) / "foreign").string();
  fs::create_directories(foreign);
  fs::copy_file(csv, fs::path(foreign) / "store.ctrl");
  EXPECT_THROW(TrialStore(foreign, fast_options()), InvalidArgument);
}

// ---- crash recovery ---------------------------------------------------------

TEST(TrialStoreTest, TornTailBeyondCommitPointIsDiscarded) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(5, 17);
  const TempDir dir("torn");
  std::string expected_csv;
  {
    TrialStore store(dir.str(), fast_options());
    for (const auto& c : configs) store.append(make_entry(exp, c));
    expected_csv = csv_text(store.assemble(configs));
  }
  // Simulate a crash mid-commit: string bytes and a partial slot landed on
  // disk but the control block was never advanced.
  const JournalEntry torn = make_entry(exp, TrialConfig::baseline(7, 16));
  std::string pool_bytes;
  store::TrialSlot slot = TrialStore::encode_slot(torn, 0, &pool_bytes);
  {
    std::ofstream pool(fs::path(dir.str()) / "strings.pool",
                       std::ios::binary | std::ios::app);
    pool.write(pool_bytes.data(),
               static_cast<std::streamsize>(pool_bytes.size()));
  }
  {
    std::fstream chunk(fs::path(dir.str()) / "trials-00000.chunk",
                       std::ios::binary | std::ios::in | std::ios::out);
    chunk.seekp(static_cast<std::streamoff>(configs.size() *
                                            sizeof(store::TrialSlot)));
    // Half the slot: a torn record whose CRC cannot validate.
    chunk.write(reinterpret_cast<const char*>(&slot), sizeof(slot) / 2);
  }
  TrialStore store(dir.str(), fast_options());
  EXPECT_EQ(store.size(), configs.size());
  EXPECT_EQ(store.recovery().torn_string_bytes, pool_bytes.size());
  EXPECT_EQ(store.recovery().torn_records, 1u);
  EXPECT_FALSE(store.recovery().control_rebuilt);
  EXPECT_EQ(csv_text(store.assemble(configs)), expected_csv);
  // The store accepts fresh appends after the repair.
  store.append(torn);
  EXPECT_EQ(store.size(), configs.size() + 1);
  EXPECT_NE(store.find(torn.record.config.lattice_key()), nullptr);
}

TEST(TrialStoreTest, CorruptControlBlockIsRebuiltFromChunkScan) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(7, 19);
  const TempDir dir("rebuild");
  std::string expected_csv;
  {
    TrialStore store(dir.str(), fast_options());
    for (const auto& c : configs) store.append(make_entry(exp, c));
    expected_csv = csv_text(store.assemble(configs));
  }
  // Simulate a crash during the control pwrite: flip a counter byte so the
  // control CRC no longer validates.
  {
    std::fstream ctrl(fs::path(dir.str()) / "store.ctrl",
                      std::ios::binary | std::ios::in | std::ios::out);
    ctrl.seekp(static_cast<std::streamoff>(
        offsetof(store::ControlBlock, committed_records)));
    const char garbage = '\x5a';
    ctrl.write(&garbage, 1);
  }
  TrialStore store(dir.str(), fast_options());
  EXPECT_TRUE(store.recovery().control_rebuilt);
  EXPECT_EQ(store.size(), configs.size());
  EXPECT_EQ(csv_text(store.assemble(configs)), expected_csv);
}

// A committed record whose CRC fails was not torn by a crash (recovery only
// ever repairs bytes beyond the commit point): refuse to open instead of
// serving a damaged result.
TEST(TrialStoreTest, CorruptCommittedRecordRefusesToOpen) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(4, 37);
  const TempDir dir("badrecord");
  {
    TrialStore store(dir.str(), fast_options());
    for (const auto& c : configs) store.append(make_entry(exp, c));
  }
  {
    std::fstream chunk(fs::path(dir.str()) / "trials-00000.chunk",
                       std::ios::binary | std::ios::in | std::ios::out);
    const auto at = static_cast<std::streamoff>(
        2 * sizeof(store::TrialSlot) +
        offsetof(store::TrialSlot, accuracy_bits));
    char byte = 0;
    chunk.seekg(at);
    chunk.read(&byte, 1);
    byte = static_cast<char>(~byte);
    chunk.seekp(at);
    chunk.write(&byte, 1);
  }
  EXPECT_THROW(TrialStore(dir.str(), fast_options()), InvalidArgument);
}

TEST(TrialStoreTest, CorruptControlWithNoChunksThrows) {
  const TempDir dir("headless");
  { TrialStore store(dir.str(), fast_options()); }  // empty store, no chunks
  {
    std::fstream ctrl(fs::path(dir.str()) / "store.ctrl",
                      std::ios::binary | std::ios::in | std::ios::out);
    const char garbage = '\x5a';
    ctrl.write(&garbage, 1);  // break the magic (and the CRC with it)
  }
  // Nothing to rebuild from — refuse rather than silently recreate (the
  // caller may be pointing at the wrong directory).
  EXPECT_THROW(TrialStore(dir.str(), fast_options()), InvalidArgument);
}

// ---- multi-process ----------------------------------------------------------

TEST(TrialStoreTest, TwoProcessWritersProduceOneConsistentStore) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(12, 23);
  const TempDir dir("multiproc");
  // Parent pre-creates the store so children race only on appends.
  { TrialStore store(dir.str(), fast_options()); }

  std::vector<pid_t> pids;
  for (int w = 0; w < 2; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: append a stride-sharded half of the configs. fsync stays on
      // here — the locked write->fsync->publish path is what's under test.
      try {
        TrialStore store(dir.str());
        for (std::size_t i = static_cast<std::size_t>(w); i < configs.size();
             i += 2) {
          store.append(make_entry(exp, configs[i]));
        }
        std::_Exit(0);
      } catch (...) {
        std::_Exit(1);
      }
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  TrialStore store(dir.str(), fast_options());
  EXPECT_EQ(store.size(), configs.size());
  // Interleaving across processes is nondeterministic, but the assembled
  // (lattice-ordered) view is byte-identical to the serial run regardless.
  EXPECT_EQ(csv_text(store.assemble(configs)), csv_text(exp.run_all(configs)));
}

TEST(TrialStoreTest, RefreshSeesOtherHandlesCommits) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const TempDir dir("refresh");
  TrialStore reader(dir.str(), fast_options());
  TrialStore writer(dir.str(), fast_options());
  const JournalEntry entry = make_entry(exp, TrialConfig::baseline(5, 8));
  writer.append(entry);
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_EQ(reader.refresh(), 1u);
  EXPECT_EQ(reader.size(), 1u);
  EXPECT_NE(reader.find(entry.record.config.lattice_key()), nullptr);
}

// ---- migration paths --------------------------------------------------------

TEST(TrialStoreTest, CsvStoreCsvRoundTripOnFullPaperDatabase) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const TrialDatabase db = exp.run_all(SearchSpaceSpec::paper().enumerate());
  ASSERT_EQ(db.size(), 1728u);
  const TempDir dir("csvtrip");
  TrialStore store(dir.str(), fast_options());
  store.import_database(db);
  EXPECT_EQ(store.size(), db.size());
  // CSV -> store -> CSV is the identity, byte for byte: every double
  // travels as its IEEE-754 bit pattern.
  EXPECT_EQ(csv_text(store.assemble(SearchSpaceSpec::paper().enumerate())),
            csv_text(db));
  EXPECT_EQ(csv_text(store.to_database()), csv_text(db));
}

}  // namespace
}  // namespace dcnas::nas
