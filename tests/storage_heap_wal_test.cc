// HeapFile and WAL tests: record lifecycle across page chains, scans,
// update relocation; log append/replay, torn-tail tolerance, mid-log
// corruption, truncation.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "storage/heap_file.h"
#include "storage/wal.h"

namespace seed::storage {
namespace {

std::string TempPath(const std::string& name) {
  static int counter = 0;
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid()) + "." + std::to_string(counter++);
}

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("heap");
    ASSERT_TRUE(disk_.Open(path_).ok());
    pool_ = std::make_unique<BufferPool>(&disk_, 16);
    heap_ = std::make_unique<HeapFile>(pool_.get());
    ASSERT_TRUE(heap_->Create().ok());
  }
  void TearDown() override {
    heap_.reset();
    pool_.reset();
    (void)disk_.Close();
    std::remove(path_.c_str());
  }

  std::string path_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<HeapFile> heap_;
};

TEST_F(HeapFileTest, InsertGetDelete) {
  auto rid = heap_->Insert("record one");
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*heap_->Get(*rid), "record one");
  ASSERT_TRUE(heap_->Delete(*rid).ok());
  EXPECT_TRUE(heap_->Get(*rid).status().IsNotFound());
}

TEST_F(HeapFileTest, GrowsAcrossPages) {
  std::string rec(1000, 'x');
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(heap_->Insert(rec).ok());
  }
  EXPECT_GT(heap_->num_pages(), 5u);
  EXPECT_EQ(*heap_->CountRecords(), 50u);
}

TEST_F(HeapFileTest, UpdateInPlaceKeepsRecordId) {
  auto rid = heap_->Insert("0123456789");
  auto updated = heap_->Update(*rid, "01234");
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, *rid);
  EXPECT_EQ(*heap_->Get(*rid), "01234");
}

TEST_F(HeapFileTest, UpdateMayRelocate) {
  // Fill the first page almost completely so a grow-update must move.
  auto rid = heap_->Insert("tiny");
  std::string filler(1500, 'f');
  while (heap_->num_pages() == 1) {
    ASSERT_TRUE(heap_->Insert(filler).ok());
  }
  std::string big(4000, 'b');
  auto updated = heap_->Update(*rid, big);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*heap_->Get(*updated), big);
}

TEST_F(HeapFileTest, UpdateMissingRecordFails) {
  auto rid = heap_->Insert("x");
  ASSERT_TRUE(heap_->Delete(*rid).ok());
  EXPECT_TRUE(heap_->Update(*rid, "y").status().IsNotFound());
}

TEST_F(HeapFileTest, OversizeRecordRejected) {
  std::string huge(kPageSize + 1, 'x');
  EXPECT_TRUE(heap_->Insert(huge).status().IsInvalidArgument());
}

TEST_F(HeapFileTest, ScanSeesAllLiveRecords) {
  std::unordered_map<std::string, int> expected;
  for (int i = 0; i < 200; ++i) {
    std::string rec = "rec_" + std::to_string(i);
    ASSERT_TRUE(heap_->Insert(rec).ok());
    expected[rec] = 1;
  }
  size_t seen = 0;
  ASSERT_TRUE(heap_
                  ->Scan([&](RecordId, std::string_view rec) {
                    EXPECT_EQ(expected.count(std::string(rec)), 1u);
                    ++seen;
                  })
                  .ok());
  EXPECT_EQ(seen, 200u);
}

TEST_F(HeapFileTest, ReopenFindsRecords) {
  PageId first = heap_->first_page();
  auto rid = heap_->Insert("persistent");
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(pool_->FlushAll().ok());

  HeapFile reopened(pool_.get());
  ASSERT_TRUE(reopened.Open(first).ok());
  EXPECT_EQ(*reopened.Get(*rid), "persistent");
  EXPECT_EQ(*reopened.CountRecords(), 1u);
}

TEST_F(HeapFileTest, ChurnMatchesModel) {
  Random rng(99);
  std::unordered_map<std::uint64_t, std::pair<RecordId, std::string>> model;
  std::uint64_t next_key = 0;
  for (int step = 0; step < 3000; ++step) {
    double roll = rng.NextDouble();
    if (roll < 0.5 || model.empty()) {
      std::string rec = rng.Identifier(1 + rng.Uniform(300));
      auto rid = heap_->Insert(rec);
      ASSERT_TRUE(rid.ok());
      model[next_key++] = {*rid, rec};
    } else if (roll < 0.75) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      std::string rec = rng.Identifier(1 + rng.Uniform(600));
      auto rid = heap_->Update(it->second.first, rec);
      ASSERT_TRUE(rid.ok());
      it->second = {*rid, rec};
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_TRUE(heap_->Delete(it->second.first).ok());
      model.erase(it);
    }
  }
  EXPECT_EQ(*heap_->CountRecords(), model.size());
  for (const auto& [key, entry] : model) {
    EXPECT_EQ(*heap_->Get(entry.first), entry.second);
  }
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override { path_ = TempPath("wal"); }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(WalTest, AppendAndReplay) {
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, false).ok());
  ASSERT_TRUE(wal.AppendPut(1, "one").ok());
  ASSERT_TRUE(wal.AppendPut(2, "two").ok());
  ASSERT_TRUE(wal.AppendDelete(1).ok());

  std::vector<WalRecord> seen;
  ASSERT_TRUE(wal.Replay([&](const WalRecord& rec) {
                   seen.push_back(rec);
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].op, WalOp::kPut);
  EXPECT_EQ(seen[0].key, 1u);
  EXPECT_EQ(seen[0].value, "one");
  EXPECT_EQ(seen[2].op, WalOp::kDelete);
  EXPECT_EQ(seen[2].key, 1u);
}

TEST_F(WalTest, ReplaySurvivesReopen) {
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path_, true).ok());
    ASSERT_TRUE(wal.AppendPut(7, "seven").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, false).ok());
  size_t count = 0;
  ASSERT_TRUE(wal.Replay([&](const WalRecord&) {
                   ++count;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 1u);
}

TEST_F(WalTest, TornTailIsIgnored) {
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path_, false).ok());
    ASSERT_TRUE(wal.AppendPut(1, "intact").ok());
    ASSERT_TRUE(wal.AppendPut(2, "will be torn").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // Chop the last 5 bytes off, simulating a crash mid-append.
  {
    FILE* f = fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    ASSERT_EQ(ftruncate(fileno(f), size - 5), 0);
    fclose(f);
  }
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, false).ok());
  std::vector<WalRecord> seen;
  ASSERT_TRUE(wal.Replay([&](const WalRecord& rec) {
                   seen.push_back(rec);
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].value, "intact");
}

TEST_F(WalTest, CorruptPayloadStopsReplay) {
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path_, false).ok());
    ASSERT_TRUE(wal.AppendPut(1, "good").ok());
    ASSERT_TRUE(wal.AppendPut(2, "to be corrupted").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  {
    FILE* f = fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    fseek(f, -3, SEEK_END);
    fputc('X', f);
    fclose(f);
  }
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, false).ok());
  size_t count = 0;
  ASSERT_TRUE(wal.Replay([&](const WalRecord&) {
                   ++count;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 1u);
}

TEST_F(WalTest, AppendAfterTornTailRecoveryReplays) {
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path_, false).ok());
    ASSERT_TRUE(wal.AppendPut(1, "intact").ok());
    ASSERT_TRUE(wal.AppendPut(2, "will be torn").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  {
    FILE* f = fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    ASSERT_EQ(ftruncate(fileno(f), size - 5), 0);
    fclose(f);
  }
  // Recover, then write more without a clean shutdown.
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path_, false).ok());
    ASSERT_TRUE(wal.Replay([](const WalRecord&) { return Status::OK(); }).ok());
    ASSERT_TRUE(wal.AppendPut(3, "after recovery").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, false).ok());
  std::vector<std::uint64_t> keys;
  Status s = wal.Replay([&](const WalRecord& rec) {
    keys.push_back(rec.key);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 3}));
}

TEST_F(WalTest, ZeroFilledTailIsTorn) {
  std::uint64_t intact_bytes = 0;
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path_, false).ok());
    ASSERT_TRUE(wal.AppendPut(1, "first").ok());
    ASSERT_TRUE(wal.AppendPut(2, "second").ok());
    intact_bytes = *wal.SizeBytes();
    ASSERT_TRUE(wal.Close().ok());
  }
  // The file grew, but the appended data never reached the disk.
  {
    FILE* f = fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char zeros[32] = {};
    ASSERT_EQ(fwrite(zeros, 1, sizeof(zeros), f), sizeof(zeros));
    fclose(f);
  }
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, false).ok());
  size_t count = 0;
  Status s = wal.Replay([&](const WalRecord&) {
    ++count;
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(*wal.SizeBytes(), intact_bytes);
}

TEST_F(WalTest, MidLogCorruptionIsAnError) {
  std::uint64_t second_record_end = 0;
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path_, false).ok());
    ASSERT_TRUE(wal.AppendPut(1, "first").ok());
    ASSERT_TRUE(wal.AppendPut(2, "second").ok());
    second_record_end = *wal.SizeBytes();
    ASSERT_TRUE(wal.AppendPut(3, "third").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // Flip a byte of the middle record's value ("second" ends its payload).
  {
    FILE* f = fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    fseek(f, static_cast<long>(second_record_end) - 3, SEEK_SET);
    fputc('X', f);
    fclose(f);
  }
  const obs::Counter* corrupt = obs::MetricsRegistry::Global().GetCounter(
      "storage.wal.corrupt_records.total");
  const std::uint64_t corrupt0 = corrupt->value();
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, false).ok());
  size_t count = 0;
  Status s = wal.Replay([&](const WalRecord&) {
    ++count;
    return Status::OK();
  });
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(corrupt->value() - corrupt0, 1u);
}

TEST_F(WalTest, TruncateEmptiesLog) {
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, false).ok());
  ASSERT_TRUE(wal.AppendPut(1, "x").ok());
  EXPECT_GT(*wal.SizeBytes(), 0u);
  ASSERT_TRUE(wal.Truncate().ok());
  EXPECT_EQ(*wal.SizeBytes(), 0u);
  size_t count = 0;
  ASSERT_TRUE(wal.Replay([&](const WalRecord&) {
                   ++count;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 0u);
}

TEST_F(WalTest, ApplyErrorAborts) {
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, false).ok());
  ASSERT_TRUE(wal.AppendPut(1, "x").ok());
  Status s = wal.Replay(
      [](const WalRecord&) { return Status::Internal("boom"); });
  EXPECT_TRUE(s.IsInternal());
}

}  // namespace
}  // namespace seed::storage
