// KvStore tests: durable map semantics, WAL-based recovery (torn tails,
// mid-log corruption), checkpointing.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <unordered_map>

#include "common/random.h"
#include "storage/kv_store.h"

namespace seed::storage {
namespace {

class KvStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = ::testing::TempDir() + "/kv." + std::to_string(::getpid()) + "." +
           std::to_string(counter++);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(KvStoreTest, PutGetDelete) {
  KvStore kv;
  ASSERT_TRUE(kv.Open(dir_).ok());
  ASSERT_TRUE(kv.Put(1, "alpha").ok());
  ASSERT_TRUE(kv.Put(2, "beta").ok());
  EXPECT_EQ(*kv.Get(1), "alpha");
  EXPECT_EQ(*kv.Get(2), "beta");
  EXPECT_TRUE(kv.Contains(1));
  ASSERT_TRUE(kv.Delete(1).ok());
  EXPECT_FALSE(kv.Contains(1));
  EXPECT_TRUE(kv.Get(1).status().IsNotFound());
  EXPECT_EQ(kv.size(), 1u);
}

TEST_F(KvStoreTest, OverwriteReplaces) {
  KvStore kv;
  ASSERT_TRUE(kv.Open(dir_).ok());
  ASSERT_TRUE(kv.Put(5, "old").ok());
  ASSERT_TRUE(kv.Put(5, "new and much longer than the old value").ok());
  EXPECT_EQ(*kv.Get(5), "new and much longer than the old value");
  EXPECT_EQ(kv.size(), 1u);
}

TEST_F(KvStoreTest, DeleteMissingFails) {
  KvStore kv;
  ASSERT_TRUE(kv.Open(dir_).ok());
  EXPECT_TRUE(kv.Delete(42).IsNotFound());
}

TEST_F(KvStoreTest, CleanReopenAfterClose) {
  {
    KvStore kv;
    ASSERT_TRUE(kv.Open(dir_).ok());
    ASSERT_TRUE(kv.Put(1, "persisted").ok());
    ASSERT_TRUE(kv.Close().ok());
  }
  KvStore kv;
  ASSERT_TRUE(kv.Open(dir_).ok());
  EXPECT_EQ(*kv.Get(1), "persisted");
}

TEST_F(KvStoreTest, RecoveryFromWalWithoutCheckpoint) {
  // Simulate a crash: mutate, never Close/Checkpoint, drop the object.
  {
    KvStore kv;
    KvStoreOptions opts;
    opts.sync_on_append = false;
    ASSERT_TRUE(kv.Open(dir_, opts).ok());
    ASSERT_TRUE(kv.Put(1, "one").ok());
    ASSERT_TRUE(kv.Put(2, "two").ok());
    ASSERT_TRUE(kv.Delete(1).ok());
    ASSERT_TRUE(kv.Put(3, "three").ok());
    // Deliberately no Close(): the destructor checkpoints, so instead we
    // re-open a second store over the same dir after simulating the crash
    // by only relying on the WAL contents.
    // To really simulate a crash we copy the files before destruction.
    std::filesystem::create_directories(dir_ + "/crash");
    std::filesystem::copy(dir_ + "/seed.db", dir_ + "/crash/seed.db");
    std::filesystem::copy(dir_ + "/seed.wal", dir_ + "/crash/seed.wal");
  }
  KvStore recovered;
  ASSERT_TRUE(recovered.Open(dir_ + "/crash").ok());
  EXPECT_TRUE(recovered.Get(1).status().IsNotFound());
  EXPECT_EQ(*recovered.Get(2), "two");
  EXPECT_EQ(*recovered.Get(3), "three");
}

TEST_F(KvStoreTest, OpenReportsMidLogCorruption) {
  {
    KvStore kv;
    ASSERT_TRUE(kv.Open(dir_).ok());
    ASSERT_TRUE(kv.Put(1, "aaaa").ok());
    ASSERT_TRUE(kv.Put(2, "bbbb").ok());
    ASSERT_TRUE(kv.Put(3, "cccc").ok());
    std::filesystem::create_directories(dir_ + "/crash");
    std::filesystem::copy(dir_ + "/seed.db", dir_ + "/crash/seed.db");
    std::filesystem::copy(dir_ + "/seed.wal", dir_ + "/crash/seed.wal");
  }
  // Each record is a 12-byte frame header and a 7-byte payload ending in
  // its value; damage the second record's value.
  {
    FILE* f = std::fopen((dir_ + "/crash/seed.wal").c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 19 + 12 + 5, SEEK_SET);
    std::fputc('X', f);
    std::fclose(f);
  }
  KvStore recovered;
  Status s = recovered.Open(dir_ + "/crash");
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(recovered.Get(1).status().IsFailedPrecondition());
}

TEST_F(KvStoreTest, WritesAfterTornTailRecoverySurviveACrash) {
  auto crash_copy = [](const std::string& from, const std::string& to) {
    std::filesystem::create_directories(to);
    std::filesystem::copy(from + "/seed.db", to + "/seed.db");
    std::filesystem::copy(from + "/seed.wal", to + "/seed.wal");
  };
  {
    KvStore kv;
    ASSERT_TRUE(kv.Open(dir_).ok());
    ASSERT_TRUE(kv.Put(1, "aaaa").ok());
    ASSERT_TRUE(kv.Put(2, "bbbb").ok());
    ASSERT_TRUE(kv.Put(3, "cccc").ok());
    crash_copy(dir_, dir_ + "/crash1");
  }
  // The crash tore the last record.
  std::filesystem::resize_file(
      dir_ + "/crash1/seed.wal",
      std::filesystem::file_size(dir_ + "/crash1/seed.wal") - 3);
  {
    KvStore kv;
    ASSERT_TRUE(kv.Open(dir_ + "/crash1").ok());
    ASSERT_TRUE(kv.Put(4, "dddd").ok());
    crash_copy(dir_ + "/crash1", dir_ + "/crash2");
  }
  KvStore recovered;
  Status s = recovered.Open(dir_ + "/crash2");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(*recovered.Get(1), "aaaa");
  EXPECT_EQ(*recovered.Get(2), "bbbb");
  EXPECT_TRUE(recovered.Get(3).status().IsNotFound());
  EXPECT_EQ(*recovered.Get(4), "dddd");
}

TEST_F(KvStoreTest, CheckpointTruncatesWal) {
  KvStore kv;
  ASSERT_TRUE(kv.Open(dir_).ok());
  ASSERT_TRUE(kv.Put(1, "x").ok());
  EXPECT_GT(*kv.WalBytes(), 0u);
  ASSERT_TRUE(kv.Checkpoint().ok());
  EXPECT_EQ(*kv.WalBytes(), 0u);
  // Data still present after checkpoint.
  EXPECT_EQ(*kv.Get(1), "x");
}

TEST_F(KvStoreTest, ScanSeesEverything) {
  KvStore kv;
  ASSERT_TRUE(kv.Open(dir_).ok());
  for (std::uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(kv.Put(k, "v" + std::to_string(k)).ok());
  }
  std::unordered_map<std::uint64_t, std::string> seen;
  ASSERT_TRUE(kv.Scan([&](std::uint64_t k, std::string_view v) {
                  seen[k] = std::string(v);
                }).ok());
  ASSERT_EQ(seen.size(), 100u);
  EXPECT_EQ(seen[42], "v42");
}

TEST_F(KvStoreTest, LargeValuesSpanPagesViaHeap) {
  KvStore kv;
  ASSERT_TRUE(kv.Open(dir_).ok());
  std::string big(7000, 'B');
  ASSERT_TRUE(kv.Put(9, big).ok());
  EXPECT_EQ(*kv.Get(9), big);
}

TEST_F(KvStoreTest, ChurnWithRecoveryMatchesModel) {
  Random rng(2024);
  std::unordered_map<std::uint64_t, std::string> model;
  {
    KvStore kv;
    ASSERT_TRUE(kv.Open(dir_).ok());
    for (int step = 0; step < 2000; ++step) {
      std::uint64_t key = rng.Uniform(300);
      double roll = rng.NextDouble();
      if (roll < 0.7) {
        std::string value = rng.Identifier(1 + rng.Uniform(200));
        ASSERT_TRUE(kv.Put(key, value).ok());
        model[key] = value;
      } else if (model.count(key) != 0) {
        ASSERT_TRUE(kv.Delete(key).ok());
        model.erase(key);
      }
      if (step % 500 == 499) {
        ASSERT_TRUE(kv.Checkpoint().ok());
      }
    }
    ASSERT_TRUE(kv.Close().ok());
  }
  KvStore kv;
  ASSERT_TRUE(kv.Open(dir_).ok());
  EXPECT_EQ(kv.size(), model.size());
  for (const auto& [key, value] : model) {
    EXPECT_EQ(*kv.Get(key), value) << "key " << key;
  }
}

TEST_F(KvStoreTest, OperationsFailWhenClosed) {
  KvStore kv;
  EXPECT_TRUE(kv.Put(1, "x").IsFailedPrecondition());
  EXPECT_TRUE(kv.Get(1).status().IsFailedPrecondition());
  EXPECT_TRUE(kv.Checkpoint().IsFailedPrecondition());
}

}  // namespace
}  // namespace seed::storage
