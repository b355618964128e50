// Write-ahead log with logical redo records.
//
// The KvStore logs every mutation (Put/Delete) before applying it to the
// heap file. Recovery replays the log onto the last checkpointed heap
// state; both operations are idempotent, so replay is safe even when some
// dirty pages reached disk between checkpoints.
//
// On-disk format, per record:
//   [u32 payload_len][u64 fnv1a64(payload)][payload bytes]
// payload:
//   [u8 op]  1 = Put, 2 = Delete
//   [varint key]
//   [string value]          (Put only)
// A record that is cut short, or fails its checksum or decode with no
// intact record after it, is a torn tail (a crash mid-write): everything
// before it is applied and Replay truncates the log there, so later
// appends never follow it. A damaged record with an intact one after it is
// mid-log corruption: Replay returns Status::Corruption, leaves the file
// as it is and counts storage.wal.corrupt_records.total. A damaged length
// field reads as a torn tail.
//
// Threading: the Wal is single-threaded ("externally serialized"); its
// owner serializes access — KvStore encodes this statically by guarding
// its wal_ member with SEED_GUARDED_BY(mu_), checked by the clang
// -Wthread-safety build. The append counters it feeds are atomics.

#ifndef SEED_STORAGE_WAL_H_
#define SEED_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/result.h"

namespace seed::storage {

enum class WalOp : std::uint8_t { kPut = 1, kDelete = 2 };

struct WalRecord {
  WalOp op;
  std::uint64_t key;
  std::string value;  // empty for kDelete
};

class Wal {
 public:
  Wal() = default;
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (or creates) the log at `path` for appending.
  Status Open(const std::string& path, bool sync_on_append);
  Status Close();

  Status AppendPut(std::uint64_t key, std::string_view value);
  Status AppendDelete(std::uint64_t key);

  /// Truncates the log to empty (after a successful checkpoint).
  Status Truncate();

  Status Sync();

  /// Replays all intact records in order. Stops at a torn tail and cuts
  /// it off; returns Corruption for a bad record with an intact one after.
  Status Replay(const std::function<Status(const WalRecord&)>& apply);

  /// Bytes currently in the log.
  Result<std::uint64_t> SizeBytes() const;

  const std::string& path() const { return path_; }

 private:
  Status Append(const WalRecord& rec);

  int fd_ = -1;
  std::string path_;
  bool sync_on_append_ = false;
};

}  // namespace seed::storage

#endif  // SEED_STORAGE_WAL_H_
