#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <vector>

#include "common/coding.h"
#include "common/macros.h"
#include "obs/metrics.h"

namespace seed::storage {

namespace {
/// [u32 payload_len][u64 checksum] ahead of every payload.
constexpr size_t kFrameHeaderBytes = 12;

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Verifies and decodes one record's payload.
Result<WalRecord> DecodeRecord(const std::uint8_t* payload, size_t len,
                               std::uint64_t checksum) {
  if (Fnv1a64(payload, len) != checksum) {
    return Status::Corruption("checksum mismatch");
  }
  Decoder body(payload, len);
  SEED_ASSIGN_OR_RETURN(std::uint8_t op, body.GetU8());
  WalRecord rec;
  SEED_ASSIGN_OR_RETURN(rec.key, body.GetVarint());
  if (op == static_cast<std::uint8_t>(WalOp::kPut)) {
    rec.op = WalOp::kPut;
    SEED_ASSIGN_OR_RETURN(rec.value, body.GetString());
  } else if (op == static_cast<std::uint8_t>(WalOp::kDelete)) {
    rec.op = WalOp::kDelete;
  } else {
    return Status::Corruption("unknown op " + std::to_string(op));
  }
  return rec;
}

/// One frame of the log: where its payload starts in the buffer, its
/// length and its stored checksum.
struct Frame {
  size_t payload;
  std::uint32_t len;
  std::uint64_t checksum;
  size_t end() const { return payload + len; }
};

/// The frame at `pos`, or nullopt when its framing runs past the log's end.
std::optional<Frame> ReadFrame(const std::vector<std::uint8_t>& buf,
                               size_t pos) {
  Decoder dec(buf.data() + pos, buf.size() - pos);
  auto len = dec.GetU32();
  auto checksum = dec.GetU64();
  if (!len.ok() || !checksum.ok() || dec.remaining() < *len) {
    return std::nullopt;
  }
  return Frame{pos + kFrameHeaderBytes, *len, *checksum};
}

/// True when a frame in the chain starting at `pos` passes its checksum
/// and decodes, i.e. committed records lie beyond a damaged one.
bool IntactFrameFrom(const std::vector<std::uint8_t>& buf, size_t pos) {
  for (auto f = ReadFrame(buf, pos); f; f = ReadFrame(buf, f->end())) {
    if (DecodeRecord(buf.data() + f->payload, f->len, f->checksum).ok()) {
      return true;
    }
  }
  return false;
}
}  // namespace

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

Status Wal::Open(const std::string& path, bool sync_on_append) {
  if (fd_ >= 0) return Status::FailedPrecondition("WAL already open");
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return Status::IoError(Errno("open WAL " + path));
  path_ = path;
  sync_on_append_ = sync_on_append;
  return Status::OK();
}

Status Wal::Close() {
  if (fd_ < 0) return Status::OK();
  if (::close(fd_) != 0) {
    fd_ = -1;
    return Status::IoError(Errno("close WAL " + path_));
  }
  fd_ = -1;
  return Status::OK();
}

Status Wal::Append(const WalRecord& rec) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL not open");
  Encoder payload;
  payload.PutU8(static_cast<std::uint8_t>(rec.op));
  payload.PutVarint(rec.key);
  if (rec.op == WalOp::kPut) payload.PutString(rec.value);

  Encoder frame;
  frame.PutU32(static_cast<std::uint32_t>(payload.size()));
  frame.PutU64(Fnv1a64(payload.bytes().data(), payload.size()));
  frame.PutRaw(payload.bytes().data(), payload.size());

  const auto& bytes = frame.bytes();
  ssize_t n = ::write(fd_, bytes.data(), bytes.size());
  if (n != static_cast<ssize_t>(bytes.size())) {
    return Status::IoError(Errno("append WAL " + path_));
  }
  static obs::Counter* appends =
      obs::MetricsRegistry::Global().GetCounter("storage.wal.appends.total");
  static obs::Counter* appended_bytes =
      obs::MetricsRegistry::Global().GetCounter("storage.wal.appended.bytes");
  appends->Increment();
  appended_bytes->Increment(bytes.size());
  if (sync_on_append_) return Sync();
  return Status::OK();
}

Status Wal::AppendPut(std::uint64_t key, std::string_view value) {
  return Append(WalRecord{WalOp::kPut, key, std::string(value)});
}

Status Wal::AppendDelete(std::uint64_t key) {
  return Append(WalRecord{WalOp::kDelete, key, {}});
}

Status Wal::Truncate() {
  if (fd_ < 0) return Status::FailedPrecondition("WAL not open");
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IoError(Errno("truncate WAL " + path_));
  }
  return Sync();
}

Status Wal::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("WAL not open");
  if (::fsync(fd_) != 0) return Status::IoError(Errno("fsync WAL " + path_));
  static obs::Counter* syncs =
      obs::MetricsRegistry::Global().GetCounter("storage.wal.syncs.total");
  syncs->Increment();
  return Status::OK();
}

Result<std::uint64_t> Wal::SizeBytes() const {
  if (fd_ < 0) return Status::FailedPrecondition("WAL not open");
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) return Status::IoError(Errno("lseek WAL " + path_));
  return static_cast<std::uint64_t>(size);
}

Status Wal::Replay(const std::function<Status(const WalRecord&)>& apply) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL not open");
  off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) return Status::IoError(Errno("lseek WAL " + path_));
  std::vector<std::uint8_t> buf(static_cast<size_t>(end));
  if (end > 0) {
    ssize_t n = ::pread(fd_, buf.data(), buf.size(), 0);
    if (n != end) return Status::IoError(Errno("read WAL " + path_));
  }
  size_t pos = 0;
  while (pos < buf.size()) {
    auto frame = ReadFrame(buf, pos);
    if (!frame) break;  // torn tail
    auto rec = DecodeRecord(buf.data() + frame->payload, frame->len,
                            frame->checksum);
    if (!rec.ok()) {
      // An intact record after a damaged one means the log itself is
      // damaged: replaying past it or stopping at it would both lose
      // committed writes. Otherwise it is a torn write (cut short, or
      // space the file grew by whose data never reached the disk).
      if (!IntactFrameFrom(buf, frame->end())) break;
      static obs::Counter* corrupt = obs::MetricsRegistry::Global().GetCounter(
          "storage.wal.corrupt_records.total");
      corrupt->Increment();
      return Status::Corruption("WAL " + path_ + ": record at byte " +
                                std::to_string(pos) + ": " +
                                rec.status().message());
    }
    SEED_RETURN_IF_ERROR(apply(*rec));
    pos = frame->end();
  }
  if (pos == buf.size()) return Status::OK();
  // Cut the torn tail, so later appends follow the last intact record
  // instead of garbage that would hide them from the next replay.
  if (::ftruncate(fd_, static_cast<off_t>(pos)) != 0) {
    return Status::IoError(Errno("truncate torn WAL tail " + path_));
  }
  return Sync();
}

}  // namespace seed::storage
