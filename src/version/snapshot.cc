#include "version/snapshot.h"

#include "obs/metrics.h"

namespace seed::version {

namespace {

obs::Gauge* LiveGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("server.snapshot.live");
  return gauge;
}

}  // namespace

Snapshot::Snapshot(std::unique_ptr<core::Database> db, std::uint64_t epoch)
    : db_(std::move(db)), epoch_(epoch) {
  LiveGauge()->Add(1);
}

Snapshot::~Snapshot() { LiveGauge()->Add(-1); }

SnapshotPtr Snapshot::Capture(const core::Database& source,
                              std::uint64_t epoch) {
  return SnapshotPtr(new Snapshot(source.Copy(), epoch));
}

SnapshotPtr Snapshot::Recycling(std::unique_ptr<core::Database> db,
                                std::uint64_t epoch, Recycler recycle) {
  auto hand_back = [recycle = std::move(recycle)](Snapshot* snap) {
    std::unique_ptr<core::Database> released = std::move(snap->db_);
    const std::uint64_t released_epoch = snap->epoch_;
    delete snap;
    recycle(std::move(released), released_epoch);
  };
  return SnapshotPtr(new Snapshot(std::move(db), epoch), std::move(hand_back));
}

}  // namespace seed::version
