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

}  // namespace seed::version
