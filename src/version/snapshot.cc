#include "version/snapshot.h"

namespace seed::version {

SnapshotPtr Snapshot::Capture(const core::Database& source,
                              std::uint64_t epoch) {
  auto db = std::make_unique<core::Database>(source.schema());
  // Index specs first, so the one derivation pass fills their entries and
  // probe-served queries plan identically on the snapshot and the master.
  for (const auto& idx : source.attribute_indexes().indexes()) {
    (void)db->attribute_indexes_mutable().CreateIndex(*source.schema(),
                                                      idx->spec());
  }
  // Raw item states, tombstones included: a snapshot must replay the
  // master byte-for-byte (deleted markers drive version history and keep
  // id generators from re-issuing), not just its live view.
  core::ItemStates states;
  states.objects = source.objects_raw();
  states.relationships = source.relationships_raw();
  db->WriteItemStates(std::move(states));
  // Readers never check in, so the copy's change tracking is noise.
  db->ClearChangeTracking();
  return SnapshotPtr(new Snapshot(std::move(db), epoch));
}

}  // namespace seed::version
