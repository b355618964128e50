#include "core/persistence.h"

#include "common/macros.h"
#include "core/item_codec.h"
#include "schema/schema_io.h"

namespace seed::core {

namespace {

Status PutBlob(storage::KvStore* kv, std::uint64_t key, const Encoder& enc) {
  return kv->Put(key, std::string_view(reinterpret_cast<const char*>(
                                           enc.bytes().data()),
                                       enc.size()));
}

Status SaveSchema(const Database& db, storage::KvStore* kv) {
  Encoder enc;
  schema::SchemaCodec::Encode(*db.schema(), &enc);
  return PutBlob(kv, Persistence::MetaKey(0), enc);
}

Status SaveIndexSpecs(const Database& db, storage::KvStore* kv) {
  Encoder enc;
  db.attribute_indexes().EncodeSpecs(&enc);
  return PutBlob(kv, Persistence::MetaKey(2), enc);
}

}  // namespace

Status Persistence::SaveFull(const Database& db, storage::KvStore* kv) {
  SEED_RETURN_IF_ERROR(SaveSchema(db, kv));
  SEED_RETURN_IF_ERROR(SaveIndexSpecs(db, kv));
  for (const auto& [id, obj] : db.objects_raw()) {
    SEED_RETURN_IF_ERROR(
        kv->Put(ObjectKey(id), ItemCodec::EncodeObjectToString(obj)));
  }
  for (const auto& [id, rel] : db.relationships_raw()) {
    SEED_RETURN_IF_ERROR(kv->Put(RelationshipKey(id),
                                 ItemCodec::EncodeRelationshipToString(rel)));
  }
  return kv->Checkpoint();
}

Status Persistence::SaveChanges(Database* db, storage::KvStore* kv) {
  // The schema may have evolved since the last SaveFull (MigrateToSchema);
  // items and index specs written below are only interpretable under the
  // schema they were created against, so keep the stored one current.
  SEED_RETURN_IF_ERROR(SaveSchema(*db, kv));
  const auto& objects = db->objects_raw();
  for (ObjectId id : db->changed_objects()) {
    auto it = objects.find(id);
    if (it == objects.end()) continue;  // vetoed creation, nothing to save
    SEED_RETURN_IF_ERROR(
        kv->Put(ObjectKey(id), ItemCodec::EncodeObjectToString(it->second)));
  }
  const auto& rels = db->relationships_raw();
  for (RelationshipId id : db->changed_relationships()) {
    auto it = rels.find(id);
    if (it == rels.end()) continue;
    SEED_RETURN_IF_ERROR(kv->Put(
        RelationshipKey(id),
        ItemCodec::EncodeRelationshipToString(it->second)));
  }
  if (db->attribute_indexes().specs_dirty()) {
    SEED_RETURN_IF_ERROR(SaveIndexSpecs(*db, kv));
    db->attribute_indexes_mutable().ClearSpecsDirty();
  }
  db->ClearChangeTracking();
  return Status::OK();
}

Result<std::unique_ptr<Database>> Persistence::Load(storage::KvStore* kv) {
  SEED_ASSIGN_OR_RETURN(std::string schema_bytes, kv->Get(MetaKey(0)));
  Decoder schema_dec(schema_bytes.data(), schema_bytes.size());
  SEED_ASSIGN_OR_RETURN(schema::SchemaPtr schema,
                        schema::SchemaCodec::Decode(&schema_dec));
  auto db = std::make_unique<Database>(schema);

  // Index definitions (absent in pre-index stores), registered before the
  // items so WriteItemStates() derives their entries in its one pass. A
  // spec that no longer validates against the stored schema is dropped
  // rather than making the whole store unloadable.
  if (auto spec_bytes = kv->Get(MetaKey(2)); spec_bytes.ok()) {
    Decoder spec_dec(spec_bytes->data(), spec_bytes->size());
    SEED_ASSIGN_OR_RETURN(auto specs,
                          index::IndexManager::DecodeSpecs(&spec_dec));
    for (index::IndexSpec& spec : specs) {
      (void)db->attribute_indexes_mutable().CreateIndex(*schema,
                                                        std::move(spec));
    }
  } else if (!spec_bytes.status().IsNotFound()) {
    // Absence means a pre-index store; any other failure must not be
    // mistaken for "no indexes" (the next save would erase the catalog).
    return spec_bytes.status();
  }

  ItemStates states;
  Status item_status = Status::OK();
  SEED_RETURN_IF_ERROR(
      kv->Scan([&](std::uint64_t key, std::string_view bytes) {
        if (!item_status.ok()) return;
        std::uint64_t tag = key >> 56;
        if (tag == 2) {
          auto obj = ItemCodec::DecodeObjectFromString(bytes);
          if (!obj.ok()) {
            item_status = obj.status();
            return;
          }
          states.objects[obj->id] = std::move(*obj);
        } else if (tag == 3) {
          auto rel = ItemCodec::DecodeRelationshipFromString(bytes);
          if (!rel.ok()) {
            item_status = rel.status();
            return;
          }
          states.relationships[rel->id] = std::move(*rel);
        }
      }));
  SEED_RETURN_IF_ERROR(item_status);
  db->WriteItemStates(std::move(states));
  db->ClearChangeTracking();
  db->attribute_indexes_mutable().ClearSpecsDirty();
  return db;
}

}  // namespace seed::core
