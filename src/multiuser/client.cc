#include "multiuser/client.h"

#include "common/macros.h"

#include <algorithm>

namespace seed::multiuser {

Result<std::unique_ptr<ClientSession>> ClientSession::Open(
    Server* server, std::string name) {
  SEED_ASSIGN_OR_RETURN(ClientId id, server->Connect(std::move(name)));
  SEED_ASSIGN_OR_RETURN(std::uint64_t stripe, server->IdStripeBase(id));
  return std::unique_ptr<ClientSession>(
      new ClientSession(server, id, stripe));
}

ClientSession::ClientSession(Server* server, ClientId id,
                             std::uint64_t stripe_base)
    : server_(server),
      id_(id),
      stripe_base_(stripe_base),
      object_id_watermark_(stripe_base),
      relationship_id_watermark_(stripe_base) {
  ResetLocal();
}

ClientSession::~ClientSession() { (void)server_->Disconnect(id_); }

void ClientSession::CaptureWatermarks() {
  // Called only at points where the generators sit inside this client's
  // stripe (imports immediately re-pin them, see ImportBundle). Remember
  // how far the workspace got: those ids may already live in the master
  // from an earlier check-in and must never be reissued.
  if (local_ == nullptr) return;
  object_id_watermark_ =
      std::max(object_id_watermark_, local_->object_ids().next_raw() - 1);
  relationship_id_watermark_ =
      std::max(relationship_id_watermark_,
               local_->relationship_ids().next_raw() - 1);
}

void ClientSession::ResetLocal() {
  CaptureWatermarks();
  local_ = std::make_unique<core::Database>(server_->schema());
  // New local items draw ids from the client's private stripe, above every
  // id this client ever used.
  local_->object_ids().ResetTo(object_id_watermark_ + 1);
  local_->relationship_ids().ResetTo(relationship_id_watermark_ + 1);
  local_versions_ = std::make_unique<version::VersionManager>(local_.get());
}

void ClientSession::ImportBundle(const CheckoutBundle& bundle) {
  // Capture before the write below bumps the generators with foreign
  // (other-stripe) item ids.
  CaptureWatermarks();
  core::ItemStates states;
  for (const core::ObjectItem& obj : bundle.objects) {
    states.objects[obj.id] = obj;
  }
  for (const core::RelationshipItem& rel : bundle.relationships) {
    states.relationships[rel.id] = rel;
  }
  local_->WriteItemStates(std::move(states));
  // The write reserved through every imported id (possibly in another
  // client's stripe); pin the generators back into this client's range,
  // above everything it ever issued.
  local_->object_ids().ResetTo(object_id_watermark_ + 1);
  local_->relationship_ids().ResetTo(relationship_id_watermark_ + 1);
  // Imported items are unchanged as far as the next check-in is concerned.
  local_->ClearChangeTracking();
}

Status ClientSession::CheckoutByName(const std::vector<std::string>& names) {
  std::vector<ObjectId> roots;
  for (const std::string& name : names) {
    // ResolveRoot reads the master under the server's write serialization
    // — never the session snapshot, which may predate the root.
    SEED_ASSIGN_OR_RETURN(ObjectId id, server_->ResolveRoot(name));
    roots.push_back(id);
  }
  return Checkout(roots);
}

Status ClientSession::Checkout(const std::vector<ObjectId>& roots) {
  SEED_ASSIGN_OR_RETURN(CheckoutBundle bundle,
                        server_->Checkout(id_, roots));
  ImportBundle(bundle);
  return Status::OK();
}

Status ClientSession::Checkin(std::uint64_t* commit_seq,
                              CheckinBundle* shipped) {
  CheckinBundle bundle;
  const auto& objects = local_->objects_raw();
  for (ObjectId oid : local_->changed_objects()) {
    auto it = objects.find(oid);
    if (it != objects.end()) bundle.objects.push_back(it->second);
  }
  const auto& rels = local_->relationships_raw();
  for (RelationshipId rid : local_->changed_relationships()) {
    auto it = rels.find(rid);
    if (it != rels.end()) bundle.relationships.push_back(it->second);
  }
  SEED_RETURN_IF_ERROR(server_->Checkin(id_, bundle, commit_seq));
  if (shipped != nullptr) *shipped = bundle;
  ResetLocal();
  return Status::OK();
}

Status ClientSession::Abandon() {
  SEED_RETURN_IF_ERROR(
      server_->ReleaseLocks(id_, server_->LocksOf(id_)));
  ResetLocal();
  return Status::OK();
}

}  // namespace seed::multiuser
