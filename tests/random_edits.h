// Test support for the randomized bulk-write and check-in suites: random
// consistent edits over the Fig. 3 schema, the items a database changed,
// and everything a database derives from its raw items as its public
// surface shows it.

#ifndef SEED_TESTS_RANDOM_EDITS_H_
#define SEED_TESTS_RANDOM_EDITS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/item_codec.h"
#include "spades/spec_schema.h"

namespace seed::test_support {

/// One random edit through the Database API. Edits the consistency rules
/// veto change nothing, so the database stays clean. Covers patterns,
/// role-keyed sub-objects, relationship attributes, reclassified objects
/// that fill relationship ends, and reclassified relationships.
inline void RandomEdit(const spades::Fig3Ids& ids, Random* rng,
                       core::Database* db, int* serial) {
  using core::Value;
  const std::vector<ObjectId> roots = db->AllIndependentObjects();
  const std::vector<ObjectId> patterns = db->AllPatternRoots();
  const std::vector<ObjectId> actions = db->ObjectsOfClass(ids.action);
  const std::vector<ClassId> data_classes = {ids.data, ids.input_data,
                                             ids.output_data};
  std::vector<ObjectId> subs;
  db->ForEachObject([&subs](const core::ObjectItem& obj) {
    if (!obj.is_independent() && !obj.is_pattern) subs.push_back(obj.id);
  });
  std::vector<RelationshipId> rels;
  db->ForEachRelationship(
      [&rels](const core::RelationshipItem& rel) { rels.push_back(rel.id); });
  auto text = [rng] {
    return Value::String("d" + std::to_string(rng->Uniform(5)));
  };
  auto data_of = [db](ClassId cls) { return db->ObjectsOfClass(cls); };

  switch (rng->Uniform(12)) {
    case 0: {  // an independent object, now and then a pattern
      ClassId cls =
          rng->Bernoulli(0.4) ? ids.action : rng->Pick(data_classes);
      core::CreateOptions opts;
      opts.pattern = rng->Bernoulli(0.1);
      (void)db->CreateObject(cls, "N" + std::to_string((*serial)++), opts);
      break;
    }
    case 1: {  // a described root
      if (roots.empty()) break;
      auto desc = db->CreateSubObject(rng->Pick(roots), "Description");
      if (desc.ok()) (void)db->SetValue(*desc, text());
      break;
    }
    case 2: {  // a data root's text body with a keyword
      std::vector<ObjectId> data = data_of(ids.data);
      if (data.empty()) break;
      auto body_text = db->CreateSubObject(rng->Pick(data), "Text");
      if (!body_text.ok()) break;
      auto body = db->CreateSubObject(*body_text, "Body");
      if (!body.ok()) break;
      auto keyword = db->CreateSubObject(*body, "Keywords");
      if (keyword.ok()) (void)db->SetValue(*keyword, text());
      break;
    }
    case 3: {  // set or clear a value, relationship attributes included
      if (subs.empty()) break;
      ObjectId sub = rng->Pick(subs);
      if (rng->Bernoulli(0.2)) {
        (void)db->ClearValue(sub);
      } else if ((*db->GetObject(sub))->cls == ids.number_of_writes) {
        (void)db->SetValue(sub, Value::Int(rng->UniformRange(1, 9)));
      } else {
        (void)db->SetValue(sub, text());
      }
      break;
    }
    case 4: {  // rename a root
      if (roots.empty()) break;
      (void)db->Rename(rng->Pick(roots), "R" + std::to_string((*serial)++));
      break;
    }
    case 5: {  // delete a root or a sub-object
      if (!rng->Bernoulli(0.5)) break;
      bool sub = rng->Bernoulli(0.5) && !subs.empty();
      if (!sub && roots.empty()) break;
      (void)db->DeleteObject(sub ? rng->Pick(subs) : rng->Pick(roots));
      break;
    }
    case 6: {  // reclassify a data root, ends and all
      std::vector<ObjectId> data = data_of(ids.data);
      if (data.empty()) break;
      (void)db->Reclassify(rng->Pick(data), rng->Pick(data_classes));
      break;
    }
    case 7: {  // relate data to an action, or nest two actions
      if (actions.empty()) break;
      switch (rng->Uniform(4)) {
        case 0: {
          std::vector<ObjectId> data = data_of(ids.data);
          if (data.empty()) break;
          (void)db->CreateRelationship(ids.access, rng->Pick(data),
                                       rng->Pick(actions));
          break;
        }
        case 1: {
          std::vector<ObjectId> inputs = data_of(ids.input_data);
          if (inputs.empty()) break;
          (void)db->CreateRelationship(ids.read, rng->Pick(inputs),
                                       rng->Pick(actions));
          break;
        }
        case 2: {
          std::vector<ObjectId> outputs = data_of(ids.output_data);
          if (outputs.empty()) break;
          auto rel = db->CreateRelationship(ids.write, rng->Pick(outputs),
                                            rng->Pick(actions));
          if (!rel.ok()) break;
          auto count = db->CreateSubObject(*rel, "NumberOfWrites");
          if (count.ok()) {
            (void)db->SetValue(*count, Value::Int(rng->UniformRange(1, 9)));
          }
          break;
        }
        default:
          (void)db->CreateRelationship(ids.contained, rng->Pick(actions),
                                       rng->Pick(actions));
      }
      break;
    }
    case 8: {  // delete a relationship
      if (rels.empty() || !rng->Bernoulli(0.5)) break;
      (void)db->DeleteRelationship(rng->Pick(rels));
      break;
    }
    case 9: {  // reclassify a relationship within Access
      if (rels.empty()) break;
      RelationshipId rid = rng->Pick(rels);
      AssociationId assoc = (*db->GetRelationship(rid))->assoc;
      AssociationId to = assoc == ids.access
                             ? (rng->Bernoulli(0.5) ? ids.read : ids.write)
                             : ids.access;
      (void)db->ReclassifyRelationship(rid, to);
      break;
    }
    case 10: {  // a pattern relationship among roots and patterns
      std::vector<ObjectId> ends = actions;
      for (ObjectId id : patterns) {
        if ((*db->GetObject(id))->cls == ids.action) ends.push_back(id);
      }
      if (ends.empty()) break;
      core::CreateOptions opts;
      opts.pattern = true;
      (void)db->CreateRelationship(ids.contained, rng->Pick(ends),
                                   rng->Pick(ends), opts);
      break;
    }
    default: {  // rename or delete a pattern root
      if (patterns.empty()) break;
      ObjectId pattern = rng->Pick(patterns);
      if (rng->Bernoulli(0.5)) {
        (void)db->Rename(pattern, "P" + std::to_string((*serial)++));
      } else {
        (void)db->DeleteObject(pattern);
      }
    }
  }
}

/// The current states of the items `db` changed since the last call, as a
/// batch for WriteItemStates; clears the change tracking.
inline core::ItemStates TakeChanges(core::Database* db) {
  core::ItemStates states;
  for (ObjectId id : db->changed_objects()) {
    auto it = db->objects_raw().find(id);
    if (it != db->objects_raw().end()) states.objects.emplace(id, it->second);
  }
  for (RelationshipId id : db->changed_relationships()) {
    auto it = db->relationships_raw().find(id);
    if (it != db->relationships_raw().end()) {
      states.relationships.emplace(id, it->second);
    }
  }
  db->ClearChangeTracking();
  return states;
}

/// The raw items, tombstones included, as "o<id>"/"r<id>" -> bytes.
inline std::map<std::string, std::string> RawItems(const core::Database& db) {
  std::map<std::string, std::string> out;
  for (const auto& [id, obj] : db.objects_raw()) {
    out["o" + std::to_string(id.raw())] =
        core::ItemCodec::EncodeObjectToString(obj);
  }
  for (const auto& [id, rel] : db.relationships_raw()) {
    out["r" + std::to_string(id.raw())] =
        core::ItemCodec::EncodeRelationshipToString(rel);
  }
  return out;
}

/// Everything `db` derives from its raw items, one line per fact:
/// live counts; per class and association the extent, participant and
/// degree counters and the extents' members; per item its relationships
/// and the objects linked to it; name and path lookups; and every
/// attribute index's entries.
inline std::vector<std::string> DerivedState(const core::Database& db) {
  std::vector<std::string> out;
  auto ids = [](const auto& list) {
    std::string s;
    for (auto id : list) s += " " + std::to_string(id.raw());
    return s;
  };
  const schema::Schema& schema = *db.schema();
  const core::ExtentCounters& counters = db.extent_counters();
  out.push_back("live " + std::to_string(db.num_live_objects()) + " " +
                std::to_string(db.num_live_relationships()));
  const std::vector<ClassId> classes = schema.AllClassIds();
  for (ClassId cls : classes) {
    out.push_back("class " + std::to_string(cls.raw()) + " " +
                  std::to_string(counters.CountClass(cls)) + " exact" +
                  ids(db.ObjectsOfClass(cls, false)) + " family" +
                  ids(db.ObjectsOfClass(cls, true)));
  }
  for (AssociationId assoc : schema.AllAssociationIds()) {
    std::string line = "assoc " + std::to_string(assoc.raw()) + " " +
                       std::to_string(counters.CountAssociation(assoc)) +
                       " exact" +
                       ids(db.RelationshipsOfAssociation(assoc, false)) +
                       " family" +
                       ids(db.RelationshipsOfAssociation(assoc, true));
    for (int role = 0; role < 2; ++role) {
      for (ClassId cls : classes) {
        auto degree = counters.DegreeStats(schema, assoc, role, cls, false);
        line += " " + std::to_string(counters.CountParticipants(assoc, role,
                                                               cls)) +
                "/" + std::to_string(degree.ends) + "/" +
                std::to_string(degree.distinct) + "/" +
                std::to_string(degree.max_degree_upper);
      }
    }
    out.push_back(line);
  }
  for (const auto& [id, obj] : db.objects_raw()) {
    out.push_back("rels " + std::to_string(id.raw()) +
                  ids(db.RelationshipsOf(id)) + " patterns" +
                  ids(db.PatternRelationshipsOf(id)) + " linked" +
                  ids(db.ObjectsLinkedTo(id)));
    if (obj.deleted || obj.parent_kind == core::ParentKind::kRelationship) {
      continue;
    }
    std::string path = db.FullName(id);
    if (path.find('<') != std::string::npos) continue;
    auto found = obj.is_pattern ? db.FindPatternByName(path)
                                : db.FindObjectByName(path);
    out.push_back("name " + path + " " +
                  (found.ok() ? std::to_string(found->raw()) : "-"));
  }
  for (const auto& [id, rel] : db.relationships_raw()) {
    out.push_back("attributes " + std::to_string(id.raw()) +
                  ids(db.ObjectsLinkedTo(id)));
  }
  out.push_back("roots" + ids(db.AllIndependentObjects()) + " patterns" +
                ids(db.AllPatternRoots()));
  for (const auto& idx : db.attribute_indexes().indexes()) {
    std::string head = "index " + idx->spec().ToString() + " " +
                       std::to_string(idx->num_entries()) + " " +
                       std::to_string(idx->num_distinct_keys()) + " " +
                       std::to_string(idx->num_objects());
    out.push_back(head);
    auto put = [&out, &head](const core::Value& key, std::uint64_t id) {
      out.push_back(head + " " + key.ToString() + " " + std::to_string(id));
    };
    if (idx->spec().on_relationships()) {
      idx->ForEachRel([&put](const core::Value& key, RelationshipId id) {
        put(key, id.raw());
      });
    } else {
      idx->ForEach([&put](const core::Value& key, ObjectId id) {
        put(key, id.raw());
      });
    }
  }
  return out;
}

/// What RebuildIndexes derives from the raw items of `db`.
inline std::vector<std::string> RebuiltState(const core::Database& db) {
  std::unique_ptr<core::Database> rebuilt = db.Copy();
  rebuilt->RebuildIndexes();
  return DerivedState(*rebuilt);
}

}  // namespace seed::test_support

#endif  // SEED_TESTS_RANDOM_EDITS_H_
