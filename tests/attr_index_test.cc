// Attribute-index subsystem tests: CREATE INDEX semantics, incremental
// maintenance through every mutation path (create, update, delete,
// reclassify, version restore), planner rewrites with scan/index result
// identity (including the paper's vague-value semantics), persistence of
// index definitions, and a randomized property test checking that
// incremental maintenance always matches a from-scratch rebuild.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/persistence.h"
#include "index/index_manager.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "schema/schema_builder.h"
#include "spades/spec_schema.h"
#include "storage/kv_store.h"
#include "version/version_manager.h"

namespace seed {
namespace {

using core::Database;
using core::Value;
using index::IndexSpec;
using query::Planner;
using query::Predicate;

/// Sensor (INT, with Label STRING 0..4) generalized by CalibratedSensor.
struct PlantSchema {
  schema::SchemaPtr schema;
  ClassId sensor, calibrated, label;
};

PlantSchema BuildPlantSchema() {
  schema::SchemaBuilder b("Plant");
  PlantSchema out;
  out.sensor = b.AddIndependentClass("Sensor", schema::ValueType::kInt);
  out.calibrated =
      b.AddIndependentClass("CalibratedSensor", schema::ValueType::kInt);
  b.SetGeneralization(out.calibrated, out.sensor);
  out.label = b.AddDependentClass(out.sensor, "Label",
                                  schema::Cardinality(0, 4),
                                  schema::ValueType::kString);
  auto schema = b.Build();
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  out.schema = *schema;
  return out;
}

class AttrIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    plant_ = BuildPlantSchema();
    db_ = std::make_unique<Database>(plant_.schema);
  }

  ObjectId MakeSensor(const std::string& name, std::int64_t value,
                      ClassId cls = ClassId()) {
    auto id = db_->CreateObject(cls.valid() ? cls : plant_.sensor, name);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(db_->SetValue(*id, Value::Int(value)).ok());
    return *id;
  }

  /// The scan-path ground truth the planner must reproduce.
  std::vector<ObjectId> ScanIds(ClassId cls, const Predicate& p,
                                bool include_specializations = true) {
    std::vector<ObjectId> out;
    for (ObjectId id : db_->ObjectsOfClass(cls, include_specializations)) {
      if (p.Eval(*db_, id)) out.push_back(id);
    }
    return out;
  }

  PlantSchema plant_;
  std::unique_ptr<Database> db_;
};

TEST_F(AttrIndexTest, CreateValidatesSpec) {
  EXPECT_TRUE(db_->CreateAttributeIndex({plant_.sensor, ""}).ok());
  // Duplicate.
  EXPECT_TRUE(db_->CreateAttributeIndex({plant_.sensor, ""})
                  .IsAlreadyExists());
  // Unknown class.
  EXPECT_FALSE(db_->CreateAttributeIndex({ClassId(999), ""}).ok());
  // Unknown role.
  EXPECT_FALSE(db_->CreateAttributeIndex({plant_.sensor, "Bogus"}).ok());
  // Resolvable role is fine.
  EXPECT_TRUE(db_->CreateAttributeIndex({plant_.sensor, "Label"}).ok());
  EXPECT_EQ(db_->attribute_indexes().size(), 2u);

  EXPECT_TRUE(db_->DropAttributeIndex(plant_.sensor, "Label").ok());
  EXPECT_TRUE(db_->DropAttributeIndex(plant_.sensor, "Label").IsNotFound());
  EXPECT_EQ(db_->attribute_indexes().size(), 1u);
}

TEST_F(AttrIndexTest, BackfillsExistingObjects) {
  MakeSensor("S1", 7);
  MakeSensor("S2", 7);
  MakeSensor("S3", 9);
  ASSERT_TRUE(db_->CreateAttributeIndex({plant_.sensor, ""}).ok());
  const index::AttributeIndex* idx =
      db_->attribute_indexes().Find({plant_.sensor, ""});
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->num_objects(), 3u);
  EXPECT_EQ(idx->num_distinct_keys(), 2u);
  EXPECT_EQ(idx->Lookup(Value::Int(7)).size(), 2u);
}

TEST_F(AttrIndexTest, PlannerUsesEqualityIndexWithIdenticalResults) {
  for (int i = 0; i < 50; ++i) {
    MakeSensor("S" + std::to_string(i), i % 10);
  }
  // A vague sensor: exists but no value; must match nothing on both paths.
  ASSERT_TRUE(db_->CreateObject(plant_.sensor, "Vague").ok());
  ASSERT_TRUE(db_->CreateAttributeIndex({plant_.sensor, ""}).ok());

  Planner planner(db_.get());
  Predicate eq = Predicate::ValueEquals(Value::Int(3));
  auto plan = planner.PlanSelect(plant_.sensor, eq);
  EXPECT_EQ(plan.kind, Planner::Plan::Kind::kIndexEquals);
  EXPECT_EQ(planner.SelectIds(plant_.sensor, eq), ScanIds(plant_.sensor, eq));

  // Range comparisons use the ordered map.
  Predicate range = Predicate::IntGreater(6);
  plan = planner.PlanSelect(plant_.sensor, range);
  EXPECT_EQ(plan.kind, Planner::Plan::Kind::kIndexRange);
  EXPECT_EQ(planner.SelectIds(plant_.sensor, range),
            ScanIds(plant_.sensor, range));

  Predicate less = Predicate::IntLess(2);
  EXPECT_EQ(planner.SelectIds(plant_.sensor, less),
            ScanIds(plant_.sensor, less));

  // Conjunction: index probe plus residual filter.
  Predicate conj = Predicate::ValueEquals(Value::Int(3))
                       .And(Predicate::NameContains("3"));
  plan = planner.PlanSelect(plant_.sensor, conj);
  EXPECT_TRUE(plan.uses_index());
  EXPECT_EQ(planner.SelectIds(plant_.sensor, conj),
            ScanIds(plant_.sensor, conj));

  // OR of equalities: multi-key probe.
  Predicate either = Predicate::ValueEquals(Value::Int(3))
                         .Or(Predicate::ValueEquals(Value::Int(5)));
  plan = planner.PlanSelect(plant_.sensor, either);
  EXPECT_EQ(plan.kind, Planner::Plan::Kind::kIndexEquals);
  ASSERT_EQ(plan.legs.size(), 1u);
  EXPECT_EQ(plan.legs[0].keys.size(), 2u);
  EXPECT_EQ(planner.SelectIds(plant_.sensor, either),
            ScanIds(plant_.sensor, either));

  // Opaque and non-sargable predicates fall back to the scan.
  Predicate opaque{Predicate::Fn(
      [](const Database& /*db*/, ObjectId id) { return id.raw() % 2 == 0; })};
  EXPECT_EQ(planner.PlanSelect(plant_.sensor, opaque).kind,
            Planner::Plan::Kind::kFullScan);
  EXPECT_EQ(planner.SelectIds(plant_.sensor, opaque),
            ScanIds(plant_.sensor, opaque));

  // ... but a conjunction with an opaque filter still probes the index on
  // the sargable conjunct; the opaque part runs as residual.
  Predicate half_opaque = Predicate::ValueEquals(Value::Int(3)).And(opaque);
  EXPECT_EQ(planner.PlanSelect(plant_.sensor, half_opaque).kind,
            Planner::Plan::Kind::kIndexEquals);
  EXPECT_EQ(planner.SelectIds(plant_.sensor, half_opaque),
            ScanIds(plant_.sensor, half_opaque));
  // A name equality needs no attribute index: it probes the name index.
  EXPECT_EQ(planner.PlanSelect(plant_.sensor, Predicate::NameIs("S1")).kind,
            Planner::Plan::Kind::kNameEquals);
  EXPECT_EQ(planner.SelectIds(plant_.sensor, Predicate::NameIs("S1")),
            ScanIds(plant_.sensor, Predicate::NameIs("S1")));

  // A disjunction with a non-equality branch cannot use the index.
  Predicate mixed = Predicate::ValueEquals(Value::Int(3))
                        .Or(Predicate::NameContains("4"));
  EXPECT_EQ(planner.PlanSelect(plant_.sensor, mixed).kind,
            Planner::Plan::Kind::kFullScan);
  EXPECT_EQ(planner.SelectIds(plant_.sensor, mixed),
            ScanIds(plant_.sensor, mixed));
}

TEST_F(AttrIndexTest, SelectIdsMatchesAlgebraSelect) {
  for (int i = 0; i < 20; ++i) MakeSensor("S" + std::to_string(i), i % 4);
  ASSERT_TRUE(db_->CreateAttributeIndex({plant_.sensor, ""}).ok());

  query::Algebra algebra(db_.get());
  Planner planner(db_.get());
  Predicate eq = Predicate::ValueEquals(Value::Int(2));
  auto extent = algebra.ClassExtent(plant_.sensor, "s");
  auto scanned = algebra.Select(extent, "s", eq);
  ASSERT_TRUE(scanned.ok());
  std::vector<std::vector<ObjectId>> planned;
  for (ObjectId id : planner.SelectIds(plant_.sensor, eq)) {
    planned.push_back({id});
  }
  EXPECT_EQ(planned, scanned->tuples);
}

TEST_F(AttrIndexTest, MaintenanceThroughUpdateAndDelete) {
  ObjectId a = MakeSensor("A", 1);
  ObjectId b = MakeSensor("B", 1);
  ASSERT_TRUE(db_->CreateAttributeIndex({plant_.sensor, ""}).ok());
  const index::AttributeIndex* idx =
      db_->attribute_indexes().Find({plant_.sensor, ""});
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->Lookup(Value::Int(1)).size(), 2u);

  ASSERT_TRUE(db_->SetValue(a, Value::Int(2)).ok());
  EXPECT_EQ(idx->Lookup(Value::Int(1)), std::vector<ObjectId>{b});
  EXPECT_EQ(idx->Lookup(Value::Int(2)), std::vector<ObjectId>{a});

  // ClearValue makes the object vague: it leaves the index entirely.
  ASSERT_TRUE(db_->ClearValue(a).ok());
  EXPECT_TRUE(idx->Lookup(Value::Int(2)).empty());
  EXPECT_EQ(idx->num_objects(), 1u);

  ASSERT_TRUE(db_->DeleteObject(b).ok());
  EXPECT_EQ(idx->num_entries(), 0u);
}

TEST_F(AttrIndexTest, RoleIndexTracksSubObjectValues) {
  ObjectId s = MakeSensor("S", 1);
  // Filler population: with a cost-based planner, index probes only win
  // once the extent is large enough to out-cost the probe overhead.
  for (int i = 0; i < 20; ++i) MakeSensor("Pad" + std::to_string(i), 50 + i);
  ASSERT_TRUE(db_->CreateAttributeIndex({plant_.sensor, "Label"}).ok());
  const index::AttributeIndex* idx =
      db_->attribute_indexes().Find({plant_.sensor, "Label"});
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->num_entries(), 0u);

  auto l0 = db_->CreateSubObject(s, "Label");
  ASSERT_TRUE(l0.ok());
  // Sub-object exists but is undefined: still not indexed.
  EXPECT_EQ(idx->num_entries(), 0u);
  ASSERT_TRUE(db_->SetValue(*l0, Value::String("temp")).ok());
  EXPECT_EQ(idx->Lookup(Value::String("temp")), std::vector<ObjectId>{s});

  // Multi-valued role: a second label adds a second key for the same
  // object.
  auto l1 = db_->CreateSubObject(s, "Label");
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(db_->SetValue(*l1, Value::String("outdoor")).ok());
  EXPECT_EQ(idx->num_entries(), 2u);
  EXPECT_EQ(idx->Lookup(Value::String("outdoor")), std::vector<ObjectId>{s});

  // The planner answers OnSubObject predicates from the role index.
  Planner planner(db_.get());
  Predicate p = Predicate::OnSubObject(
      "Label", Predicate::ValueEquals(Value::String("outdoor")));
  EXPECT_EQ(planner.PlanSelect(plant_.sensor, p).kind,
            Planner::Plan::Kind::kIndexEquals);
  EXPECT_EQ(planner.SelectIds(plant_.sensor, p), ScanIds(plant_.sensor, p));

  // Deleting the sub-object removes its contribution.
  ASSERT_TRUE(db_->DeleteObject(*l1).ok());
  EXPECT_TRUE(idx->Lookup(Value::String("outdoor")).empty());
  EXPECT_EQ(idx->Lookup(Value::String("temp")), std::vector<ObjectId>{s});
}

TEST_F(AttrIndexTest, ReclassifyMigratesEntriesBetweenExtents) {
  // Two exact (no-specialization) indexes, one per extent on the
  // generalization path.
  ASSERT_TRUE(
      db_->CreateAttributeIndex({plant_.sensor, "", false}).ok());
  ASSERT_TRUE(
      db_->CreateAttributeIndex({plant_.calibrated, "", false}).ok());
  const index::AttributeIndex* sensor_idx =
      db_->attribute_indexes().Find({plant_.sensor, "", false});
  const index::AttributeIndex* calibrated_idx =
      db_->attribute_indexes().Find({plant_.calibrated, "", false});
  ASSERT_NE(sensor_idx, nullptr);
  ASSERT_NE(calibrated_idx, nullptr);

  ObjectId s = MakeSensor("S", 42);
  EXPECT_EQ(sensor_idx->Lookup(Value::Int(42)), std::vector<ObjectId>{s});
  EXPECT_TRUE(calibrated_idx->Lookup(Value::Int(42)).empty());

  // The paper's signature operation: moving the object down the hierarchy
  // must move its index entries to the new extent.
  ASSERT_TRUE(db_->Reclassify(s, plant_.calibrated).ok());
  EXPECT_TRUE(sensor_idx->Lookup(Value::Int(42)).empty());
  EXPECT_EQ(calibrated_idx->Lookup(Value::Int(42)),
            std::vector<ObjectId>{s});

  // And back up.
  ASSERT_TRUE(db_->Reclassify(s, plant_.sensor).ok());
  EXPECT_EQ(sensor_idx->Lookup(Value::Int(42)), std::vector<ObjectId>{s});
  EXPECT_TRUE(calibrated_idx->Lookup(Value::Int(42)).empty());
}

TEST_F(AttrIndexTest, FamilyIndexServesSpecializedExtentQueries) {
  ASSERT_TRUE(db_->CreateAttributeIndex({plant_.sensor, ""}).ok());
  MakeSensor("Plain", 5);
  ObjectId c = MakeSensor("Calib", 5, plant_.calibrated);
  // Filler population so the probe out-costs the (family) extent scan.
  for (int i = 0; i < 20; ++i) {
    MakeSensor("Pad" + std::to_string(i), 50 + i, plant_.calibrated);
  }

  Planner planner(db_.get());
  Predicate eq = Predicate::ValueEquals(Value::Int(5));
  // Query over the CalibratedSensor extent: the broader Sensor-family
  // index covers it; the residual extent filter drops the plain sensor.
  auto plan = planner.PlanSelect(plant_.calibrated, eq);
  EXPECT_TRUE(plan.uses_index());
  EXPECT_EQ(planner.SelectIds(plant_.calibrated, eq),
            std::vector<ObjectId>{c});
  // Exact query on Sensor likewise uses it, filtering specializations out.
  EXPECT_EQ(planner.SelectIds(plant_.sensor, eq, /*include_spec=*/false),
            ScanIds(plant_.sensor, eq, false));
}

TEST_F(AttrIndexTest, TextualQueriesGoThroughThePlanner) {
  MakeSensor("S1", 7);
  MakeSensor("S2", 8);
  ObjectId s3 = MakeSensor("S3", 7);
  auto label = db_->CreateSubObject(s3, "Label");
  ASSERT_TRUE(label.ok());
  ASSERT_TRUE(db_->SetValue(*label, Value::String("hot")).ok());
  ASSERT_TRUE(db_->CreateAttributeIndex({plant_.sensor, ""}).ok());
  ASSERT_TRUE(db_->CreateAttributeIndex({plant_.sensor, "Label"}).ok());

  auto r1 = query::RunQuery(*db_, "find Sensor where value is 7");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->size(), 2u);
  auto r2 = query::RunQuery(*db_, "find Sensor where Label is \"hot\"");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, std::vector<ObjectId>{s3});
}

TEST_F(AttrIndexTest, DefinitionsSurviveSaveAndLoad) {
  namespace fs = std::filesystem;
  fs::path dir =
      fs::temp_directory_path() / "seed_attr_index_persist_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  MakeSensor("S1", 3);
  MakeSensor("S2", 4);
  ASSERT_TRUE(db_->CreateAttributeIndex({plant_.sensor, ""}).ok());
  ASSERT_TRUE(db_->CreateAttributeIndex({plant_.sensor, "Label"}).ok());
  {
    storage::KvStore kv;
    ASSERT_TRUE(kv.Open(dir.string()).ok());
    ASSERT_TRUE(core::Persistence::SaveFull(*db_, &kv).ok());
    ASSERT_TRUE(kv.Close().ok());
  }
  storage::KvStore kv;
  ASSERT_TRUE(kv.Open(dir.string()).ok());
  auto loaded = core::Persistence::Load(&kv);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& manager = (*loaded)->attribute_indexes();
  EXPECT_EQ(manager.size(), 2u);
  EXPECT_FALSE(manager.specs_dirty());
  const index::AttributeIndex* idx = manager.Find({plant_.sensor, ""});
  ASSERT_NE(idx, nullptr);
  // Entries were re-derived from the restored items.
  EXPECT_EQ(idx->num_objects(), 2u);
  EXPECT_EQ(idx->Lookup(Value::Int(3)).size(), 1u);
  ASSERT_TRUE(kv.Close().ok());
  fs::remove_all(dir);
}

TEST_F(AttrIndexTest, SaveChangesPersistsEvolvedSchemaWithSpecs) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "seed_attr_index_evolve_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  storage::KvStore kv;
  ASSERT_TRUE(kv.Open(dir.string()).ok());
  ASSERT_TRUE(core::Persistence::SaveFull(*db_, &kv).ok());

  // Evolve the schema, index the new class, save only the changes: the
  // reloaded store must know both the class and the index.
  auto b = schema::SchemaBuilder::Evolve(*plant_.schema);
  ClassId gauge = b.AddIndependentClass("Gauge", schema::ValueType::kInt);
  auto evolved = b.Build();
  ASSERT_TRUE(evolved.ok());
  ASSERT_TRUE(db_->MigrateToSchema(*evolved).ok());
  ObjectId g = *db_->CreateObject(gauge, "G1");
  ASSERT_TRUE(db_->SetValue(g, Value::Int(11)).ok());
  ASSERT_TRUE(db_->CreateAttributeIndex({gauge, ""}).ok());
  ASSERT_TRUE(core::Persistence::SaveChanges(db_.get(), &kv).ok());
  ASSERT_TRUE(kv.Close().ok());

  storage::KvStore kv2;
  ASSERT_TRUE(kv2.Open(dir.string()).ok());
  auto loaded = core::Persistence::Load(&kv2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->schema()->version(), plant_.schema->version() + 1);
  const index::AttributeIndex* idx =
      (*loaded)->attribute_indexes().Find({gauge, ""});
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->Lookup(Value::Int(11)).size(), 1u);
  ASSERT_TRUE(kv2.Close().ok());
  fs::remove_all(dir);
}

TEST_F(AttrIndexTest, DecodesUntaggedV1SpecCatalogs) {
  // Catalogs written before relationship-side indexes carry no format
  // marker and no per-spec extent tag: (count, then cls/role/bool per
  // spec). Loading such a store must still work.
  Encoder enc;
  enc.PutVarint(2);
  enc.PutVarint(plant_.sensor.raw());
  enc.PutString("");
  enc.PutBool(true);
  enc.PutVarint(plant_.sensor.raw());
  enc.PutString("Label");
  enc.PutBool(false);

  Decoder dec(enc.bytes());
  auto specs = index::IndexManager::DecodeSpecs(&dec);
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 2u);
  EXPECT_EQ((*specs)[0], (IndexSpec{plant_.sensor, ""}));
  EXPECT_EQ((*specs)[1], (IndexSpec{plant_.sensor, "Label", false}));
  EXPECT_FALSE((*specs)[0].on_relationships());
}

TEST_F(AttrIndexTest, VersionRestoreRebuildsEntries) {
  version::VersionManager vm(db_.get());
  ObjectId s = MakeSensor("S", 1);
  ASSERT_TRUE(db_->CreateAttributeIndex({plant_.sensor, ""}).ok());
  auto v1 = vm.CreateVersion();
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();

  ASSERT_TRUE(db_->SetValue(s, Value::Int(2)).ok());
  MakeSensor("T", 3);
  auto v2 = vm.CreateVersion();
  ASSERT_TRUE(v2.ok());

  // Select the old version: the restore path must leave the index exactly
  // describing the restored state.
  ASSERT_TRUE(vm.SelectVersion(*v1).ok());
  const index::AttributeIndex* idx =
      db_->attribute_indexes().Find({plant_.sensor, ""});
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->num_objects(), 1u);
  EXPECT_EQ(idx->Lookup(Value::Int(1)).size(), 1u);
  EXPECT_TRUE(idx->Lookup(Value::Int(2)).empty());
  EXPECT_TRUE(idx->Lookup(Value::Int(3)).empty());
}

// --- Property test: incremental maintenance == from-scratch rebuild ---------

using Listing = std::vector<std::pair<std::string, std::uint64_t>>;

Listing Dump(const index::AttributeIndex& idx) {
  Listing out;
  idx.ForEach([&out](const Value& key, ObjectId id) {
    out.emplace_back(key.ToString(), id.raw());
  });
  return out;
}

TEST_F(AttrIndexTest, PropertyRandomOpsMatchFromScratchRebuild) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SetUp();  // fresh database per seed
    Random rng(seed);
    version::VersionManager vm(db_.get());
    ASSERT_TRUE(db_->CreateAttributeIndex({plant_.sensor, ""}).ok());
    ASSERT_TRUE(db_->CreateAttributeIndex({plant_.sensor, "Label"}).ok());
    ASSERT_TRUE(
        db_->CreateAttributeIndex({plant_.calibrated, "", false}).ok());

    std::vector<ObjectId> objects;  // ever-created roots (may be deleted)
    std::vector<version::VersionId> versions;
    int created = 0;

    for (int step = 0; step < 300; ++step) {
      switch (rng.Uniform(8)) {
        case 0: {  // create
          ClassId cls = rng.Bernoulli(0.5) ? plant_.sensor
                                           : plant_.calibrated;
          auto id = db_->CreateObject(
              cls, "Obj" + std::to_string(created++));
          ASSERT_TRUE(id.ok());
          objects.push_back(*id);
          break;
        }
        case 1: {  // set / clear own value
          if (objects.empty()) break;
          ObjectId id = rng.Pick(objects);
          if (rng.Bernoulli(0.2)) {
            (void)db_->ClearValue(id);
          } else {
            (void)db_->SetValue(id, Value::Int(rng.UniformRange(0, 9)));
          }
          break;
        }
        case 2: {  // add or update a Label sub-object
          if (objects.empty()) break;
          ObjectId parent = rng.Pick(objects);
          auto subs = db_->SubObjects(parent, "Label");
          if (subs.empty() || rng.Bernoulli(0.4)) {
            auto sub = db_->CreateSubObject(parent, "Label");
            if (sub.ok()) {
              (void)db_->SetValue(
                  *sub, Value::String("L" + std::to_string(
                                               rng.UniformRange(0, 4))));
            }
          } else {
            (void)db_->SetValue(
                rng.Pick(subs),
                Value::String("L" + std::to_string(rng.UniformRange(0, 4))));
          }
          break;
        }
        case 3: {  // delete an object (root or label)
          if (objects.empty()) break;
          ObjectId victim = rng.Pick(objects);
          if (rng.Bernoulli(0.5)) {
            auto subs = db_->SubObjects(victim, "Label");
            if (!subs.empty()) victim = rng.Pick(subs);
          }
          (void)db_->DeleteObject(victim);
          break;
        }
        case 4: {  // reclassify along the generalization path
          if (objects.empty()) break;
          ObjectId id = rng.Pick(objects);
          auto obj = db_->GetObject(id);
          if (!obj.ok()) break;
          ClassId target = (*obj)->cls == plant_.sensor
                               ? plant_.calibrated
                               : plant_.sensor;
          (void)db_->Reclassify(id, target);
          break;
        }
        case 5: {  // freeze a version
          auto v = vm.CreateVersion();
          if (v.ok()) versions.push_back(*v);
          break;
        }
        case 6: {  // restore a historical version
          if (versions.empty()) break;
          ASSERT_TRUE(vm.SelectVersion(rng.Pick(versions)).ok());
          break;
        }
        case 7: {  // random planner query must equal the scan
          Predicate p =
              rng.Bernoulli(0.5)
                  ? Predicate::ValueEquals(
                        Value::Int(rng.UniformRange(0, 9)))
                  : Predicate::IntGreater(rng.UniformRange(0, 9));
          Planner planner(db_.get());
          ASSERT_EQ(planner.SelectIds(plant_.sensor, p),
                    ScanIds(plant_.sensor, p))
              << "seed " << seed << " step " << step;
          break;
        }
      }

      if (step % 50 == 49) {
        // Snapshot the incrementally maintained entries, rebuild from
        // scratch, and require identity for every index.
        std::vector<Listing> incremental;
        for (const auto& idx : db_->attribute_indexes().indexes()) {
          incremental.push_back(Dump(*idx));
        }
        db_->RebuildIndexes();
        size_t i = 0;
        for (const auto& idx : db_->attribute_indexes().indexes()) {
          EXPECT_EQ(incremental[i], Dump(*idx))
              << "index " << idx->spec().ToString() << " diverged at seed "
              << seed << " step " << step;
          ++i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace seed
