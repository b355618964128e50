#include "index/attribute_index.h"

#include <algorithm>

#include "obs/metrics.h"

namespace seed::index {

namespace {

/// One equality probe against any attribute index.
void CountProbe() {
  static obs::Counter* probes =
      obs::MetricsRegistry::Global().GetCounter("index.probes.total");
  probes->Increment();
}

/// One ordered range scan against any attribute index.
void CountRangeScan() {
  static obs::Counter* scans =
      obs::MetricsRegistry::Global().GetCounter("index.range_scans.total");
  scans->Increment();
}

template <typename Id>
std::vector<Id> Typed(const std::set<std::uint64_t>& raw) {
  std::vector<Id> out;
  out.reserve(raw.size());
  for (std::uint64_t id : raw) out.push_back(Id(id));
  return out;
}

template <typename Id>
std::vector<Id> Typed(const std::vector<std::uint64_t>& raw) {
  std::vector<Id> out;
  out.reserve(raw.size());
  for (std::uint64_t id : raw) out.push_back(Id(id));
  return out;
}

}  // namespace

std::string IndexSpec::ToString() const {
  std::string s = on_relationships()
                      ? "assoc#" + std::to_string(assoc.raw())
                      : "class#" + std::to_string(cls.raw());
  if (!role.empty()) s += "." + role;
  if (!include_specializations) s += " (exact)";
  return s;
}

AttributeIndex::AttributeIndex(const AttributeIndex& other)
    : spec_(other.spec_),
      ordered_(other.ordered_),
      keys_of_(other.keys_of_),
      num_entries_(other.num_entries_),
      mutations_(other.mutations_) {
  hash_.reserve(ordered_.size());
  for (auto it = ordered_.begin(); it != ordered_.end(); ++it) {
    hash_.emplace(it->first, it);
  }
}

void AttributeIndex::Insert(const core::Value& key, EntryId id) {
  auto it = hash_.find(key);
  if (it == hash_.end()) {
    it = hash_.emplace(key, ordered_.emplace(key, std::set<EntryId>{}).first)
             .first;
  }
  if (it->second->second.insert(id).second) {
    ++num_entries_;
    ++mutations_;
  }
}

void AttributeIndex::Erase(const core::Value& key, EntryId id) {
  auto it = hash_.find(key);
  if (it == hash_.end()) return;
  if (it->second->second.erase(id) != 0) {
    --num_entries_;
    ++mutations_;
  }
  if (it->second->second.empty()) {
    ordered_.erase(it->second);
    hash_.erase(it);
  }
}

void AttributeIndex::SetEntry(EntryId id,
                              const std::vector<core::Value>& keys) {
  std::vector<core::Value> desired = keys;
  std::sort(desired.begin(), desired.end(), core::Value::Less{});
  desired.erase(std::unique(desired.begin(), desired.end(),
                            core::Value::CompareEqual{}),
                desired.end());

  auto cur_it = keys_of_.find(id);
  if (cur_it != keys_of_.end()) {
    for (const core::Value& key : cur_it->second) {
      if (!std::binary_search(desired.begin(), desired.end(), key,
                              core::Value::Less{})) {
        Erase(key, id);
      }
    }
  }
  for (const core::Value& key : desired) Insert(key, id);

  if (desired.empty()) {
    if (cur_it != keys_of_.end()) keys_of_.erase(cur_it);
  } else {
    keys_of_[id] = std::move(desired);
  }
}

std::vector<ObjectId> AttributeIndex::Lookup(const core::Value& key) const {
  CountProbe();
  auto it = hash_.find(key);
  if (it == hash_.end()) return {};
  return Typed<ObjectId>(it->second->second);
}

std::vector<RelationshipId> AttributeIndex::LookupRels(
    const core::Value& key) const {
  CountProbe();
  auto it = hash_.find(key);
  if (it == hash_.end()) return {};
  return Typed<RelationshipId>(it->second->second);
}

size_t AttributeIndex::CountEquals(const core::Value& key) const {
  auto it = hash_.find(key);
  return it == hash_.end() ? 0 : it->second->second.size();
}

std::vector<AttributeIndex::EntryId> AttributeIndex::RangeRaw(
    const core::Value& lo, bool lo_inclusive, const core::Value& hi,
    bool hi_inclusive) const {
  CountRangeScan();
  std::vector<EntryId> out;
  auto it = lo_inclusive ? ordered_.lower_bound(lo)
                         : ordered_.upper_bound(lo);
  for (; it != ordered_.end(); ++it) {
    int c = it->first.Compare(hi);
    if (c > 0 || (c == 0 && !hi_inclusive)) break;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<ObjectId> AttributeIndex::Range(const core::Value& lo,
                                            bool lo_inclusive,
                                            const core::Value& hi,
                                            bool hi_inclusive) const {
  return Typed<ObjectId>(RangeRaw(lo, lo_inclusive, hi, hi_inclusive));
}

std::vector<RelationshipId> AttributeIndex::RangeRels(
    const core::Value& lo, bool lo_inclusive, const core::Value& hi,
    bool hi_inclusive) const {
  return Typed<RelationshipId>(RangeRaw(lo, lo_inclusive, hi, hi_inclusive));
}

double AttributeIndex::EstimateRange(const core::Value& lo, bool lo_inclusive,
                                     const core::Value& hi, bool hi_inclusive,
                                     size_t probe_limit) const {
  {
    // A backwards or degenerate range holds nothing, whatever the index
    // holds (and guards the iterator walk below: `end_it` must not
    // precede `it`).
    int c = lo.Compare(hi);
    if (c > 0 || (c == 0 && !(lo_inclusive && hi_inclusive))) return 0.0;
  }
  auto it = lo_inclusive ? ordered_.lower_bound(lo)
                         : ordered_.upper_bound(lo);
  const auto end_it = hi_inclusive ? ordered_.upper_bound(hi)
                                   : ordered_.lower_bound(hi);
  if (probe_limit == 0) {
    // No probing budget: the only free fact is empty vs non-empty.
    return it == end_it ? 0.0 : static_cast<double>(num_entries_);
  }
  size_t counted = 0;
  size_t keys_seen = 0;
  for (; it != end_it && keys_seen < probe_limit; ++it) {
    counted += it->second.size();
    ++keys_seen;
  }
  if (it == end_it) return static_cast<double>(counted);
  // Budget exhausted with keys still inside the range. Walk up to
  // probe_limit more of them (counting keys, not postings) so any range
  // spanning at most 2 x probe_limit keys still pro-rates over its
  // *actual* key population; wider than that, the equi-depth histogram
  // takes over. Either way keys outside the range never inflate the
  // estimate.
  size_t keys_ahead = 0;
  auto probe = it;
  for (; probe != end_it && keys_ahead < probe_limit; ++probe) ++keys_ahead;
  if (probe != end_it) {
    // More than 2 x probe_limit keys inside the range: the bounded walk
    // cannot see the tail, and pro-rating the walked density over every
    // key the index could still hold is unboundedly wrong under skew.
    // Answer from the equi-depth histogram instead: O(log buckets) to
    // locate the overlap, provably within half the two boundary buckets
    // of the exact count.
    common::MutexLock lock(histogram_mu_);
    if (!histogram_built_ || histogram_stamp_ != mutations_) {
      RebuildHistogramLocked();
    }
    return HistogramEstimate(lo, lo_inclusive, hi, hi_inclusive);
  }
  // At most 2 x probe_limit keys: `keys_ahead` is the exact tail key
  // count, pro-rate the walked density over just those keys.
  const double per_key =
      static_cast<double>(counted) / static_cast<double>(keys_seen);
  const double est = static_cast<double>(counted) +
                     per_key * static_cast<double>(keys_ahead);
  return est > static_cast<double>(num_entries_)
             ? static_cast<double>(num_entries_)
             : est;
}

void AttributeIndex::RebuildHistogramLocked() const {
  static obs::Counter* builds = obs::MetricsRegistry::Global().GetCounter(
      "stats.histogram.builds.total");
  builds->Increment();
  histogram_.clear();
  histogram_built_ = true;
  histogram_stamp_ = mutations_;
  if (ordered_.empty()) return;
  // Equal-frequency target depth; the closing key of a bucket may carry
  // it past the target, so a bucket holds at most target - 1 + (largest
  // posting list in it) rows.
  const size_t target =
      (num_entries_ + kHistogramBuckets - 1) / kHistogramBuckets;
  HistogramBucket bucket;
  bool open = false;
  for (const auto& [key, ids] : ordered_) {
    if (!open) {
      bucket = HistogramBucket{};
      bucket.lower = key;
      open = true;
    }
    bucket.upper = key;
    bucket.rows += ids.size();
    bucket.keys += 1;
    if (bucket.rows >= target) {
      histogram_.push_back(bucket);
      open = false;
    }
  }
  if (open) histogram_.push_back(bucket);
}

double AttributeIndex::HistogramEstimate(const core::Value& lo,
                                         bool lo_inclusive,
                                         const core::Value& hi,
                                         bool hi_inclusive) const {
  if (histogram_.empty()) return 0.0;
  // A key `v` is inside the range's lower (upper) bound:
  const auto above_lo = [&](const core::Value& v) {
    int c = v.Compare(lo);
    return c > 0 || (c == 0 && lo_inclusive);
  };
  const auto below_hi = [&](const core::Value& v) {
    int c = v.Compare(hi);
    return c < 0 || (c == 0 && hi_inclusive);
  };
  // Buckets are disjoint and ordered, so the overlapping run is found by
  // two binary searches; the constant-size walk over it (≤ 32 buckets)
  // sums full buckets exactly and boundary buckets at half weight.
  const auto first = std::partition_point(
      histogram_.begin(), histogram_.end(),
      [&](const HistogramBucket& b) { return !above_lo(b.upper); });
  const auto last = std::partition_point(
      first, histogram_.end(),
      [&](const HistogramBucket& b) { return below_hi(b.lower); });
  double est = 0.0;
  for (auto it = first; it != last; ++it) {
    const bool whole = above_lo(it->lower) && below_hi(it->upper);
    est += whole ? static_cast<double>(it->rows)
                 : static_cast<double>(it->rows) / 2.0;
  }
  return est > static_cast<double>(num_entries_)
             ? static_cast<double>(num_entries_)
             : est;
}

std::vector<AttributeIndex::HistogramBucket> AttributeIndex::Histogram()
    const {
  common::MutexLock lock(histogram_mu_);
  if (!histogram_built_ || histogram_stamp_ != mutations_) {
    RebuildHistogramLocked();
  }
  return histogram_;
}

void AttributeIndex::ForEach(
    const std::function<void(const core::Value&, ObjectId)>& fn) const {
  for (const auto& [key, ids] : ordered_) {
    for (EntryId id : ids) fn(key, ObjectId(id));
  }
}

void AttributeIndex::ForEachRel(
    const std::function<void(const core::Value&, RelationshipId)>& fn) const {
  for (const auto& [key, ids] : ordered_) {
    for (EntryId id : ids) fn(key, RelationshipId(id));
  }
}

void AttributeIndex::Clear() {
  ordered_.clear();
  hash_.clear();
  keys_of_.clear();
  num_entries_ = 0;
  ++mutations_;
}

}  // namespace seed::index
