#include "query/plan_cache.h"

#include <utility>

#include "obs/metrics.h"

namespace seed::query {

namespace {

void CountEviction() {
  static obs::Counter* evictions = obs::MetricsRegistry::Global().GetCounter(
      "planner.cache.evictions.total");
  evictions->Increment();
}

}  // namespace

PlanCache& PlanCache::Global() {
  static PlanCache* cache = new PlanCache();
  return *cache;
}

std::optional<CachedPlan> PlanCache::Lookup(const std::string& key) {
  common::MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.plan;
}

void PlanCache::Insert(const std::string& key, CachedPlan plan) {
  common::MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  if (entries_.size() >= kMaxEntries) {
    CountEviction();
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  entries_.emplace(key, Slot{std::move(plan), lru_.begin()});
}

void PlanCache::Invalidate(const std::string& key) {
  static obs::Counter* invalidations =
      obs::MetricsRegistry::Global().GetCounter(
          "planner.cache.invalidations.total");
  invalidations->Increment();
  common::MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  lru_.erase(it->second.lru);
  entries_.erase(it);
}

void PlanCache::NoteHit() {
  static obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("planner.cache.hits.total");
  hits->Increment();
}

void PlanCache::NoteMiss() {
  static obs::Counter* misses =
      obs::MetricsRegistry::Global().GetCounter("planner.cache.misses.total");
  misses->Increment();
}

void PlanCache::Clear() {
  common::MutexLock lock(mu_);
  entries_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  common::MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace seed::query
