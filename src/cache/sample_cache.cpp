#include "cache/sample_cache.h"

#include <algorithm>

#include "common/debug.h"

namespace emlio::cache {

SampleCache::SampleCache(SampleCacheConfig config) : config_(config) {
  std::size_t n = std::max<std::size_t>(1, config_.shards);
  // Small budgets collapse to fewer shards: each shard's budget slice must
  // stay big enough to hold real entries (a 4 KB cache split 8 ways would
  // reject every ~1 KB record as oversized).
  constexpr std::size_t kMinShardSlice = 64u << 10;
  n = std::min(n, std::max<std::size_t>(1, config_.capacity_bytes / kMinShardSlice));
  config_.shards = n;
  shard_budget_ = config_.capacity_bytes / n;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

SampleCache::~SampleCache() {
#if EMLIO_AUDITS_ENABLED
  // Conservation: every admitted entry is either still resident or was
  // evicted — there is no third exit. A mismatch means the eviction paths
  // and the insert path disagree about what is in the cache.
  std::uint64_t inserts = 0, evictions = 0, entries = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    inserts += shard->inserts;
    evictions += shard->evictions;
    entries += shard->entries.size();
  }
  EMLIO_AUDIT_EQ("cache entry conservation", inserts, evictions + entries);
#endif
}

SampleCache::Shard& SampleCache::shard_for(const SampleKey& key) {
  return *shards_[SampleKeyHash{}(key) % shards_.size()];
}

void SampleCache::note_resident(std::int64_t delta) {
  std::uint64_t now =
      resident_bytes_.fetch_add(static_cast<std::uint64_t>(delta), std::memory_order_relaxed) +
      static_cast<std::uint64_t>(delta);
  std::uint64_t peak = resident_peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !resident_peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

std::optional<PayloadView> SampleCache::find(const SampleKey& key) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  auto entry_it = it->second;
  entry_it->referenced = true;  // second chance, no reordering
  return PayloadView(entry_it->payload);
}

void SampleCache::evict_entry(Shard& shard, std::list<Entry>::iterator it) {
  // The pin check (use_count()==1, under shard.mu) proved the cache holds
  // the only handle — and new outside handles can only be minted through
  // find(), which needs this same lock — so dropping ours here frees (or
  // pool-recycles) the bytes immediately. A handle that DID escape keeps the
  // storage alive via the shared_ptr refcount regardless; eviction is always
  // memory-safe, the pin check just keeps the byte budget honest.
  std::size_t n = it->payload.size();
  if (shard.hand == it) ++shard.hand;
  shard.map.erase(it->key);
  shard.entries.erase(it);
  shard.bytes -= n;
  ++shard.evictions;
  note_resident(-static_cast<std::int64_t>(n));
}

bool SampleCache::make_room(Shard& shard, std::size_t need) {
  // Advance the hand; referenced entries get a second chance, pinned
  // entries are skipped (they are few, bounded by the daemon's in-flight
  // encode/send window, and become evictable as lanes drain). Two full
  // sweeps clear every reference bit, so if the budget is still blown after
  // ~2N steps every survivor is pinned.
  std::size_t steps = 2 * shard.entries.size() + 1;
  while (shard.bytes + need > shard_budget_ && steps-- > 0 && !shard.entries.empty()) {
    if (shard.hand == shard.entries.end()) shard.hand = shard.entries.begin();
    if (shard.hand->payload.use_count() > 1) {
      ++shard.pinned_skips;
      ++shard.hand;
      continue;
    }
    if (shard.hand->referenced) {
      shard.hand->referenced = false;
      ++shard.hand;
      continue;
    }
    auto victim = shard.hand;
    ++shard.hand;
    evict_entry(shard, victim);
  }
  return shard.bytes + need <= shard_budget_;
}

std::optional<PayloadView> SampleCache::insert(const SampleKey& key,
                                               std::span<const std::uint8_t> bytes) {
  Shard& shard = shard_for(key);
  {
    MutexLock lock(shard.mu);
    if (auto it = shard.map.find(key); it != shard.map.end()) {
      // Records are immutable; the resident copy is the same bytes.
      return PayloadView(it->second->payload);
    }
    if (bytes.size() > shard_budget_) {
      ++shard.rejected;
      return std::nullopt;
    }
  }

  // The one deliberate copy of the cache: mmap bytes -> owned storage
  // (counted in PayloadCounters::bytes_copied). Done OUTSIDE the shard lock
  // so a cold epoch's concurrent encode-pool threads don't serialize their
  // record-sized memcpys on one mutex; warm hits are copy-free.
  Payload copy = Payload::copy_of(bytes);

  MutexLock lock(shard.mu);
  if (auto it = shard.map.find(key); it != shard.map.end()) {
    // Another thread populated the key while we copied; drop our copy.
    return PayloadView(it->second->payload);
  }
  if (!make_room(shard, bytes.size())) {
    ++shard.rejected;
    return std::nullopt;
  }

  Entry entry;
  entry.key = key;
  entry.payload = std::move(copy);
  shard.entries.push_front(std::move(entry));
  shard.map.emplace(key, shard.entries.begin());
  shard.bytes += bytes.size();
  ++shard.inserts;
  note_resident(static_cast<std::int64_t>(bytes.size()));
  return PayloadView(shard.entries.front().payload);
}

SampleCacheStats SampleCache::stats() const {
  SampleCacheStats s;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    s.hits += shard->hits;
    s.misses += shard->misses;
    s.inserts += shard->inserts;
    s.evictions += shard->evictions;
    s.pinned_skips += shard->pinned_skips;
    s.rejected += shard->rejected;
    s.entries += shard->entries.size();
  }
  s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  s.resident_bytes_peak = resident_peak_.load(std::memory_order_relaxed);
  return s;
}

void SampleCache::clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->payload.use_count() > 1) {
        ++shard.pinned_skips;
        ++it;
        continue;
      }
      auto victim = it++;
      evict_entry(shard, victim);
    }
  }
}

}  // namespace emlio::cache
