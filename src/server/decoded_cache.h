// Decoded-PCM cache: the decode-once/serve-many half of the data-plane
// fast path. The answering-machine and voice-mail workloads (paper §1, §7)
// replay the same catalogued sounds over and over; instead of running
// StreamDecoder + Resampler inside every Play, the server keeps the linear
// PCM — already resampled to the engine rate — in an LRU cache keyed by
// (sound id, sound generation, target rate). SoundObject::Write bumps the
// generation, so a stale entry can never be served: a mutated sound simply
// misses and re-decodes under its new generation.
//
// Thread safety: PlayerDevice::Produce runs in the tick fan-out without the
// state lock, so lookups/inserts take a cache-local mutex (a leaf below the
// big lock — nothing is called while holding it). Entries are shared_ptr,
// so an entry evicted mid-play stays alive for the player that is draining
// it. Cache state affects only *where* samples come from, never their
// values, so cached and uncached plays are bit-identical.

#ifndef SRC_SERVER_DECODED_CACHE_H_
#define SRC_SERVER_DECODED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/sample.h"
#include "src/common/thread_annotations.h"

namespace aud {

class DecodedSoundCache {
 public:
  // Immutable decoded+resampled PCM, shared with in-flight players.
  using Entry = std::shared_ptr<const std::vector<Sample>>;

  struct Key {
    ResourceId sound = kNoResource;
    uint64_t generation = 0;
    uint32_t rate_hz = 0;

    bool operator==(const Key&) const = default;
  };

  DecodedSoundCache() = default;

  // Byte budget (2 bytes per cached sample). 0 disables the cache: Lookup
  // always misses and Insert declines. Shrinking evicts immediately.
  void SetMaxBytes(size_t max_bytes);
  size_t max_bytes() const { return max_bytes_.load(std::memory_order_relaxed); }
  bool enabled() const { return max_bytes() > 0; }

  // Returns the cached entry (promoting it to most-recently-used) or null.
  Entry Lookup(const Key& key);

  // Stores `entry`, evicting least-recently-used entries to fit the budget.
  // Entries larger than the whole budget are not stored (the caller still
  // owns its shared_ptr and can serve from it). Returns how many entries
  // were evicted.
  size_t Insert(const Key& key, Entry entry);

  // Drops every generation/rate entry of `sound` (sound destroyed).
  void EraseSound(ResourceId sound);

  // Current cached payload bytes / entry count.
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  size_t entry_count() const;

 private:
  struct Slot {
    Key key;
    Entry entry;
    size_t bytes = 0;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.sound;
      h = h * 0x9E3779B97F4A7C15ull + k.generation;
      h = h * 0x9E3779B97F4A7C15ull + k.rate_hz;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };

  // Evicts LRU entries until the payload fits `budget`. Returns evictions.
  size_t EvictToFit(size_t budget) AUD_REQUIRES(mu_);

  mutable Mutex mu_{LockRank::kDecodedCache, "DecodedCache::mu_"};
  // Front = most recently used.
  std::list<Slot> lru_ AUD_GUARDED_BY(mu_);
  std::unordered_map<Key, std::list<Slot>::iterator, KeyHash> index_ AUD_GUARDED_BY(mu_);
  std::atomic<size_t> max_bytes_{0};
  std::atomic<size_t> bytes_{0};
};

}  // namespace aud

#endif  // SRC_SERVER_DECODED_CACHE_H_
