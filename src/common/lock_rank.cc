#include "src/common/lock_rank.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace aud {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked:
      return "kUnranked";
    case LockRank::kServerState:
      return "kServerState";
    case LockRank::kEngineRoot:
      return "kEngineRoot";
    case LockRank::kEgressQueue:
      return "kEgressQueue";
    // kDecodedCache/kTraceRegistry/kEventLoop alias kEgressQueue's value;
    // the switch can only name the first enumerator of the shared rank, so
    // diagnostics carry the per-mutex name string alongside the rank.
    case LockRank::kTraceRing:
      return "kTraceRing";
    case LockRank::kAlibWrite:
      return "kAlibWrite";
    case LockRank::kClock:
      return "kClock";
    case LockRank::kLogging:
      return "kLogging";
  }
  return "kUnknown";
}

namespace lockrank {

namespace {

// Per-thread stack of held ranked locks. The common path is a fixed POD
// TLS array (no guarded dynamic initialization, no teardown ordering
// against static-destruction-time logging); threads that legitimately hold
// more — the epoch fan-out takes one engine shard lock per active root, so
// the engine's held count scales with the number of active clients
// — grow into a malloc'd overflow block freed at thread exit.
constexpr int kInlineHeld = 64;

struct HeldLock {
  const void* mu;
  int rank;
  uint64_t order;
  const char* name;
};

thread_local HeldLock tls_inline[kInlineHeld];
thread_local HeldLock* tls_overflow = nullptr;  // nullptr = inline storage
thread_local int tls_overflow_capacity = 0;
thread_local int tls_held_count = 0;

HeldLock* Held() { return tls_overflow != nullptr ? tls_overflow : tls_inline; }

int Capacity() {
  return tls_overflow != nullptr ? tls_overflow_capacity : kInlineHeld;
}

// Frees the overflow block at thread exit. Only odr-used from Grow(), so
// threads that never exceed kInlineHeld stay on the pure-POD path.
struct OverflowGuard {
  ~OverflowGuard() {
    std::free(tls_overflow);
    tls_overflow = nullptr;
    tls_overflow_capacity = 0;
  }
};

void Grow(const char* name) {
  thread_local OverflowGuard guard;
  (void)guard;
  const int new_capacity = Capacity() * 2;
  auto* grown = static_cast<HeldLock*>(
      std::malloc(sizeof(HeldLock) * static_cast<size_t>(new_capacity)));
  if (grown == nullptr) {
    std::fprintf(stderr,
                 "lock-rank checker: out of memory growing the held-lock "
                 "stack past %d while acquiring %s\n",
                 tls_held_count, name);
    std::abort();
  }
  std::memcpy(grown, Held(), sizeof(HeldLock) * static_cast<size_t>(tls_held_count));
  std::free(tls_overflow);
  tls_overflow = grown;
  tls_overflow_capacity = new_capacity;
}

[[noreturn]] void Abort(const char* what, const HeldLock& held, int new_rank,
                        uint64_t new_order, const char* new_name) {
  std::fprintf(stderr,
               "lock-rank violation (%s): acquiring %s (rank %d, order %llu) "
               "while holding %s (rank %d, order %llu)\n",
               what, new_name, new_rank,
               static_cast<unsigned long long>(new_order), held.name, held.rank,
               static_cast<unsigned long long>(held.order));
  std::abort();
}

}  // namespace

void OnAcquire(const void* mu, LockRank rank, uint64_t order, const char* name) {
  if (rank == LockRank::kUnranked) {
    return;
  }
  const int new_rank = static_cast<int>(rank);
  HeldLock* held = Held();
  // The explicit recursion scan is O(held count); run it only while the
  // stack is small. Past the inline window the ordering check below still
  // rejects re-acquisition — a held mutex presents the same (rank, order)
  // again, which can satisfy neither strictly-ascending rank nor
  // strictly-ascending order against the stack top — just with the generic
  // "out-of-order" message instead of the targeted one.
  if (tls_held_count <= kInlineHeld) {
    for (int i = 0; i < tls_held_count; ++i) {
      if (held[i].mu == mu) {
        Abort("recursive acquisition", held[i], new_rank, order, name);
      }
    }
  }
  if (tls_held_count > 0) {
    // Every prior push was validated against the then-newest entry, so the
    // stack is non-decreasing in rank and the newest entry is the maximum.
    const HeldLock& top = held[tls_held_count - 1];
    const bool ascending_rank = new_rank > top.rank;
    const bool same_rank_ok = new_rank == top.rank &&
                              LockRankAllowsSameRank(rank) && order > top.order;
    if (!ascending_rank && !same_rank_ok) {
      Abort("out-of-order acquisition", top, new_rank, order, name);
    }
  }
  if (tls_held_count >= Capacity()) {
    Grow(name);
    held = Held();
  }
  held[tls_held_count++] = {mu, new_rank, order, name};
}

void OnRelease(const void* mu) {
  // Search newest-first: releases are usually LIFO, but ActiveRootLocks
  // releases in reverse and MutexLock::Unlock may release mid-stack.
  HeldLock* held = Held();
  for (int i = tls_held_count - 1; i >= 0; --i) {
    if (held[i].mu == mu) {
      for (int j = i; j + 1 < tls_held_count; ++j) {
        held[j] = held[j + 1];
      }
      --tls_held_count;
      return;
    }
  }
  // Unranked mutexes never call in; a release without a matching acquire
  // means the entry was dropped, which cannot happen short of memory
  // corruption — ignore rather than abort so release paths stay noexcept.
}

int HeldCount() { return tls_held_count; }

}  // namespace lockrank
}  // namespace aud
