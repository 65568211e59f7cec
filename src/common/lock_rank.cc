#include "src/common/lock_rank.h"

#include <cstdio>
#include <cstdlib>

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

// Per-thread stack of held ranked locks: a fixed POD TLS array (no guarded
// dynamic initialization, no teardown ordering against static-destruction-
// time logging). Every push is strictly above the stack top in rank, so a
// thread holds at most one lock per rank and the stack never outgrows the
// rank count.
constexpr int kMaxHeld = static_cast<int>(LockRank::kLogging) + 1;

struct HeldLock {
  const void* mu;
  int rank;
  const char* name;
};

thread_local HeldLock tls_held[kMaxHeld];
thread_local int tls_held_count = 0;

[[noreturn]] void Abort(const char* what, const HeldLock& held, int new_rank,
                        const char* new_name) {
  std::fprintf(stderr,
               "lock-rank violation (%s): acquiring %s (rank %d) while holding %s "
               "(rank %d)\n",
               what, new_name, new_rank, held.name, held.rank);
  std::abort();
}

}  // namespace

void OnAcquire(const void* mu, LockRank rank, const char* name) {
  if (rank == LockRank::kUnranked) {
    return;
  }
  const int new_rank = static_cast<int>(rank);
  for (int i = 0; i < tls_held_count; ++i) {
    if (tls_held[i].mu == mu) {
      Abort("recursive acquisition", tls_held[i], new_rank, name);
    }
  }
  if (tls_held_count > 0) {
    // Every prior push was validated against the then-newest entry, so the
    // stack is strictly ascending in rank and the newest entry is the
    // maximum.
    const HeldLock& top = tls_held[tls_held_count - 1];
    if (new_rank <= top.rank) {
      Abort("out-of-order acquisition", top, new_rank, name);
    }
  }
  tls_held[tls_held_count++] = {mu, new_rank, name};
}

void OnRelease(const void* mu) {
  // Search newest-first: releases are usually LIFO, but MutexLock::Unlock
  // may release mid-stack.
  for (int i = tls_held_count - 1; i >= 0; --i) {
    if (tls_held[i].mu == mu) {
      for (int j = i; j + 1 < tls_held_count; ++j) {
        tls_held[j] = tls_held[j + 1];
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
