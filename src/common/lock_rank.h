// Runtime lock-rank enforcement (DESIGN.md decision 9, "lock inventory &
// ordering"). Every production aud::Mutex declares its place in the global
// lock hierarchy at construction; when AUD_LOCK_RANK_CHECKS is on (the
// default — see the AUD_LOCK_RANK CMake option) a per-thread held-lock
// stack asserts that acquisition order is strictly ascending in rank and
// aborts, naming both locks and ranks, on any violation. This turns the
// DESIGN.md lock table from documentation into an invariant executed by
// every test in every lane (default, TSan, ASan+UBSan).
//
// Rules enforced on each acquisition, against the most recent still-held
// lock of the acquiring thread:
//   1. Recursion: re-acquiring a mutex already held by this thread aborts.
//   2. Ascending rank: the new lock's rank must be strictly greater than
//      the held lock's rank. Every same-rank pair aborts — which is exactly
//      the documented "never held together" invariant: two root LOUDs'
//      engine locks (the epoch fan-out ticks one root at a time), or two
//      of the rank-2 leaf group.
// A thread can therefore hold at most one lock per rank, so the held-lock
// stack is bounded by the number of ranks.
//
// The numeric ranks below ARE the DESIGN.md lock table; tools/audlint
// cross-references the two (CheckLockRanks) so the code and the doc cannot
// drift apart. Renumbering a rank means updating both, in one commit.

#ifndef SRC_COMMON_LOCK_RANK_H_
#define SRC_COMMON_LOCK_RANK_H_

#include <cstdint>

namespace aud {

// The global lock hierarchy, outermost first. A thread holding a lock of
// rank n may only acquire locks of strictly greater rank. Equal values are
// deliberate: they declare locks that must NEVER be held together (enforced
// at runtime), not interchangeable ones. audlint enforces that this enum
// and the DESIGN.md lock table agree.
enum class LockRank : int {
  kUnranked = -1,      // exempt from checking (test-local/ad-hoc mutexes)
  kServerState = 0,    // AudioServer::mu_ — the "big lock"
  kEngineRoot = 1,     // Loud::engine_mu_ — per-root engine shard, one at a time
  kEgressQueue = 2,    // EgressQueue::mu_ — per-connection outbound queue
  kDecodedCache = 2,   // DecodedCache::mu_ — decoded-PCM LRU cache
  kTraceRegistry = 2,  // obs::TraceRegistry::mu_ — ring registration list
  kEventLoop = 2,      // EventLoop::mu_ — pending interest-change queue
  kTraceRing = 3,      // obs::TraceRing::mu_ — per-thread trace ring
  kAlibWrite = 4,      // AudioConnection::write_mu_ — client frame writes
  kAlibQueue = 4,      // AudioConnection::queue_mu_ — client reply queues
  kClock = 6,          // VirtualClock::mu_ — test clock advance/sleep
  kLogging = 7,        // g_log_mu (logging.cc) — stderr serialization, leaf
};

// Human-readable enumerator name ("kEngineRoot") for abort diagnostics.
const char* LockRankName(LockRank rank);

namespace lockrank {

// Called by aud::Mutex before blocking on the underlying lock. Validates
// the acquisition against the calling thread's held-lock stack and pushes
// the new entry; aborts with both lock names and ranks on violation.
void OnAcquire(const void* mu, LockRank rank, const char* name);

// Called by aud::Mutex after releasing. Removes the entry from the calling
// thread's stack (releases need not be LIFO; the stack stays rank-sorted
// because every push was validated against the then-top).
void OnRelease(const void* mu);

// Number of ranked locks the calling thread currently holds (tests).
int HeldCount();

}  // namespace lockrank
}  // namespace aud

#endif  // SRC_COMMON_LOCK_RANK_H_
