// Tests for runtime lock-rank enforcement (src/common/lock_rank.h): the
// machinery that turns the DESIGN.md lock table into an executed invariant.
// Death tests prove the checker actually aborts on the violation classes it
// exists for — out-of-order acquisition, any same-rank pair (two root
// engine locks included), and recursion — and positive tests prove the
// legal shapes (ascending chains, out-of-LIFO release, unranked test
// mutexes) pass through unharmed.

#include "src/common/lock_rank.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/thread_annotations.h"

namespace aud {
namespace {

#if AUD_LOCK_RANK_CHECKS

TEST(LockRankTest, AscendingChainIsAccepted) {
  Mutex big(LockRank::kServerState, "test_big");
  Mutex engine(LockRank::kEngineRoot, "test_engine");
  Mutex egress(LockRank::kEgressQueue, "test_egress");
  Mutex ring(LockRank::kTraceRing, "test_ring");
  Mutex log(LockRank::kLogging, "test_log");

  MutexLock l0(&big);
  MutexLock l1(&engine);
  MutexLock l2(&egress);
  MutexLock l3(&ring);
  MutexLock l4(&log);
  EXPECT_EQ(lockrank::HeldCount(), 5);
}

TEST(LockRankTest, HeldCountDrainsOnRelease) {
  Mutex big(LockRank::kServerState, "test_big");
  {
    MutexLock lock(&big);
    EXPECT_EQ(lockrank::HeldCount(), 1);
  }
  EXPECT_EQ(lockrank::HeldCount(), 0);
}

TEST(LockRankTest, SkippingRanksIsAccepted) {
  // Strictly ascending, not dense: 0 -> 2 -> 7 is legal.
  Mutex big(LockRank::kServerState, "test_big");
  Mutex egress(LockRank::kEgressQueue, "test_egress");
  Mutex log(LockRank::kLogging, "test_log");

  MutexLock l0(&big);
  MutexLock l1(&egress);
  MutexLock l2(&log);
  EXPECT_EQ(lockrank::HeldCount(), 3);
}

TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  Mutex big(LockRank::kServerState, "test_big");
  Mutex egress(LockRank::kEgressQueue, "test_egress");
  EXPECT_DEATH(
      {
        MutexLock outer(&egress);
        MutexLock inner(&big);  // rank 2 -> rank 0: descending
      },
      "out-of-order acquisition.*test_big.*rank 0.*holding.*test_egress.*rank 2");
}

TEST(LockRankDeathTest, OutOfOrderTryLockAborts) {
  // A try_lock that would succeed is the same latent deadlock; the checker
  // must not give it a pass just because it won the race.
  Mutex big(LockRank::kServerState, "test_big");
  Mutex cache(LockRank::kDecodedCache, "test_cache");
  EXPECT_DEATH(
      {
        MutexLock outer(&cache);
        big.TryLock();
      },
      "out-of-order acquisition.*test_big");
}

TEST(LockRankDeathTest, SameRankOutsideCarveOutAborts) {
  // kDecodedCache and kEgressQueue share rank 2 precisely because they must
  // never be held together (DESIGN.md lock table).
  Mutex cache(LockRank::kDecodedCache, "test_cache");
  Mutex egress(LockRank::kEgressQueue, "test_egress");
  EXPECT_DEATH(
      {
        MutexLock outer(&cache);
        MutexLock inner(&egress);
      },
      "out-of-order acquisition.*test_egress.*rank 2.*holding.*test_cache.*rank 2");
}

TEST(LockRankDeathTest, RecursiveAcquisitionAborts) {
  Mutex big(LockRank::kServerState, "test_big");
  EXPECT_DEATH(
      {
        MutexLock outer(&big);
        big.Lock();
      },
      "recursive acquisition.*test_big");
}

TEST(LockRankDeathTest, EngineRootAscendingIdAborts) {
  // The epoch fan-out ticks one root at a time, so no thread ever holds two
  // root engine locks: even ascending LOUD-id order aborts.
  Mutex root3(LockRank::kEngineRoot, "test_root3");
  Mutex root7(LockRank::kEngineRoot, "test_root7");
  EXPECT_DEATH(
      {
        MutexLock outer(&root3);
        MutexLock inner(&root7);
      },
      "out-of-order acquisition.*test_root7.*rank 1.*holding.*test_root3.*rank 1");
}

TEST(LockRankTest, HeldStackIsBoundedByRankCount) {
  // One lock of every rank is the deepest legal stack; any further ranked
  // acquisition repeats a held rank and aborts, so the fixed per-thread
  // stack can never overflow.
  Mutex big(LockRank::kServerState, "test_big");
  Mutex engine(LockRank::kEngineRoot, "test_engine");
  Mutex egress(LockRank::kEgressQueue, "test_egress");
  Mutex ring(LockRank::kTraceRing, "test_ring");
  Mutex alib(LockRank::kAlibWrite, "test_alib");
  Mutex clock(LockRank::kClock, "test_clock");
  Mutex log(LockRank::kLogging, "test_log");
  std::vector<Mutex*> chain = {&big, &engine, &egress, &ring, &alib, &clock, &log};
  for (Mutex* mu : chain) {
    mu->Lock();
  }
  EXPECT_EQ(lockrank::HeldCount(), 7);

  Mutex second_root(LockRank::kEngineRoot, "test_second_root");
  EXPECT_DEATH({ second_root.Lock(); }, "out-of-order acquisition.*test_second_root");
  EXPECT_DEATH({ log.Lock(); }, "recursive acquisition.*test_log");

  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    (*it)->Unlock();
  }
  EXPECT_EQ(lockrank::HeldCount(), 0);
}

TEST(LockRankDeathTest, EngineRootDescendingIdAborts) {
  Mutex root3(LockRank::kEngineRoot, "test_root3");
  Mutex root7(LockRank::kEngineRoot, "test_root7");
  EXPECT_DEATH(
      {
        MutexLock outer(&root7);
        MutexLock inner(&root3);  // same rank, descending id
      },
      "out-of-order acquisition.*test_root3.*rank 1.*holding.*test_root7.*rank 1");
}

TEST(LockRankDeathTest, EngineRootEqualOrderAborts) {
  // A second root's lock is refused however it is taken: the dispatcher's
  // shard guard tries the lock first, and a try that would succeed is the
  // same latent deadlock.
  Mutex a(LockRank::kEngineRoot, "test_root_a");
  Mutex b(LockRank::kEngineRoot, "test_root_b");
  EXPECT_DEATH(
      {
        MutexLock outer(&a);
        b.TryLock();
      },
      "out-of-order acquisition.*test_root_b");
}

TEST(LockRankTest, OutOfLifoReleaseKeepsStackCoherent) {
  // Release the outer lock first (the MutexLock temporary-release pattern),
  // then prove the checker still validates against what is actually held.
  Mutex big(LockRank::kServerState, "test_big");
  Mutex egress(LockRank::kEgressQueue, "test_egress");
  Mutex log(LockRank::kLogging, "test_log");

  big.Lock();
  egress.Lock();
  big.Unlock();  // mid-stack release
  EXPECT_EQ(lockrank::HeldCount(), 1);
  {
    MutexLock l(&log);  // rank 7 over held rank 2: legal
    EXPECT_EQ(lockrank::HeldCount(), 2);
  }
  egress.Unlock();
  EXPECT_EQ(lockrank::HeldCount(), 0);
}

TEST(LockRankDeathTest, MidStackReleaseDoesNotLaunderOrder) {
  // After releasing the rank-0 lock, the rank-2 lock is still held, so a
  // rank-1 acquisition must still abort.
  Mutex big(LockRank::kServerState, "test_big");
  Mutex egress(LockRank::kEgressQueue, "test_egress");
  Mutex engine(LockRank::kEngineRoot, "test_engine");
  EXPECT_DEATH(
      {
        big.Lock();
        egress.Lock();
        big.Unlock();
        engine.Lock();  // rank 1 while rank 2 is held
      },
      "out-of-order acquisition.*test_engine");
}

TEST(LockRankTest, UnrankedMutexesAreExempt) {
  // Test-local mutexes opt out of the hierarchy entirely: they can be taken
  // under or over anything without participating in the checks.
  // Static, so its address never aliases a stack mutex of another test:
  // TSan keys lock-order edges by address, and a std::mutex's destruction is
  // invisible to it, so reusing an address here would fake a cycle.
  static Mutex adhoc;  // default = kUnranked
  Mutex log(LockRank::kLogging, "test_log");

  MutexLock l0(&log);
  MutexLock l1(&adhoc);
  EXPECT_EQ(lockrank::HeldCount(), 1);  // only the ranked lock is tracked

  Mutex big(LockRank::kServerState, "test_big2");
  // Held unranked lock does not forbid a "descending" ranked acquisition...
  EXPECT_DEATH(
      {
        MutexLock l2(&big);  // ...but rank 0 under held rank 7 still aborts.
      },
      "out-of-order acquisition.*test_big2");
}

TEST(LockRankTest, MutexLockTemporaryReleaseRoundTrips) {
  // Drop a rank-2 lock around a job, take lower-ranked locks inside it,
  // re-acquire after.
  Mutex egress(LockRank::kEgressQueue, "test_egress");
  Mutex engine(LockRank::kEngineRoot, "test_engine");

  MutexLock lock(&egress);
  lock.Unlock();
  EXPECT_EQ(lockrank::HeldCount(), 0);
  {
    MutexLock job(&engine);  // legal: nothing held
    EXPECT_EQ(lockrank::HeldCount(), 1);
  }
  lock.Lock();
  EXPECT_EQ(lockrank::HeldCount(), 1);
}

#else  // !AUD_LOCK_RANK_CHECKS

TEST(LockRankTest, CheckingDisabledInThisBuild) {
  GTEST_SKIP() << "built with -DAUD_LOCK_RANK=OFF";
}

#endif  // AUD_LOCK_RANK_CHECKS

}  // namespace
}  // namespace aud
