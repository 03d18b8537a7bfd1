/// Runtime lock-rank detector + sharded buffer-pool coverage (DESIGN.md
/// sections 10 and 15).
///
/// Part A proves the rank detector in src/common/mutex.h actually fires:
/// a deliberate inversion, a self-deadlock, and an out-of-order same-rank
/// acquisition each abort with both acquisition sites in the message —
/// and the legal shapes (strictly descending chains, same-rank in
/// ascending address order, try-locks) do not.
///
/// Part B exercises the sharded pool across its bucket latches: bucket
/// sizing, an 8-thread disjoint-page Fetch/Unpin stress (run TSan-clean in
/// the ThreadSanitize CI leg), and the cross-shard invariants — pins drain
/// to zero after a flush, the scrub cursor wraps across every bucket, and
/// quarantine fail-fast stays per-bucket.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "ordb/buffer_pool.h"
#include "ordb/page.h"
#include "ordb/pager.h"

namespace xorator::ordb {
namespace {

// --------------------------------------------------------------------
// Part A: the rank detector.

#if XO_LOCK_RANK_CHECK_ENABLED

TEST(LockRankDeathTest, InversionAborts) {
  EXPECT_DEATH(
      {
        xo::Mutex leaf{xo::LockRank::kLeafHealth};
        xo::Mutex wal{xo::LockRank::kWal};
        leaf.Lock();
        wal.Lock();  // upward: 100 held, acquiring 400
      },
      "lock rank inversion.*acquiring Wal.*while holding LeafHealth.*"
      "acquired at");
}

TEST(LockRankDeathTest, SelfDeadlockAborts) {
  EXPECT_DEATH(
      {
        xo::Mutex mu{xo::LockRank::kCatalog};
        mu.Lock();
        mu.Lock();  // would hang forever without the detector
      },
      "self-deadlock \\(re-acquisition\\).*acquiring Catalog.*while "
      "holding Catalog");
}

TEST(LockRankDeathTest, SameRankDescendingAddressAborts) {
  EXPECT_DEATH(
      {
        // Two bucket latches acquired against the canonical order. Struct
        // member order guarantees &pair.lo < &pair.hi, exactly like the
        // pool's contiguous bucket array.
        struct {
          xo::Mutex lo{xo::LockRank::kBufferPoolBucket};
          xo::Mutex hi{xo::LockRank::kBufferPoolBucket};
        } pair;
        pair.hi.Lock();
        pair.lo.Lock();  // same rank, lower address: out of order
      },
      "lock rank inversion.*acquiring BufferPoolBucket.*while holding "
      "BufferPoolBucket");
}

TEST(LockRankDeathTest, SharedAcquisitionsParticipate) {
  EXPECT_DEATH(
      {
        xo::SharedMutex catalog{xo::LockRank::kCatalog};
        xo::SharedMutex statement{xo::LockRank::kStatement};
        catalog.ReaderLock();
        statement.ReaderLock();  // readers invert the hierarchy too
      },
      "lock rank inversion.*acquiring Statement.*while holding Catalog");
}

TEST(LockRankTest, DescendingChainIsLegal) {
  // The engine's deepest legal chain, spelled out rank by rank.
  xo::SharedMutex statement{xo::LockRank::kStatement};
  xo::Mutex maint{xo::LockRank::kBufferPoolMaint};
  xo::Mutex bucket{xo::LockRank::kBufferPoolBucket};
  xo::Mutex io{xo::LockRank::kPagerIo};
  xo::Mutex wal{xo::LockRank::kWal};
  xo::Mutex health{xo::LockRank::kLeafHealth};
  statement.ReaderLock();
  maint.Lock();
  bucket.Lock();
  io.Lock();
  wal.Lock();
  health.Lock();
  health.Unlock();
  wal.Unlock();
  io.Unlock();
  bucket.Unlock();
  maint.Unlock();
  statement.ReaderUnlock();
}

TEST(LockRankTest, SameRankAscendingAddressIsLegal) {
  xo::Mutex buckets[3] = {xo::Mutex{xo::LockRank::kBufferPoolBucket},
                          xo::Mutex{xo::LockRank::kBufferPoolBucket},
                          xo::Mutex{xo::LockRank::kBufferPoolBucket}};
  for (auto& b : buckets) b.Lock();  // the canonical cross-bucket sweep
  for (auto& b : buckets) b.Unlock();
}

TEST(LockRankTest, ReleaseUnwindsTheRecord) {
  // After an inner lock is released, its rank no longer constrains the
  // thread: acquire-release-acquire at alternating ranks must be clean.
  xo::Mutex wal{xo::LockRank::kWal};
  xo::Mutex catalog{xo::LockRank::kCatalog};
  wal.Lock();
  wal.Unlock();
  catalog.Lock();  // higher than kWal, legal because wal was released
  catalog.Unlock();
  wal.Lock();
  wal.Unlock();
}

TEST(LockRankTest, FailedTryLockLeavesNoRecord) {
  xo::Mutex mu{xo::LockRank::kWal};
  xo::Mutex higher{xo::LockRank::kCatalog};
  std::atomic<bool> holder_ready{false};
  std::atomic<bool> done{false};
  std::thread holder([&] {
    mu.Lock();
    holder_ready = true;
    while (!done) std::this_thread::yield();
    mu.Unlock();
  });
  while (!holder_ready) std::this_thread::yield();
  EXPECT_FALSE(mu.TryLock());  // contended: must fail AND leave no record
  // If the failed TryLock leaked a held-rank entry, this upward
  // acquisition would abort.
  higher.Lock();
  higher.Unlock();
  done = true;
  holder.join();
}

#else  // !XO_LOCK_RANK_CHECK_ENABLED

TEST(LockRankDeathTest, SkippedWithoutDetector) {
  GTEST_SKIP() << "the lock-rank detector is compiled out in this build "
                  "(NDEBUG without XORATOR_LOCK_RANK_CHECK); the death "
                  "tests run under the Debug/Sanitize/ThreadSanitize "
                  "configurations";
}

#endif  // XO_LOCK_RANK_CHECK_ENABLED

// --------------------------------------------------------------------
// Part B: the sharded pool.

TEST(ShardedPoolTest, BucketCountScalesWithCapacity) {
  MemoryPager pager;
  // Below one full bucket: a single latch (preserves the exact global LRU
  // the capacity-1/2/4 eviction tests rely on).
  EXPECT_EQ(BufferPool(&pager, 1).bucket_count(), 1u);
  EXPECT_EQ(BufferPool(&pager, 8).bucket_count(), 1u);
  EXPECT_EQ(BufferPool(&pager, 9).bucket_count(), 1u);
  EXPECT_EQ(BufferPool(&pager, 16).bucket_count(), 2u);
  EXPECT_EQ(BufferPool(&pager, 64).bucket_count(), 8u);
  // Capped at kMaxBuckets no matter how large the pool grows.
  EXPECT_EQ(BufferPool(&pager, 4096).bucket_count(), BufferPool::kMaxBuckets);
}

/// Seeds `n` pages through `pool`, each page stamped with its own id in
/// the first bytes, and flushes them to the pager so later fetches verify.
std::vector<PageId> SeedPages(BufferPool& pool, int n) {
  std::vector<PageId> ids;
  for (int i = 0; i < n; ++i) {
    auto page = pool.Create();
    EXPECT_TRUE(page.ok());
    PageId id = page->id();
    std::memcpy(page->data() + kPageHeaderBytes, &id, sizeof(id));
    page->MarkDirty();
    ids.push_back(id);
  }
  EXPECT_TRUE(pool.FlushAll().ok());
  return ids;
}

TEST(ShardedPoolTest, DisjointPageStressEightThreads) {
  MemoryPager pager;
  BufferPool pool(&pager, 64);  // 8 buckets, 8 frames each
  ASSERT_EQ(pool.bucket_count(), 8u);
  // 4x the capacity, so the stress continually misses and evicts across
  // every bucket, exercising write-backs and checksum verification under
  // concurrency — not just latched hit paths.
  const std::vector<PageId> ids = SeedPages(pool, 256);
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Thread t touches only pages hashing to bucket t: fully disjoint
      // pages AND disjoint latches — the no-contention contract the shard
      // split exists to provide.
      for (int i = 0; i < kIters; ++i) {
        const PageId id = ids[(t + static_cast<size_t>(i) * kThreads) %
                              ids.size()];
        auto page = pool.Fetch(id);
        if (!page.ok()) {
          ++failures;
          return;
        }
        PageId stamped = kInvalidPageId;
        std::memcpy(&stamped, page->data() + kPageHeaderBytes,
                    sizeof(stamped));
        if (stamped != id) ++failures;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(pool.PinnedFrameCount(), 0u);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(stats.checksum_failures, 0u);
  EXPECT_EQ(stats.quarantined_pages, 0u);
}

TEST(ShardedPoolTest, PinsDrainToZeroAfterFlush) {
  MemoryPager pager;
  BufferPool pool(&pager, 32);
  std::vector<PageId> ids = SeedPages(pool, 48);
  {
    // Hold a few live pins across buckets, then release them all.
    std::vector<PageRef> held;
    for (int i = 0; i < 8; ++i) {
      auto page = pool.Fetch(ids[static_cast<size_t>(i) * 5]);
      ASSERT_TRUE(page.ok());
      held.push_back(std::move(*page));
    }
    EXPECT_EQ(pool.PinnedFrameCount(), 8u);
  }
  // The checkpoint-shaped quiescent point: flush everything, no pins left.
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.PinnedFrameCount(), 0u);
  EXPECT_GT(pool.stats().writebacks, 0u);
}

TEST(ShardedPoolTest, ScrubCursorWrapsAcrossBuckets) {
  MemoryPager pager;
  BufferPool pool(&pager, 16);  // 2 buckets
  ASSERT_EQ(pool.bucket_count(), 2u);
  SeedPages(pool, 41);  // odd count: pages of both buckets, uneven tail
  const uint64_t total = pager.page_count();
  // Walk the file in slices smaller than a bucket's share; the single
  // cursor must still visit every page of every bucket exactly once per
  // pass and report the wrap at the file boundary.
  uint64_t scanned = 0;
  bool wrapped = false;
  for (int slice = 0; slice < 100 && !wrapped; ++slice) {
    auto report = pool.ScrubSlice(7);
    ASSERT_TRUE(report.ok());
    scanned += report->pages_scanned;
    wrapped = report->wrapped;
  }
  EXPECT_TRUE(wrapped);
  EXPECT_EQ(scanned, total);
  EXPECT_EQ(pool.stats().scrub_passes, 1u);
  // A second pass restarts cleanly from page zero.
  auto report = pool.ScrubSlice(total);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->wrapped);
  EXPECT_EQ(report->pages_scanned, total);
}

TEST(ShardedPoolTest, QuarantineFailFastIsPerBucket) {
  MemoryPager pager;
  std::vector<PageId> ids;
  {
    BufferPool seeder(&pager, 64);
    ids = SeedPages(seeder, 32);
  }
  // Corrupt one page behind the pool's back (no checksum restamp).
  const PageId bad = ids[5];
  const PageId good_same_bucket = ids[5 + 16];  // 16 ≡ 0 mod 8: same bucket
  const PageId good_other_bucket = ids[6];
  {
    char garbage[kPageSize];
    std::memset(garbage, 0xAB, sizeof(garbage));
    ASSERT_TRUE(pager.Write(bad, garbage).ok());
  }
  BufferPool pool(&pager, 64);  // cold pool: every fetch reads the disk
  // Bucket assignment is id % bucket_count (stable public contract via
  // bucket_count()): ids 16 apart share a bucket, adjacent ids do not.
  ASSERT_EQ(bad % pool.bucket_count(), good_same_bucket % pool.bucket_count());
  ASSERT_NE(bad % pool.bucket_count(),
            good_other_bucket % pool.bucket_count());
  auto fetched = pool.Fetch(bad);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(pool.IsQuarantined(bad));
  // Fail-fast: the second fetch is rejected without disk I/O.
  auto again = pool.Fetch(bad);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(pool.stats().quarantine_hits, 1u);
  EXPECT_EQ(pool.stats().quarantined_pages, 1u);
  // Containment is per page, and a fortiori per bucket: neighbours in the
  // same bucket and pages in other buckets keep fetching normally.
  EXPECT_TRUE(pool.Fetch(good_same_bucket).ok());
  EXPECT_TRUE(pool.Fetch(good_other_bucket).ok());
  EXPECT_EQ(pool.QuarantinedPages(), std::vector<PageId>{bad});
  // Recovery clears the set; the still-corrupt page re-quarantines on the
  // next fetch.
  pool.ClearQuarantine();
  EXPECT_FALSE(pool.IsQuarantined(bad));
  ASSERT_FALSE(pool.Fetch(bad).ok());
  EXPECT_TRUE(pool.IsQuarantined(bad));
}

// The latch-free quarantine count (read by every SELECT's resilience check)
// equals the latched stats() sum through quarantine, repeat hits and
// ClearQuarantine.
TEST(ShardedPoolTest, QuarantinedPageCountMatchesStats) {
  MemoryPager pager;
  std::vector<PageId> ids;
  {
    BufferPool seeder(&pager, 64);
    ids = SeedPages(seeder, 32);
  }
  const std::vector<PageId> bad = {ids[3], ids[4], ids[3 + 16]};
  char garbage[kPageSize];
  std::memset(garbage, 0xAB, sizeof(garbage));
  for (PageId id : bad) ASSERT_TRUE(pager.Write(id, garbage).ok());

  BufferPool pool(&pager, 64);
  EXPECT_EQ(pool.quarantined_page_count(), 0u);
  uint64_t expected = 0;
  for (PageId id : bad) {
    ASSERT_FALSE(pool.Fetch(id).ok());
    ++expected;
    EXPECT_EQ(pool.quarantined_page_count(), expected);
    EXPECT_EQ(pool.quarantined_page_count(), pool.stats().quarantined_pages);
  }
  // A fail-fast hit on a quarantined page does not count it twice.
  ASSERT_FALSE(pool.Fetch(bad[0]).ok());
  EXPECT_EQ(pool.quarantined_page_count(), bad.size());
  EXPECT_EQ(pool.quarantined_page_count(), pool.stats().quarantined_pages);

  pool.ClearQuarantine();
  EXPECT_EQ(pool.quarantined_page_count(), 0u);
  EXPECT_EQ(pool.stats().quarantined_pages, 0u);
  ASSERT_FALSE(pool.Fetch(bad[1]).ok());
  EXPECT_EQ(pool.quarantined_page_count(), 1u);
  EXPECT_EQ(pool.quarantined_page_count(), pool.stats().quarantined_pages);
}

}  // namespace
}  // namespace xorator::ordb
