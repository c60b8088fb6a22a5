/**
 * @file
 * Tests for the persistent compile cache (src/core/diskcache.h) and
 * the exact binary serialization underneath it (src/core/serialize.h).
 *
 * The contract under test is the one that makes a disk hit safe to
 * substitute for a computation: a serialized analysis bundle, baseline
 * count set, or decoded trace deserializes to bytes that re-serialize
 * identically; any torn, truncated, corrupt, or version-skewed entry
 * reads as a miss (and is unlinked), never as wrong data — and so
 * does a decoded trace that parses but breaks the trace invariant;
 * eviction
 * under a size cap races cleanly with concurrent readers; and a fresh
 * memo cache attached to a warm directory reproduces bit-identical
 * results without recomputing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/diskcache.h"
#include "core/experiment.h"
#include "core/json.h"
#include "core/memo.h"
#include "core/serialize.h"
#include "ir/analysis_bundle.h"
#include "sim/trace.h"
#include "workloads/registry.h"

namespace rfh {
namespace {

namespace fs = std::filesystem;

/** Fresh cache directory per test, removed on scope exit. */
class TempDir
{
  public:
    TempDir()
    {
        const testing::TestInfo *info =
            testing::UnitTest::GetInstance()->current_test_info();
        path_ = fs::temp_directory_path() /
            ("rfh-dc-" + std::to_string(::getpid()) + "-" +
             info->name());
        fs::remove_all(path_);
    }

    ~TempDir() { fs::remove_all(path_); }

    std::string
    str() const
    {
        return path_.string();
    }

    /** The single entry file in the directory (fails if not exactly 1). */
    fs::path
    onlyEntry() const
    {
        std::vector<fs::path> files;
        for (const auto &e : fs::directory_iterator(path_))
            files.push_back(e.path());
        EXPECT_EQ(files.size(), 1u);
        return files.empty() ? fs::path() : files[0];
    }

  private:
    fs::path path_;
};

const Kernel &
testKernel()
{
    static const Kernel &k = findWorkload("matrixmul")->kernel;
    return k;
}

// ---- Serialization round-trips ----

TEST(DiskCache, AnalysisBundleRoundTripIsByteIdentical)
{
    AnalysisBundle bundle(testKernel());
    ByteWriter w;
    bundle.serialize(w);
    std::string bytes = w.take();
    ASSERT_FALSE(bytes.empty());

    ByteReader r(bytes);
    AnalysisBundle copy(r);
    ASSERT_TRUE(r.ok());
    // The payload must be fully consumed: trailing bytes would mean
    // the reader and writer disagree about the layout.
    ASSERT_TRUE(r.atEnd());

    ByteWriter w2;
    copy.serialize(w2);
    EXPECT_EQ(bytes, w2.take());
}

TEST(DiskCache, AccessCountsAndTraceRoundTrip)
{
    const Workload &wl = *findWorkload("vectoradd");
    ExperimentCache cache;
    const AccessCounts &counts = cache.baseline(wl.kernel, wl.run);
    auto trace = cache.trace(wl.kernel, wl.run);

    ByteWriter cw;
    serializeAccessCounts(cw, counts);
    std::string cbytes = cw.take();
    ByteReader cr(cbytes);
    AccessCounts counts2 = deserializeAccessCounts(cr);
    ASSERT_TRUE(cr.ok() && cr.atEnd());
    ByteWriter cw2;
    serializeAccessCounts(cw2, counts2);
    EXPECT_EQ(cbytes, cw2.take());

    ByteWriter tw;
    serializeDecodedTrace(tw, *trace);
    std::string tbytes = tw.take();
    ByteReader tr(tbytes);
    DecodedTrace trace2 = deserializeDecodedTrace(tr);
    ASSERT_TRUE(tr.ok() && tr.atEnd());
    ByteWriter tw2;
    serializeDecodedTrace(tw2, trace2);
    EXPECT_EQ(tbytes, tw2.take());
}

TEST(DiskCache, TruncatedPayloadReadsAsFailure)
{
    AnalysisBundle bundle(testKernel());
    ByteWriter w;
    bundle.serialize(w);
    std::string bytes = w.take();

    // Every proper prefix must fail cleanly (sticky !ok()), never
    // fabricate a bundle or over-read.
    for (std::size_t cut : {std::size_t(0), std::size_t(1),
                            bytes.size() / 2, bytes.size() - 1}) {
        std::string prefix = bytes.substr(0, cut);
        ByteReader r(prefix);
        AnalysisBundle copy(r);
        EXPECT_FALSE(r.ok() && r.atEnd()) << "cut=" << cut;
    }
}

// ---- DiskCache storage semantics ----

TEST(DiskCache, StoreThenLoadHitsWithIdenticalPayload)
{
    TempDir dir;
    DiskCache dc({dir.str(), 0, kDiskCacheVersion});
    ASSERT_TRUE(dc.usable());

    std::string payload = "payload \0 with\nbinary bytes";
    dc.store("analysis:fp=1234", payload);
    std::string got;
    ASSERT_TRUE(dc.load("analysis:fp=1234", got));
    EXPECT_EQ(got, payload);
    EXPECT_EQ(dc.stats().hits, 1u);
    EXPECT_EQ(dc.stats().writes, 1u);

    // A different key is a miss even though the directory is warm.
    EXPECT_FALSE(dc.load("analysis:fp=9999", got));
    EXPECT_EQ(dc.stats().misses, 1u);
}

TEST(DiskCache, TornEntryIsAMissAndGetsUnlinked)
{
    TempDir dir;
    DiskCache dc({dir.str(), 0, kDiskCacheVersion});
    dc.store("baseline:fp=1", std::string(4096, 'x'));

    // Simulate a crash mid-write published by a non-atomic writer:
    // truncate the entry under its final name.
    fs::path entry = dir.onlyEntry();
    fs::resize_file(entry, fs::file_size(entry) / 2);

    std::string got;
    EXPECT_FALSE(dc.load("baseline:fp=1", got));
    EXPECT_EQ(dc.stats().invalidated, 1u);
    EXPECT_FALSE(fs::exists(entry));
}

TEST(DiskCache, CorruptPayloadFailsTheChecksum)
{
    TempDir dir;
    DiskCache dc({dir.str(), 0, kDiskCacheVersion});
    dc.store("trace:fp=2", std::string(1024, 'y'));

    fs::path entry = dir.onlyEntry();
    {
        // Flip one payload byte near the end of the file.
        std::fstream f(entry, std::ios::in | std::ios::out |
                                  std::ios::binary);
        f.seekp(-8, std::ios::end);
        f.put('Z');
    }
    std::string got;
    EXPECT_FALSE(dc.load("trace:fp=2", got));
    EXPECT_EQ(dc.stats().invalidated, 1u);
}

TEST(DiskCache, VersionMismatchInvalidatesOldEntries)
{
    TempDir dir;
    std::string got;
    {
        DiskCache v1({dir.str(), 0, 1});
        v1.store("analysis:fp=3", "old-layout");
        ASSERT_TRUE(v1.load("analysis:fp=3", got));
    }
    // An upgraded process must treat the v1 entry as a miss (the
    // payload layout may have changed), unlink it, and repopulate.
    DiskCache v2({dir.str(), 0, 2});
    EXPECT_FALSE(v2.load("analysis:fp=3", got));
    EXPECT_EQ(v2.stats().invalidated, 1u);
    v2.store("analysis:fp=3", "new-layout");
    ASSERT_TRUE(v2.load("analysis:fp=3", got));
    EXPECT_EQ(got, "new-layout");
}

TEST(DiskCache, SizeCapEvictsLeastRecentlyUsed)
{
    TempDir dir;
    // ~16 KiB cap, 2 KiB payloads: the directory can hold a handful
    // of entries and must evict the cold ones as more arrive.
    DiskCache dc({dir.str(), 16 * 1024, kDiskCacheVersion});
    for (int i = 0; i < 16; i++)
        dc.store("k" + std::to_string(i), std::string(2048, 'a'));

    DiskCacheStats s = dc.stats();
    EXPECT_GT(s.evictions, 0u);
    EXPECT_LE(s.bytesStored, 16u * 1024u);

    // The newest entry survived the sweep.
    std::string got;
    EXPECT_TRUE(dc.load("k15", got));
}

TEST(DiskCache, ConcurrentReadersSurviveEviction)
{
    TempDir dir;
    DiskCache dc({dir.str(), 32 * 1024, kDiskCacheVersion});
    const std::string payload(2048, 'p');
    for (int i = 0; i < 8; i++)
        dc.store("warm" + std::to_string(i), payload);

    // Readers hammer the warm keys while a writer churns new entries
    // through the cap, forcing evictions underneath them. Every load
    // must be either a clean hit with the exact payload or a clean
    // miss — never a crash or torn bytes.
    std::atomic<bool> stop{false};
    std::atomic<int> badPayloads{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; t++)
        readers.emplace_back([&, t] {
            std::string got;
            while (!stop.load()) {
                std::string key = "warm" + std::to_string(t * 2);
                if (dc.load(key, got) && got != payload)
                    badPayloads++;
            }
        });
    for (int i = 0; i < 64; i++)
        dc.store("churn" + std::to_string(i), payload);
    stop = true;
    for (std::thread &t : readers)
        t.join();

    EXPECT_EQ(badPayloads.load(), 0);
    EXPECT_GT(dc.stats().evictions, 0u);
}

TEST(DiskCache, UnusableDirectoryDegradesToNoop)
{
    TempDir dir;
    // Create a regular file where the cache directory should go.
    fs::create_directories(fs::path(dir.str()).parent_path());
    std::ofstream(dir.str()) << "not a directory";

    DiskCache dc({dir.str(), 0, kDiskCacheVersion});
    EXPECT_FALSE(dc.usable());
    std::string got;
    EXPECT_FALSE(dc.load("k", got));
    dc.store("k", "v");  // must not crash
    EXPECT_FALSE(dc.load("k", got));
}

// ---- Memo integration: warm start ----

TEST(DiskCache, FreshMemoCacheStartsWarmFromDisk)
{
    TempDir dir;
    DiskCache dc({dir.str(), 0, kDiskCacheVersion});
    const Workload &wl = *findWorkload("reduction");

    // First process: compute and persist.
    ByteWriter w1;
    {
        ExperimentCache memo;
        memo.attachDiskCache(&dc);
        memo.analyses(wl.kernel)->serialize(w1);
        ByteWriter tmp;
        serializeAccessCounts(tmp, memo.baseline(wl.kernel, wl.run));
        memo.trace(wl.kernel, wl.run);
        memo.attachDiskCache(nullptr);
    }
    DiskCacheStats cold = dc.stats();
    EXPECT_EQ(cold.hits, 0u);
    EXPECT_GE(cold.writes, 3u);  // baseline + analyses + trace

    // Second process (fresh memo cache, same directory): every kind
    // loads from disk and the analyses are bit-identical.
    ByteWriter w2;
    {
        ExperimentCache memo;
        memo.attachDiskCache(&dc);
        memo.analyses(wl.kernel)->serialize(w2);
        memo.baseline(wl.kernel, wl.run);
        memo.trace(wl.kernel, wl.run);
        memo.attachDiskCache(nullptr);
    }
    DiskCacheStats warm = dc.stats();
    EXPECT_GE(warm.hits, cold.hits + 3);
    EXPECT_EQ(warm.writes, cold.writes);
    EXPECT_EQ(w1.take(), w2.take());
}

TEST(DiskCache, MalformedTraceEntryIsAMissAndReRecords)
{
    TempDir dir;
    DiskCache dc({dir.str(), 0, kDiskCacheVersion});
    const Workload &wl = *findWorkload("reduction");
    ExperimentConfig cfg;
    cfg.scheme = Scheme::SW_THREE_LEVEL;
    cfg.engine = ExecEngine::REPLAY;
    ExperimentCache &memo = globalExperimentCache();
    memo.clear();
    const std::string fresh = outcomeToJson(runScheme(wl, cfg));
    memo.clear();

    // The key ExperimentCache::trace stores the recorded stream under.
    char key[160];
    std::snprintf(key, sizeof key, "trace:fp=%016llx:n=%d:warps=%d:cap=%llu",
                  static_cast<unsigned long long>(
                      kernelFingerprint(wl.kernel)),
                  wl.kernel.numInstrs(), wl.run.numWarps,
                  static_cast<unsigned long long>(wl.run.maxInstrsPerWarp));
    const DecodedTrace good = recordDecodedTrace(wl.kernel, wl.run);
    ByteWriter gw;
    serializeDecodedTrace(gw, good);
    const std::string goodBytes = gw.take();
    {
        ExperimentCache filler;
        filler.attachDiskCache(&dc);
        filler.trace(wl.kernel, wl.run);
        filler.attachDiskCache(nullptr);
        std::string payload;
        ASSERT_TRUE(dc.load(key, payload)) << "not the memo's key";
        ASSERT_EQ(payload, goodBytes);
    }

    // A well-checksummed entry whose planes no longer cover the stream.
    DecodedTrace bad = good;
    ASSERT_GT(bad.llWords.size(), 1u);
    bad.llWords.pop_back();
    ByteWriter bw;
    serializeDecodedTrace(bw, bad);
    dc.store(key, bw.take());
    const DiskCacheStats before = dc.stats();

    memo.attachDiskCache(&dc);
    std::shared_ptr<const DecodedTrace> loaded =
        memo.trace(wl.kernel, wl.run);
    const std::string got = outcomeToJson(runScheme(wl, cfg));
    memo.attachDiskCache(nullptr);
    memo.clear();

    ByteWriter lw;
    serializeDecodedTrace(lw, *loaded);
    EXPECT_EQ(lw.take(), goodBytes);
    // Re-recorded, so stored back over the malformed entry.
    EXPECT_GT(dc.stats().writes, before.writes);
    std::string payload;
    ASSERT_TRUE(dc.load(key, payload));
    EXPECT_EQ(payload, goodBytes);
    EXPECT_EQ(got, fresh);
}

} // namespace
} // namespace rfh
