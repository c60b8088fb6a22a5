/**
 * @file
 * Persistent content-addressed compile cache.
 *
 * The compile-time managed hierarchy front-loads all allocation work
 * into compilation, which makes compiled results perfectly cacheable:
 * a kernel's baseline counts, analysis bundle, and decoded trace
 * depend only on the kernel fingerprint (core/memo.h) and the run
 * configuration — never on which process computed them. DiskCache
 * persists those memo entries across processes and restarts, in the
 * spirit of ccache/sccache: a restarted `rfhc serve` starts warm
 * instead of recompiling every kernel it has seen.
 *
 * Storage model (one directory, one file per entry):
 *  - Entries are keyed by a 64-bit content hash; the full key string
 *    ("baseline:fp=...:warps=..." ) is stored in the entry header and
 *    verified on load, so hash collisions degrade to misses, never to
 *    wrong results.
 *  - Writes go to a temp file in the same directory and are published
 *    with rename(2) — readers never observe a half-written entry under
 *    its final name, and concurrent writers of the same key are
 *    idempotent (entries are deterministic functions of their key).
 *  - Reads validate magic, cache version, key string, length, and a
 *    payload checksum; any torn, truncated, or stale-version entry is
 *    treated as a miss and unlinked. A crash mid-write costs one
 *    recomputation, never corruption.
 *  - The directory is size-capped: when stored bytes exceed maxBytes,
 *    the least-recently-used entries (hit loads re-touch mtime) are
 *    evicted down to ~90% of the cap. Readers racing an eviction are
 *    safe: an unlinked-but-open file stays readable, and a lost race
 *    on open is just a miss.
 *
 * Counters are mirrored into the global metrics registry under
 * `service.cache.*` (disk_hits, disk_misses, disk_writes,
 * disk_evictions, disk_bytes_read, disk_bytes_written, and the
 * disk_bytes gauge), so session manifests record cache effectiveness.
 */

#ifndef RFH_CORE_DISKCACHE_H
#define RFH_CORE_DISKCACHE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace rfh {

/** Bump when any serialized payload layout changes. */
inline constexpr std::uint32_t kDiskCacheVersion = 2;

/** DiskCache configuration. */
struct DiskCacheOptions
{
    /** Cache directory (created if absent). */
    std::string dir;
    /** Stored-bytes cap before LRU eviction (0 = unlimited). */
    std::uint64_t maxBytes = 256ull << 20;
    /**
     * Entry format version; a loaded entry whose version differs is
     * invalidated. Tests override this to simulate upgrades; real
     * callers keep the default.
     */
    std::uint32_t version = kDiskCacheVersion;
};

/** Monotonic counters (also mirrored into core/metrics). */
struct DiskCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writes = 0;       ///< Entries published.
    std::uint64_t writeErrors = 0;  ///< I/O failures (cache stays best-effort).
    std::uint64_t evictions = 0;    ///< Entries unlinked by the size cap.
    std::uint64_t invalidated = 0;  ///< Torn/corrupt/stale entries unlinked.
    std::uint64_t bytesRead = 0;    ///< Payload bytes of hits.
    std::uint64_t bytesWritten = 0; ///< Payload bytes of writes.
    std::uint64_t bytesStored = 0;  ///< Approx. bytes on disk now.
};

/** One on-disk content-addressed cache directory (see file comment). */
class DiskCache
{
  public:
    explicit DiskCache(const DiskCacheOptions &opts);

    DiskCache(const DiskCache &) = delete;
    DiskCache &operator=(const DiskCache &) = delete;

    /**
     * Look up the entry for @p key. On a hit, @p payload receives the
     * stored bytes and the entry's LRU clock is touched. @return false
     * (a miss) when absent, torn, corrupt, or written by a different
     * cache version — the caller recomputes and store()s.
     */
    bool load(const std::string &key, std::string &payload);

    /**
     * Publish @p payload under @p key (atomic rename; best-effort —
     * I/O errors are counted, not thrown), then enforce the size cap.
     */
    void store(const std::string &key, std::string_view payload);

    /** True when the cache directory is usable. */
    bool
    usable() const
    {
        return usable_;
    }

    const std::string &
    dir() const
    {
        return opts_.dir;
    }

    DiskCacheStats stats() const;

  private:
    std::string entryPath(const std::string &key) const;
    /** Unlink a bad entry and count the invalidation. */
    void invalidate(const std::string &path);
    /** Evict oldest entries until stored bytes fit the cap. */
    void enforceCap();
    /** Recompute bytesStored_ from the directory. */
    std::uint64_t scanBytes();

    DiskCacheOptions opts_;
    bool usable_ = false;
    mutable std::mutex mu_;
    DiskCacheStats stats_;
    std::uint64_t tmpSeq_ = 0;
};

} // namespace rfh

#endif // RFH_CORE_DISKCACHE_H
