#include "core/memo.h"

#include <cstdio>

#include "core/diskcache.h"
#include "core/metrics.h"
#include "core/serialize.h"

namespace rfh {

namespace {

/** Registry mirror of the cache counters (one-time registration). */
struct MemoMetrics
{
    Counter &baselineHits = globalMetrics().counter("memo.baseline.hits");
    Counter &baselineMisses =
        globalMetrics().counter("memo.baseline.misses");
    Counter &analysisHits = globalMetrics().counter("memo.analysis.hits");
    Counter &analysisMisses =
        globalMetrics().counter("memo.analysis.misses");
    Counter &traceHits = globalMetrics().counter("memo.trace.hits");
    Counter &traceMisses = globalMetrics().counter("memo.trace.misses");
    Counter &decodeHits = globalMetrics().counter("memo.decode.hits");
    Counter &decodeMisses =
        globalMetrics().counter("memo.decode.misses");
};

MemoMetrics &
memoMetrics()
{
    static MemoMetrics m;
    return m;
}

/** FNV-1a 64-bit. */
class Fnv
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    mix(const std::string &s)
    {
        mix(s.size());
        for (char c : s) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t
    value() const
    {
        return h_;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Disk-cache key strings. The key embeds every input the entry depends
 * on (the structural fingerprint plus the run parameters); the cache
 * stores the full string in the entry header, so a 64-bit filename
 * collision can never serve the wrong entry.
 */
std::string
diskKey(const char *kind, std::uint64_t fp, int numInstrs, int numWarps,
        std::uint64_t maxInstrs)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s:fp=%016llx:n=%d:warps=%d:cap=%llu", kind,
                  static_cast<unsigned long long>(fp), numInstrs, numWarps,
                  static_cast<unsigned long long>(maxInstrs));
    return buf;
}

} // namespace

std::uint64_t
kernelFingerprint(const Kernel &k)
{
    Fnv f;
    f.mix(k.name);
    f.mix(k.blocks.size());
    for (const auto &bb : k.blocks) {
        f.mix(bb.instrs.size());
        for (const Instruction &in : bb.instrs) {
            f.mix(static_cast<std::uint64_t>(in.op));
            f.mix(in.dst ? *in.dst : 0xffu);
            f.mix(static_cast<std::uint64_t>(in.numSrcs));
            for (int s = 0; s < in.numSrcs; s++) {
                const SrcOperand &src = in.srcs[s];
                f.mix(src.isReg ? 1u : 0u);
                f.mix(src.isReg ? src.reg : src.imm);
            }
            f.mix(in.pred ? *in.pred : 0xffu);
            f.mix(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(in.branchTarget)));
            f.mix(in.wide ? 1u : 0u);
            f.mix(in.memOffset);
        }
    }
    return f.value();
}

const AccessCounts &
ExperimentCache::baseline(const Kernel &k, const RunConfig &run)
{
    BaselineKey key{kernelFingerprint(k), k.numInstrs(), run.numWarps,
                    run.maxInstrsPerWarp};
    std::shared_ptr<BaselineEntry> e;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto &slot = baseline_[key];
        if (!slot)
            slot = std::make_shared<BaselineEntry>();
        e = slot;
    }
    bool miss = false;
    std::call_once(e->once, [&] {
        miss = true;
        DiskCache *dc = diskCache();
        std::string dkey;
        if (dc) {
            dkey = diskKey("baseline", std::get<0>(key), std::get<1>(key),
                           std::get<2>(key), std::get<3>(key));
            std::string payload;
            if (dc->load(dkey, payload)) {
                ByteReader r(payload);
                AccessCounts c = deserializeAccessCounts(r);
                if (r.ok() && r.atEnd()) {
                    e->counts = c;
                    return;
                }
            }
        }
        e->counts = runBaseline(k, run);
        if (dc) {
            ByteWriter w;
            serializeAccessCounts(w, e->counts);
            dc->store(dkey, w.bytes());
        }
    });
    if (miss) {
        baselineMisses_++;
        memoMetrics().baselineMisses.add();
    } else {
        baselineHits_++;
        memoMetrics().baselineHits.add();
    }
    return e->counts;
}

std::shared_ptr<const AnalysisBundle>
ExperimentCache::analyses(const Kernel &k)
{
    AnalysisKey key{kernelFingerprint(k), k.numInstrs()};
    std::shared_ptr<AnalysisEntry> e;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto &slot = analyses_[key];
        if (!slot)
            slot = std::make_shared<AnalysisEntry>();
        e = slot;
    }
    bool miss = false;
    std::call_once(e->once, [&] {
        miss = true;
        DiskCache *dc = diskCache();
        std::string dkey;
        if (dc) {
            dkey = diskKey("analysis", key.first, key.second, 0, 0);
            std::string payload;
            if (dc->load(dkey, payload)) {
                ByteReader r(payload);
                auto bundle = std::make_shared<const AnalysisBundle>(r);
                if (r.ok() && r.atEnd()) {
                    e->bundle = std::move(bundle);
                    return;
                }
            }
        }
        e->bundle = std::make_shared<const AnalysisBundle>(k);
        if (dc) {
            ByteWriter w;
            e->bundle->serialize(w);
            dc->store(dkey, w.bytes());
        }
    });
    if (miss) {
        analysisMisses_++;
        memoMetrics().analysisMisses.add();
    } else {
        analysisHits_++;
        memoMetrics().analysisHits.add();
    }
    return e->bundle;
}

std::shared_ptr<const DecodedTrace>
ExperimentCache::trace(const Kernel &k, const RunConfig &run)
{
    BaselineKey key{kernelFingerprint(k), k.numInstrs(), run.numWarps,
                    run.maxInstrsPerWarp};
    std::shared_ptr<TraceEntry> e;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto &slot = traces_[key];
        if (!slot)
            slot = std::make_shared<TraceEntry>();
        e = slot;
    }
    bool miss = false;
    std::call_once(e->once, [&] {
        miss = true;
        DiskCache *dc = diskCache();
        std::string dkey;
        if (dc) {
            dkey = diskKey("trace", std::get<0>(key), std::get<1>(key),
                           std::get<2>(key), std::get<3>(key));
            std::string payload;
            if (dc->load(dkey, payload)) {
                // A payload that parses but breaks the trace invariant
                // (say, truncated planes) would index out of bounds in
                // replay: treat it as a miss and re-record.
                ByteReader r(payload);
                DecodedTrace t = deserializeDecodedTrace(r);
                if (r.ok() && r.atEnd() && t.wellFormed(k.numInstrs())) {
                    e->trace = std::make_shared<const DecodedTrace>(
                        std::move(t));
                    return;
                }
            }
        }
        e->trace =
            std::make_shared<const DecodedTrace>(recordDecodedTrace(k, run));
        if (dc) {
            ByteWriter w;
            serializeDecodedTrace(w, *e->trace);
            dc->store(dkey, w.bytes());
        }
    });
    if (miss) {
        traceMisses_++;
        memoMetrics().traceMisses.add();
    } else {
        traceHits_++;
        memoMetrics().traceHits.add();
    }
    return e->trace;
}

std::shared_ptr<const ReplayDecode>
ExperimentCache::decode(const Kernel &k)
{
    AnalysisKey key{kernelFingerprint(k), k.numInstrs()};
    std::shared_ptr<DecodeEntry> e;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto &slot = decodes_[key];
        if (!slot)
            slot = std::make_shared<DecodeEntry>();
        e = slot;
    }
    bool miss = false;
    std::call_once(e->once, [&] {
        auto bundle = analyses(k);
        e->decode = std::make_shared<const ReplayDecode>(
            k, &bundle->reachingDefs);
        miss = true;
    });
    if (miss) {
        decodeMisses_++;
        memoMetrics().decodeMisses.add();
    } else {
        decodeHits_++;
        memoMetrics().decodeHits.add();
    }
    return e->decode;
}

void
ExperimentCache::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    baseline_.clear();
    analyses_.clear();
    traces_.clear();
    decodes_.clear();
}

std::size_t
ExperimentCache::entryCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return baseline_.size() + analyses_.size() + traces_.size() +
        decodes_.size();
}

ExperimentCache::Stats
ExperimentCache::stats() const
{
    Stats s;
    s.baselineHits = baselineHits_.load();
    s.baselineMisses = baselineMisses_.load();
    s.analysisHits = analysisHits_.load();
    s.analysisMisses = analysisMisses_.load();
    s.traceHits = traceHits_.load();
    s.traceMisses = traceMisses_.load();
    s.decodeHits = decodeHits_.load();
    s.decodeMisses = decodeMisses_.load();
    return s;
}

ExperimentCache &
globalExperimentCache()
{
    static ExperimentCache cache;
    return cache;
}

} // namespace rfh
