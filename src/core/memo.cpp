#include "core/memo.h"

#include <algorithm>
#include <cstring>

#include "core/metrics.h"

namespace rfh {

namespace {

/** Input kinds by Kind: metric names. */
const char *const kKindNames[] = {"baseline", "analysis", "trace",
                                  "decode"};

/** Registry mirror of the cache counters, indexed like Kind. */
struct MemoMetrics
{
    Counter *hits[4];
    Counter *misses[4];

    MemoMetrics()
    {
        for (int k = 0; k < 4; k++) {
            const std::string name = std::string("memo.") + kKindNames[k];
            hits[k] = &globalMetrics().counter(name + ".hits");
            misses[k] = &globalMetrics().counter(name + ".misses");
        }
    }
};

MemoMetrics &
memoMetrics()
{
    static MemoMetrics m;
    return m;
}

} // namespace

/** The baseline and trace of one kernel under one RunConfig. */
struct ExperimentCache::RunEntry
{
    explicit RunEntry(const RunConfig &r) : run(r) {}

    const RunConfig run;
    Slot<AccessCounts> baseline;
    Slot<std::shared_ptr<const DecodedTrace>> trace;
};

/** Every cached input of one kernel. */
struct ExperimentCache::KernelEntry
{
    /** Set by clear(); guarded by the cache's mutex. */
    bool dropped = false;
    Slot<std::shared_ptr<const AnalysisBundle>> analyses;
    Slot<std::shared_ptr<const ReplayDecode>> decode;
    /** By (numWarps, maxInstrsPerWarp); guarded by the cache's mutex. */
    std::map<std::pair<int, std::uint64_t>, RunEntry> runs;
};

std::uint64_t
kernelFingerprint(const Kernel &k)
{
    // One multiply and one xor-shift per 64-bit word. Each step is a
    // bijection of the state for a fixed word, so two streams of the
    // same shape that differ in a single word always hash apart.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 32;
    };
    mix(k.name.size());
    for (std::size_t i = 0; i < k.name.size(); i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, k.name.data() + i,
                    std::min<std::size_t>(8, k.name.size() - i));
        mix(w);
    }
    mix(k.blocks.size());
    static_assert(kMaxSrcs == 3, "one word per two sources below");
    for (const auto &bb : k.blocks) {
        mix(bb.instrs.size());
        for (const Instruction &in : bb.instrs) {
            // Unused source slots hash as zero, whatever they hold.
            std::uint64_t src[kMaxSrcs] = {};
            std::uint64_t isReg = 0;
            for (int s = 0; s < in.numSrcs; s++) {
                const SrcOperand &op = in.srcs[s];
                isReg |= std::uint64_t{op.isReg} << s;
                src[s] = op.isReg ? op.reg : op.imm;
            }
            mix(static_cast<std::uint64_t>(in.op) |
                std::uint64_t{in.dst.has_value()} << 8 |
                std::uint64_t{in.dst.value_or(0)} << 9 |
                std::uint64_t{in.pred.has_value()} << 17 |
                std::uint64_t{in.pred.value_or(0)} << 18 |
                std::uint64_t{in.wide} << 26 |
                static_cast<std::uint64_t>(in.numSrcs) << 27 |
                isReg << 29 |
                static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(in.branchTarget))
                    << 32);
            mix(src[0] | src[1] << 32);
            mix(src[2] | std::uint64_t{in.memOffset} << 32);
        }
    }
    return h;
}

/**
 * Fill @p slot once by @p compute. Every call counts one hit or, for
 * the call that filled, one miss.
 */
template <class T, class Compute>
const T &
ExperimentCache::fill(Slot<T> &slot, Kind kind, const KernelEntry &e,
                      Compute compute)
{
    bool miss = false;
    std::call_once(slot.once, [&] {
        miss = true;
        {
            // An entry a clear() dropped no longer counts.
            std::lock_guard<std::mutex> lk(mu_);
            filled_ += e.dropped ? 0 : 1;
        }
        slot.value = compute();
    });
    (miss ? misses_ : hits_)[kind]++;
    (miss ? memoMetrics().misses : memoMetrics().hits)[kind]->add();
    return slot.value;
}

ExperimentCache::Inputs
ExperimentCache::inputs(const Kernel &k, const RunConfig *run)
{
    Inputs in;
    in.cache_ = this;
    in.kernel_ = &k;
    const KernelKey key{kernelFingerprint(k), k.numInstrs()};
    std::lock_guard<std::mutex> lk(mu_);
    std::shared_ptr<KernelEntry> &e = entries_[key];
    if (!e)
        e = std::make_shared<KernelEntry>();
    if (run)
        in.run_ = &e->runs
                       .try_emplace({run->numWarps, run->maxInstrsPerWarp},
                                    *run)
                       .first->second;
    in.entry_ = e;
    return in;
}

const AccessCounts &
ExperimentCache::Inputs::baseline() const
{
    return cache_->fill(run_->baseline, BASELINE, *entry_,
                        [&] { return runBaseline(*kernel_, run_->run); });
}

std::shared_ptr<const AnalysisBundle>
ExperimentCache::Inputs::analyses() const
{
    return cache_->fill(entry_->analyses, ANALYSIS, *entry_, [&] {
        return std::make_shared<const AnalysisBundle>(*kernel_);
    });
}

std::shared_ptr<const DecodedTrace>
ExperimentCache::Inputs::trace() const
{
    return cache_->fill(run_->trace, TRACE, *entry_, [&] {
        return std::make_shared<const DecodedTrace>(
            recordDecodedTrace(*kernel_, run_->run));
    });
}

std::shared_ptr<const ReplayDecode>
ExperimentCache::Inputs::decode() const
{
    return cache_->fill(entry_->decode, DECODE, *entry_, [&] {
        std::shared_ptr<const AnalysisBundle> bundle = analyses();
        return std::make_shared<const ReplayDecode>(
            *kernel_, &bundle->reachingDefs);
    });
}

void
ExperimentCache::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto &kv : entries_)
        kv.second->dropped = true;
    entries_.clear();
    filled_ = 0;
}

std::size_t
ExperimentCache::entryCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return filled_;
}

ExperimentCache::Stats
ExperimentCache::stats() const
{
    Stats s;
    s.baselineHits = hits_[BASELINE].load();
    s.baselineMisses = misses_[BASELINE].load();
    s.analysisHits = hits_[ANALYSIS].load();
    s.analysisMisses = misses_[ANALYSIS].load();
    s.traceHits = hits_[TRACE].load();
    s.traceMisses = misses_[TRACE].load();
    s.decodeHits = hits_[DECODE].load();
    s.decodeMisses = misses_[DECODE].load();
    return s;
}

ExperimentCache &
globalExperimentCache()
{
    static ExperimentCache cache;
    return cache;
}

} // namespace rfh
