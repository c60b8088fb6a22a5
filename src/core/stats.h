/**
 * @file
 * Mergeable streaming statistics for corpus-scale population sweeps.
 *
 * A StreamStat summarises one scalar metric (energy ratio, access
 * share, IPC, ...) over an unbounded sample stream in O(1) memory per
 * stream: exactly-mergeable moments, a log-bucket histogram for
 * quantiles, and a bootstrap confidence band for the mean.
 *
 * Determinism contract: every sample is quantized ONCE (to 2^-24
 * fixed point for the moments, to a 2^(1/16)-wide log bucket for the
 * histogram) at add() time; all later accumulation is exact integer
 * arithmetic on 128-bit sums and 64-bit bucket counts. merge() is
 * therefore exactly associative and commutative — splitting a stream
 * across any number of workers or shards and merging in any order
 * reproduces the sequential state bit for bit, which is what lets the
 * corpus engine (core/corpus.h) promise byte-identical aggregate JSON
 * across thread counts and execution substrates.
 *
 * The derived figures (mean, variance, quantiles, bootstrap band) are
 * pure functions of that exact state, so they inherit the guarantee.
 */

#ifndef RFH_CORE_STATS_H
#define RFH_CORE_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace rfh {

class JsonWriter;

/**
 * Round @p v through the result-JSON wire format ("%.6g", the
 * JsonWriter double encoding). The corpus engine quantizes every
 * real-valued sample through this before folding, so samples derived
 * locally (from full-precision RunOutcome doubles) and remotely (from
 * parsed service result documents) are identical, and local and
 * served corpus aggregates agree byte for byte.
 */
double wireRound(double v);

/** A two-sided confidence band. */
struct StatBand
{
    double lo = 0.0;
    double hi = 0.0;

    /** @return whether @p v lies inside the closed band. */
    bool
    contains(double v) const
    {
        return v >= lo && v <= hi;
    }
};

/**
 * Exactly-mergeable streaming summary of one nonnegative-ish scalar
 * (negative samples are accepted by the moments but pooled into one
 * histogram bucket; every corpus metric is nonnegative).
 */
class StreamStat
{
  public:
    /** Samples per octave bucket: quantile resolution 2^(1/16)-1. */
    static constexpr int kSubBuckets = 16;
    /** Smallest positive bucketed magnitude: 2^kMinExp. */
    static constexpr int kMinExp = -32;
    /** One-past-largest bucketed exponent: values >= 2^kMaxExp clamp. */
    static constexpr int kMaxExp = 40;
    /** Log-bucket count (plus one leading nonpositive bucket). */
    static constexpr int kBuckets =
        (kMaxExp - kMinExp) * kSubBuckets + 1;
    /** Fixed-point fraction bits of the moment sums. */
    static constexpr int kFracBits = 24;

    /** Fold one sample (quantized once; see file comment). */
    void add(double x);

    /**
     * Fold another stream's state in. Exactly associative and
     * commutative: any split/merge tree over the same multiset of
     * add() calls yields bit-identical state.
     */
    void merge(const StreamStat &o);

    std::uint64_t
    count() const
    {
        return n_;
    }

    /** Mean of the fixed-point-quantized samples. */
    double mean() const;

    /** Unbiased sample variance (0 for fewer than two samples). */
    double variance() const;

    double stddev() const;

    /** Smallest / largest sample seen (0 when empty). */
    double min() const;
    double max() const;

    /**
     * Histogram-interpolated quantile @p q in [0, 1]: exact to one
     * log bucket (relative error <= 2^(1/16) - 1, about 4.4%), linear
     * within the bucket. 0 when empty.
     */
    double quantile(double q) const;

    /**
     * Bootstrap confidence band for the mean: @p resamples resample
     * means drawn from the histogram with a splitmix64 stream seeded
     * by @p seed, recentred on the exact mean(), at two-sided level
     * @p confidence. Deterministic: a pure function of (state,
     * confidence, resamples, seed). Degenerates to [mean, mean] for
     * fewer than two samples.
     */
    StatBand bootstrapMeanBand(double confidence, int resamples,
                               std::uint64_t seed) const;

    /**
     * FNV-1a digest of the exact state (n, fixed-point sums, min/max
     * bits, bucket counts). Two stats compare equal iff their digests
     * do; the merge tests pin split-merge == sequential with this.
     */
    std::uint64_t fingerprint() const;

    /**
     * Serialise the summary as one JSON object: count, mean, stddev,
     * min, max, p10/p50/p90, and — when @p resamples > 0 — the
     * bootstrap band as {"band":{"lo":…,"hi":…}}. Pure function of
     * the exact state.
     */
    void writeJson(JsonWriter &w, double confidence = 0.95,
                   int resamples = 0, std::uint64_t seed = 1) const;

  private:
    /** Histogram bucket of @p x (0 = nonpositive pool). */
    static int bucketOf(double x);
    /** Lower / upper value bounds of bucket @p b. */
    static double bucketLo(int b);
    static double bucketHi(int b);

    std::uint64_t n_ = 0;
    /** Sum of quantized samples, in 2^-kFracBits units. */
    __int128 sum_ = 0;
    /** Sum of squared quantized samples, in 2^-2*kFracBits units. */
    unsigned __int128 sumSq_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
    /** Lazily sized to kBuckets on first add (empty stats stay tiny). */
    std::vector<std::uint64_t> hist_;
};

} // namespace rfh

#endif // RFH_CORE_STATS_H
