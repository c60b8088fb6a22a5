#include "core/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/json.h"
#include "core/metrics.h"

namespace rfh {

namespace {

/** splitmix64 step (the repo's standard small deterministic RNG). */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Largest magnitude the fixed-point sums accept without overflow. */
constexpr double kClampAbs = 1.099511627776e12; // 2^40

} // namespace

double
wireRound(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::strtod(buf, nullptr);
}

int
StreamStat::bucketOf(double x)
{
    if (!(x > 0.0))
        return 0;
    int exp = 0;
    double m = std::frexp(x, &exp); // x = m * 2^exp, m in [0.5, 1)
    // Sub-bucket from the mantissa: log2(m) in [-1, 0).
    int sub = static_cast<int>((std::log2(m) + 1.0) * kSubBuckets);
    sub = std::clamp(sub, 0, kSubBuckets - 1);
    long idx = (static_cast<long>(exp) - 1 - kMinExp) * kSubBuckets +
        sub + 1;
    return static_cast<int>(std::clamp<long>(idx, 1, kBuckets - 1));
}

double
StreamStat::bucketLo(int b)
{
    if (b <= 0)
        return 0.0;
    return std::exp2(kMinExp +
                     static_cast<double>(b - 1) / kSubBuckets);
}

double
StreamStat::bucketHi(int b)
{
    if (b <= 0)
        return 0.0;
    return std::exp2(kMinExp + static_cast<double>(b) / kSubBuckets);
}

void
StreamStat::add(double x)
{
    double clamped = std::clamp(x, -kClampAbs, kClampAbs);
    // One quantization, then exact arithmetic (see file comment).
    long long q = std::llround(std::ldexp(clamped, kFracBits));
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    n_++;
    sum_ += q;
    sumSq_ += static_cast<unsigned __int128>(
        static_cast<__int128>(q) * static_cast<__int128>(q));
    countInBucket(bucketOf(x), 1);
}

std::uint64_t
StreamStat::bucketCount(int b) const
{
    if (b == 0)
        return pooled_;
    const std::size_t i = static_cast<std::size_t>(b - histLo_);
    return b >= histLo_ && i < hist_.size() ? hist_[i] : 0;
}

void
StreamStat::countInBucket(int b, std::uint64_t c)
{
    if (b == 0) {
        pooled_ += c;
        return;
    }
    if (hist_.empty()) {
        histLo_ = b;
        hist_.push_back(0);
    } else if (b < histLo_) {
        hist_.insert(hist_.begin(), static_cast<std::size_t>(histLo_ - b),
                     0);
        histLo_ = b;
    } else if (static_cast<std::size_t>(b - histLo_) >= hist_.size()) {
        hist_.resize(static_cast<std::size_t>(b - histLo_) + 1, 0);
    }
    hist_[static_cast<std::size_t>(b - histLo_)] += c;
}

void
StreamStat::merge(const StreamStat &o)
{
    if (o.n_ == 0)
        return;
    if (n_ == 0) {
        min_ = o.min_;
        max_ = o.max_;
    } else {
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
    }
    n_ += o.n_;
    sum_ += o.sum_;
    sumSq_ += o.sumSq_;
    pooled_ += o.pooled_;
    for (std::size_t i = 0; i < o.hist_.size(); i++)
        if (o.hist_[i])
            countInBucket(o.histLo_ + static_cast<int>(i), o.hist_[i]);
}

double
StreamStat::mean() const
{
    if (n_ == 0)
        return 0.0;
    return std::ldexp(static_cast<double>(sum_) /
                          static_cast<double>(n_),
                      -kFracBits);
}

double
StreamStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    double m = mean();
    double meanSq = std::ldexp(static_cast<double>(sumSq_) /
                                   static_cast<double>(n_),
                               -2 * kFracBits);
    double biased = std::max(0.0, meanSq - m * m);
    return biased * static_cast<double>(n_) /
        static_cast<double>(n_ - 1);
}

double
StreamStat::stddev() const
{
    return std::sqrt(variance());
}

double
StreamStat::min() const
{
    return n_ ? min_ : 0.0;
}

double
StreamStat::max() const
{
    return n_ ? max_ : 0.0;
}

double
StreamStat::quantile(double q) const
{
    if (n_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank in [1, n]: the q-th smallest sample, nearest-rank with
    // linear interpolation inside the landing bucket.
    double rank = q * static_cast<double>(n_ - 1) + 1.0;
    std::uint64_t before = 0;
    for (int b = 0; b < kBuckets; b++) {
        std::uint64_t c = bucketCount(b);
        if (c == 0)
            continue;
        if (rank <= static_cast<double>(before + c)) {
            double frac = (rank - static_cast<double>(before)) /
                static_cast<double>(c);
            frac = std::clamp(frac, 0.0, 1.0);
            double lo = bucketLo(b);
            double hi = bucketHi(b);
            // Clip the bucket to the observed sample range so
            // single-bucket distributions report sensible extremes.
            lo = std::max(lo, min_);
            hi = std::min(hi, max_);
            if (hi < lo)
                hi = lo;
            return lo + (hi - lo) * frac;
        }
        before += c;
    }
    return max_;
}

StatBand
StreamStat::bootstrapMeanBand(double confidence, int resamples,
                              std::uint64_t seed) const
{
    StatBand band{mean(), mean()};
    if (n_ < 2 || resamples < 2)
        return band;
    static Timer &timer = globalMetrics().timer("corpus.bootstrap");
    ScopedTimer scoped(timer);

    // The bucket midpoint of every pick in [0, n), once: the samples
    // in bucket order, each stood in for by its bucket's midpoint.
    std::vector<double> midOf;
    midOf.reserve(static_cast<std::size_t>(n_));
    double histSum = 0.0;
    for (int b = 0; b < kBuckets; b++) {
        std::uint64_t c = bucketCount(b);
        if (c == 0)
            continue;
        double v = b == 0 ? std::min(0.0, min_)
                          : 0.5 * (bucketLo(b) + bucketHi(b));
        midOf.insert(midOf.end(), static_cast<std::size_t>(c), v);
        histSum += v * static_cast<double>(c);
    }
    // Recentre: resample means carry the bucket-midpoint bias, so
    // shift the whole band onto the exact fixed-point mean.
    double shift = mean() - histSum / static_cast<double>(n_);

    std::vector<double> means;
    means.reserve(static_cast<std::size_t>(resamples));
    // Mix the caller's seed before folding in the resample index:
    // XOR-ing raw adjacent seeds with the index would hand nearly the
    // same *set* of streams to seed and seed+1, and identical sorted
    // percentiles with them.
    const std::uint64_t mixedSeed = mix64(seed ^ 0x8badf00dULL);
    for (int r = 0; r < resamples; r++) {
        std::uint64_t stream =
            mix64(mixedSeed + static_cast<std::uint64_t>(r));
        double sum = 0.0;
        for (std::uint64_t i = 0; i < n_; i++) {
            stream = mix64(stream);
            sum += midOf[static_cast<std::size_t>(stream % n_)];
        }
        means.push_back(sum / static_cast<double>(n_) + shift);
    }
    std::sort(means.begin(), means.end());
    double alpha = std::clamp(1.0 - confidence, 0.0, 1.0);
    auto at = [&](double p) {
        int i = static_cast<int>(p * (resamples - 1));
        return means[static_cast<std::size_t>(
            std::clamp(i, 0, resamples - 1))];
    };
    band.lo = at(alpha / 2);
    band.hi = at(1.0 - alpha / 2);
    return band;
}

std::uint64_t
StreamStat::fingerprint() const
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a offset basis
    auto fold = [&h](const void *p, std::size_t len) {
        const unsigned char *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < len; i++) {
            h ^= b[i];
            h *= 1099511628211ULL;
        }
    };
    fold(&n_, sizeof n_);
    fold(&sum_, sizeof sum_);
    fold(&sumSq_, sizeof sumSq_);
    if (n_) {
        fold(&min_, sizeof min_);
        fold(&max_, sizeof max_);
    }
    for (std::size_t b = 0; b < static_cast<std::size_t>(kBuckets); b++) {
        const std::uint64_t c = bucketCount(static_cast<int>(b));
        if (c) {
            fold(&b, sizeof b);
            fold(&c, sizeof c);
        }
    }
    return h;
}

void
StreamStat::writeJson(JsonWriter &w, double confidence, int resamples,
                      std::uint64_t seed) const
{
    w.beginObject();
    w.key("count").value(static_cast<std::uint64_t>(n_));
    w.key("mean").value(mean());
    w.key("stddev").value(stddev());
    w.key("min").value(min());
    w.key("max").value(max());
    w.key("p10").value(quantile(0.10));
    w.key("p50").value(quantile(0.50));
    w.key("p90").value(quantile(0.90));
    if (resamples > 0) {
        StatBand band = bootstrapMeanBand(confidence, resamples, seed);
        w.key("band");
        w.beginObject();
        w.key("confidence").value(confidence);
        w.key("lo").value(band.lo);
        w.key("hi").value(band.hi);
        w.endObject();
    }
    w.endObject();
}

} // namespace rfh
