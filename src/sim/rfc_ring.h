/**
 * @file
 * Per-warp register-file-cache state shared by the hardware-managed
 * cache executors (sim/hw_cache.cpp) and the compiler-assisted RFC
 * (sim/cc_rfc.cpp): a register bitset for O(1) membership tests on the
 * read path plus a ring buffer preserving FIFO insertion order for
 * eviction. Both executors probe this on every operand, so the
 * membership test must not scan. Each ring owns its FIFO storage,
 * sized to the entry count at construction (at most 8 registers).
 */

#ifndef RFH_SIM_RFC_RING_H
#define RFH_SIM_RFC_RING_H

#include <vector>

#include "ir/liveness.h"

namespace rfh {

/** FIFO register cache: bitset membership + ring eviction order. */
class RfcRing
{
  public:
    explicit RfcRing(int entries)
        : entries_(entries),
          fifo_(static_cast<std::size_t>(entries > 0 ? entries : 0))
    {
    }

    /** @return true if @p r is cached. */
    bool
    contains(Reg r) const
    {
        return present_.test(r);
    }

    /**
     * Insert @p r (overwriting in place on a hit). When the cache is
     * full, the FIFO victim register is returned through @p evicted.
     *
     * @return true if a valid entry was evicted.
     */
    bool
    insert(Reg r, Reg &evicted)
    {
        if (entries_ <= 0 || present_.test(r))
            return false;
        present_.set(r);
        if (size_ < entries_) {
            fifo_[wrap(head_ + size_)] = r;
            size_++;
            return false;
        }
        evicted = fifo_[head_];
        present_.reset(evicted);
        fifo_[head_] = r;
        head_ = wrap(head_ + 1);
        return true;
    }

    void
    erase(Reg r)
    {
        if (!present_.test(r))
            return;
        present_.reset(r);
        // Compact the ring in place; survivors keep FIFO order (the
        // write slot always trails the read slot).
        int kept = 0;
        for (int i = 0; i < size_; i++) {
            Reg v = fifo_[wrap(head_ + i)];
            if (v != r)
                fifo_[wrap(head_ + kept++)] = v;
        }
        size_ = kept;
    }

    /** Visit the cached registers in FIFO order. */
    template <typename F>
    void
    forEach(F f) const
    {
        for (int i = 0; i < size_; i++)
            f(fifo_[wrap(head_ + i)]);
    }

    void
    clear()
    {
        present_.reset();
        head_ = 0;
        size_ = 0;
    }

  private:
    int
    wrap(int i) const
    {
        return i >= entries_ ? i - entries_ : i;
    }

    int entries_;
    RegSet present_;
    std::vector<Reg> fifo_;
    int head_ = 0;
    int size_ = 0;
};

} // namespace rfh

#endif // RFH_SIM_RFC_RING_H
