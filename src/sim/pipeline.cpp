#include "sim/pipeline.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "sim/trace.h"

namespace rfh {

std::string_view
schedPolicyName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::FLAT_RR: return "flat";
      case SchedPolicy::TWO_LEVEL: return "two-level";
      case SchedPolicy::GTO: return "gto";
    }
    return "?";
}

bool
parseSchedPolicy(std::string_view token, SchedPolicy &out)
{
    if (token == "flat" || token == "rr") {
        out = SchedPolicy::FLAT_RR;
    } else if (token == "two-level" || token == "twolevel") {
        out = SchedPolicy::TWO_LEVEL;
    } else if (token == "gto") {
        out = SchedPolicy::GTO;
    } else {
        return false;
    }
    return true;
}

namespace {

constexpr std::uint64_t kNoEvent =
    std::numeric_limits<std::uint64_t>::max();

// Register sets are 64-bit masks in the loop (bit r = register r).
static_assert(kMaxRegs <= 64, "register masks must fit in 64 bits");

/** Issue latency of one opcode (old perf-model table). */
int
latencyOf(Opcode op, const PipelineConfig &cfg)
{
    switch (op) {
      case Opcode::LD_GLOBAL: return cfg.dramLatency;
      case Opcode::TEX: return cfg.texLatency;
      case Opcode::LD_SHARED: return cfg.sharedMemLatency;
      case Opcode::LD_PARAM: return cfg.sharedMemLatency;
      case Opcode::ST_GLOBAL:
      case Opcode::ST_SHARED: return 1;
      case Opcode::BRA:
      case Opcode::EXIT: return 1;
      case Opcode::BAR: return 1;
      default:
        return isSharedUnit(unitClass(op)) ? cfg.sfuLatency
                                           : cfg.aluLatency;
    }
}

/** What the issue scan needs of one static instruction. */
struct StaticOp
{
    std::uint64_t touched = 0;  ///< usedRegs | definedRegs.
    std::uint64_t dst = 0;      ///< definedRegs.
    std::uint8_t pipe = 0;      ///< Latency pipe (Sm::pipes index).
    std::uint8_t flags = 0;     ///< ReplayOpFlags.
};

/**
 * Per-warp scheduler state, with the warp's next instruction cached:
 * refreshed only when the cursor advances, so the issue scan never
 * walks the trace and decode tables.
 */
struct Warp
{
    /** Registers with an outstanding (unwritten) result. */
    std::uint64_t pending = 0;
    /** Subset of @c pending produced by long-latency ops. */
    std::uint64_t longPending = 0;
    StaticOp next;
    std::uint64_t activatedAt = 0;
    std::uint64_t lastIssue = 0;
    std::uint32_t cursor = 0;  ///< Next record of the warp's stream.
    std::uint32_t end = 0;     ///< One past the stream's last record.
    std::int32_t endLin = -1;  ///< The stream's end lin.

    bool
    doneIssuing() const
    {
        return cursor >= end;
    }
};

/** One issued instruction in the operand collector. */
struct Entry
{
    int warp = 0;
    std::uint8_t pipe = 0;
    /** Destination registers to release at writeback. */
    std::uint64_t dst = 0;
    /** MRF bank of each collector-fetched operand. */
    std::array<int, kMaxSrcs + 1> bank{};
    std::uint8_t nbank = 0;
    /** Bit i set once operand i has been read. */
    std::uint8_t served = 0;
};

/** Round-robin scan state of 64 active-set positions, a bit each. */
struct PosMasks
{
    std::uint64_t present = 0;        ///< Position holds an active warp.
    std::uint64_t blocked = 0;        ///< Next op waits on a register.
    std::uint64_t blockedOnLong = 0;  ///< ...on a long-latency one.
    std::uint64_t shared = 0;         ///< Next op needs the shared port.
    std::uint64_t waiting = 0;        ///< Not yet activated.
};

/** One instruction occupying a latency pipe. */
struct ExecOp
{
    int warp = 0;
    std::uint64_t dst = 0;
    std::uint64_t done = 0;
};

/**
 * The in-flight ops of one latency. Ops enter in dispatch order and
 * share the latency, so they complete in that order: a FIFO.
 */
struct Pipe
{
    std::uint64_t lat = 1;
    std::vector<ExecOp> ops;
    std::size_t head = 0;  ///< Oldest op still in flight.

    bool
    empty() const
    {
        return head == ops.size();
    }
};

/**
 * The whole pipeline: state plus the four stages as inline members,
 * stepped by run() in the fixed order execute+writeback, collect,
 * issue.
 */
struct Sm
{
    Sm(const DecodedTrace &trace, const ReplayDecode &dec,
       PipelineAccounting &acctFactory, const PipelineConfig &cfg,
       PipelineResult &result)
        : trace(trace), cfg(cfg), stats(result.stats),
          error(result.error),
          slots(static_cast<std::size_t>(
              std::max(1, cfg.collectorSlots))),
          bankStamp(static_cast<std::size_t>(
                        std::max(1, cfg.banks.numBanks)),
                    0)
    {
        ops.resize(dec.op.size());
        for (std::size_t i = 0; i < ops.size(); i++) {
            ops[i].touched = dec.touched[i].to_ullong();
            ops[i].dst = dec.defined[i].to_ullong();
            ops[i].pipe = pipeFor(latencyOf(dec.op[i].opcode, cfg));
            ops[i].flags = dec.op[i].flags;
        }

        const int n = trace.numWarps();
        warps.resize(static_cast<std::size_t>(n));
        acct.reserve(static_cast<std::size_t>(n));
        const int nactive = cfg.policy == SchedPolicy::TWO_LEVEL
            ? std::max(1, cfg.activeWarps)
            : n;
        for (int w = 0; w < n; w++) {
            Warp &s = warps[static_cast<std::size_t>(w)];
            // Warps on one interned stream share its records; each
            // keeps its own cursor, since timing interleaves them.
            const std::uint32_t stream =
                trace.warpStream[static_cast<std::size_t>(w)];
            s.cursor = trace.streamBegin[stream];
            s.end = trace.streamBegin[stream + 1];
            s.endLin = trace.streamEndLin[stream];
            refresh(s);
            acct.push_back(acctFactory.makeWarp());
            if (s.doneIssuing())
                continue;
            if (static_cast<int>(active.size()) < nactive)
                active.push_back(w);
            else
                pendingQ.push_back(w);
        }
        left = static_cast<int>(active.size() + pendingQ.size());
        entries.reserve(slots);
        pos.assign(static_cast<std::size_t>(n), -1);
        masks.resize((static_cast<std::size_t>(n) + 63) / 64);
        rebuildMasks(0);
    }

    /**
     * Index of the pipe of latency @p lat, added on first use. A
     * latency below one cycle completes after one cycle, like one.
     */
    std::uint8_t
    pipeFor(int lat)
    {
        const auto l = static_cast<std::uint64_t>(std::max(1, lat));
        std::size_t i = 0;
        while (i < pipes.size() && pipes[i].lat != l)
            i++;
        if (i == pipes.size())
            pipes.push_back(Pipe{l, {}, 0});
        return static_cast<std::uint8_t>(i);
    }

    /** Reload @p w's cached next instruction after its cursor moved. */
    void
    refresh(Warp &w)
    {
        w.next = w.doneIssuing()
            ? StaticOp{}
            : ops[static_cast<std::size_t>(trace.lin[w.cursor])];
    }

    bool
    finished() const
    {
        return left == 0 && entries.empty() && !hasSlot && inflight == 0;
    }

    /**
     * Execute + writeback: retire every op whose latency has elapsed,
     * releasing its scoreboard bits. The pipes are visited only once
     * the earliest completion is due. @return progress (ops dispatched
     * last cycle entering the pipes count as progress).
     */
    bool
    execute(std::uint64_t now)
    {
        bool progress = dispatched;
        dispatched = false;
        if (now < earliestDone)
            return progress;
        std::uint64_t earliest = kNoEvent;
        for (Pipe &p : pipes) {
            for (; !p.empty() && p.ops[p.head].done <= now; p.head++) {
                const ExecOp &op = p.ops[p.head];
                Warp &w = warps[static_cast<std::size_t>(op.warp)];
                w.pending &= ~op.dst;
                w.longPending &= ~op.dst;
                updateMasks(op.warp);
                inflight--;
                progress = true;
            }
            if (p.empty()) {
                p.ops.clear();
                p.head = 0;
                continue;
            }
            if (p.head >= 64 && 2 * p.head >= p.ops.size()) {
                // Drop the retired prefix so a never-empty pipe stays
                // bounded by its in-flight ops.
                p.ops.erase(p.ops.begin(),
                            p.ops.begin() +
                                static_cast<std::ptrdiff_t>(p.head));
                p.head = 0;
            }
            earliest = std::min(earliest, p.ops[p.head].done);
        }
        earliestDone = earliest;
        return progress;
    }

    /**
     * Operand collector: accept the issued instruction when an entry
     * is free, then read MRF operands oldest entry first, one read
     * per bank per cycle — same-bank operands serialise; bypass
     * operands never enter the banks. An entry whose operands are all
     * read dispatches to execute the same cycle. @return progress.
     */
    bool
    collect(std::uint64_t now)
    {
        bool progress = false;
        if (hasSlot && entries.size() < slots) {
            entries.push_back(slot);
            hasSlot = false;
            progress = true;
        }
        // bankStamp[b] == now + 1: bank b already read this cycle.
        const std::uint64_t stamp = now + 1;
        for (Entry &e : entries) {
            for (int i = 0; i < e.nbank; i++) {
                if (e.served & (1u << i))
                    continue;
                std::uint64_t &b =
                    bankStamp[static_cast<std::size_t>(e.bank[i])];
                if (b != stamp) {
                    b = stamp;
                    e.served |= static_cast<std::uint8_t>(1u << i);
                    progress = true;
                } else {
                    stats.bankConflicts++;
                }
            }
        }
        std::size_t kept = 0;
        for (const Entry &e : entries) {
            if (e.served == (1u << e.nbank) - 1u) {
                Pipe &p = pipes[e.pipe];
                const std::uint64_t done = now + p.lat;
                p.ops.push_back(ExecOp{e.warp, e.dst, done});
                inflight++;
                earliestDone = std::min(earliestDone, done);
                dispatched = true;
                progress = true;
            } else {
                entries[kept++] = e;
            }
        }
        entries.resize(kept);
        return progress;
    }

    /**
     * Issue: single-issue, one warp instruction per cycle, picked by
     * the policy, gated by the scoreboard, the shared-unit issue
     * port, and a free collector slot. Two-level: a warp stalled on a
     * long-latency value swaps out for a pending warp (Section 5.2).
     * The round-robin policies scan with position masks; GTO, whose
     * order changes at every issue, scans warp by warp.
     */
    void
    issue(std::uint64_t now)
    {
        issued = swapped = false;
        sawScoreboard = sawCollector = sawExecBusy = sawActivation =
            false;
        blockedLong = -1;

        if (cfg.policy == SchedPolicy::GTO) {
            // Greedy: the last issuer first while it has work; then
            // oldest — active is kept ordered by (lastIssue, id).
            int wid = lastWarp;
            bool stop = wid >= 0 &&
                !warps[static_cast<std::size_t>(wid)].doneIssuing() &&
                tryIssue(wid, now);
            for (std::size_t i = 0; !stop && i < active.size(); i++) {
                if (active[i] != lastWarp) {
                    wid = active[i];
                    stop = tryIssue(wid, now);
                }
            }
            if (issued) {
                if (warps[static_cast<std::size_t>(wid)].doneIssuing())
                    retire(wid, now);
                else
                    moveToNewest(wid);
            }
        } else {
            issueRoundRobin(now);
        }

        if (!issued && blockedLong >= 0 && !pendingQ.empty())
            swapOut(blockedLong, now);
    }

    /**
     * The round-robin scan as mask arithmetic over active-set
     * positions, a 64-position word at a time in rotation order from
     * @c rr: the first issuable position, and the stall observations
     * of the positions a warp-by-warp scan would visit before it.
     */
    void
    issueRoundRobin(std::uint64_t now)
    {
        const std::size_t n = active.size();
        if (n == 0)
            return;
        if (now >= waitUntil)
            refreshWaiting(now);
        const bool portBusy = now < sharedFree;
        const std::size_t words = (n + 63) / 64;
        int q = -1;
        // Visit word @p word's active positions in @p seg: the first
        // ready one becomes q; the stalls of those before it are noted.
        auto visit = [&](std::size_t word, std::uint64_t seg) {
            const PosMasks &m = masks[word];
            seg &= m.present;
            const std::uint64_t wait = m.waiting & seg;
            const std::uint64_t busy =
                portBusy ? m.shared & seg & ~wait : 0;
            const std::uint64_t stall = m.blocked & seg & ~wait & ~busy;
            const std::uint64_t ready = seg & ~wait & ~busy & ~m.blocked;
            std::uint64_t seen = seg;
            if (ready != 0) {
                const int b = std::countr_zero(ready);
                q = static_cast<int>(word * 64) + b;
                seen &= (1ull << b) - 1;
            }
            sawActivation |= (wait & seen) != 0;
            sawExecBusy |= (busy & seen) != 0;
            sawScoreboard |= (stall & seen) != 0;
            const std::uint64_t onLong = stall & m.blockedOnLong & seen;
            if (blockedLong < 0 && onLong != 0)
                blockedLong =
                    active[word * 64 +
                           static_cast<std::size_t>(
                               std::countr_zero(onLong))];
        };
        // Rotation order: rr's word from rr up, the words after it,
        // round to the words before it, then rr's word below rr.
        const std::size_t w0 = rr / 64;
        const std::uint64_t belowRr = (1ull << (rr % 64)) - 1;
        visit(w0, ~belowRr);
        for (std::size_t k = 1; q < 0 && k < words; k++)
            visit((w0 + k) % words, ~0ull);
        if (q < 0 && belowRr != 0)
            visit(w0, belowRr);
        if (q < 0)
            return;
        if (hasSlot) {
            sawCollector = true;  // a full collector blocks every warp
            return;
        }
        const int wid = active[static_cast<std::size_t>(q)];
        Warp &w = warps[static_cast<std::size_t>(wid)];
        issueOne(wid, w, now);
        if (!issued)
            return;
        rr = static_cast<std::size_t>(q) + 1 == n
            ? 0
            : static_cast<std::size_t>(q) + 1;
        if (w.doneIssuing())
            retire(wid, now);
        else
            updateMasks(wid);
    }

    /** Recompute the position bits of @p wid (no-op outside them). */
    void
    updateMasks(int wid)
    {
        const int p = pos[static_cast<std::size_t>(wid)];
        if (p < 0)
            return;
        const Warp &w = warps[static_cast<std::size_t>(wid)];
        PosMasks &m = masks[static_cast<std::size_t>(p) / 64];
        const std::uint64_t bit = 1ull << (p % 64);
        auto put = [bit](std::uint64_t &mask, bool on) {
            mask = on ? mask | bit : mask & ~bit;
        };
        put(m.blocked, (w.next.touched & w.pending) != 0);
        put(m.blockedOnLong, (w.next.touched & w.longPending) != 0);
        put(m.shared, (w.next.flags & kOpShared) != 0);
    }

    /**
     * Rebuild every position mask after the active set changed at
     * @p now (round-robin policies; GTO scans warp by warp).
     */
    void
    rebuildMasks(std::uint64_t now)
    {
        if (cfg.policy == SchedPolicy::GTO)
            return;
        std::fill(masks.begin(), masks.end(), PosMasks{});
        waitUntil = kNoEvent;
        for (std::size_t i = 0; i < active.size(); i++) {
            const int wid = active[i];
            pos[static_cast<std::size_t>(wid)] = static_cast<int>(i);
            masks[i / 64].present |= 1ull << (i % 64);
            updateMasks(wid);
            const std::uint64_t at =
                warps[static_cast<std::size_t>(wid)].activatedAt;
            if (at > now) {
                masks[i / 64].waiting |= 1ull << (i % 64);
                waitUntil = std::min(waitUntil, at);
            }
        }
    }

    /** Clear the waiting bits of warps activated by @p now. */
    void
    refreshWaiting(std::uint64_t now)
    {
        waitUntil = kNoEvent;
        for (std::size_t w = 0; w < masks.size(); w++) {
            std::uint64_t &waiting = masks[w].waiting;
            for (std::uint64_t m = waiting; m != 0; m &= m - 1) {
                const int b = std::countr_zero(m);
                const int wid = active[w * 64 + static_cast<std::size_t>(b)];
                const std::uint64_t at =
                    warps[static_cast<std::size_t>(wid)].activatedAt;
                if (at <= now)
                    waiting &= ~(1ull << b);
                else
                    waitUntil = std::min(waitUntil, at);
            }
        }
    }

    /**
     * One step of the warp-by-warp scan: issue @p wid if it is ready,
     * else note why not. @return true when the scan stops — an issue,
     * or a full collector register, which blocks every warp.
     */
    bool
    tryIssue(int wid, std::uint64_t now)
    {
        Warp &w = warps[static_cast<std::size_t>(wid)];
        if (w.doneIssuing())
            return false;
        if (now < w.activatedAt) {
            sawActivation = true;
            return false;
        }
        if ((w.next.flags & kOpShared) && now < sharedFree) {
            sawExecBusy = true;
            return false;
        }
        if (w.next.touched & w.pending) {
            sawScoreboard = true;
            if (blockedLong < 0 && (w.next.touched & w.longPending))
                blockedLong = wid;
            return false;
        }
        if (hasSlot) {
            sawCollector = true;
            return true;
        }
        issueOne(wid, w, now);
        return true;
    }

    void
    issueOne(int wid, Warp &w, std::uint64_t now)
    {
        const std::uint32_t t = w.cursor;
        const int lin = trace.lin[t];
        const std::uint8_t fl = trace.flags[t];
        OperandPlan plan;
        acct[static_cast<std::size_t>(wid)]->onIssue(
            lin, (fl & kReplayExecuted) != 0,
            (fl & kReplayBranchTaken) != 0,
            t + 1 < w.end ? trace.lin[t + 1] : w.endLin, plan);
        slot.warp = wid;
        slot.pipe = w.next.pipe;
        slot.dst = w.next.dst;
        slot.nbank = plan.numMrf;
        slot.served = 0;
        for (int i = 0; i < plan.numMrf; i++)
            slot.bank[static_cast<std::size_t>(i)] =
                bankOf(plan.mrfReg[static_cast<std::size_t>(i)], wid,
                       cfg.banks);
        hasSlot = true;
        w.pending |= w.next.dst;
        if (w.next.flags & kOpLongLat)
            w.longPending |= w.next.dst;
        if (w.next.flags & kOpShared)
            sharedFree = now + static_cast<std::uint64_t>(
                                   cfg.sharedIssueInterval);
        w.cursor++;
        refresh(w);
        w.lastIssue = now;
        lastWarp = wid;
        stats.issued++;
        issued = true;
    }

    /**
     * GTO: keep @c active ordered by (lastIssue, id) after @p wid
     * issued — its lastIssue is now the largest, so it moves towards
     * the back, past every warp that sorts before it.
     */
    void
    moveToNewest(int wid)
    {
        auto it = std::find(active.begin(), active.end(), wid);
        const Warp &w = warps[static_cast<std::size_t>(wid)];
        auto before = [&](int other) {
            const Warp &o = warps[static_cast<std::size_t>(other)];
            return o.lastIssue != w.lastIssue ? o.lastIssue < w.lastIssue
                                              : other < wid;
        };
        while (it + 1 != active.end() && before(*(it + 1))) {
            std::iter_swap(it, it + 1);
            ++it;
        }
    }

    /** Remove a finished warp from the active set; promote a pending one. */
    void
    retire(int wid, std::uint64_t now)
    {
        auto it = std::find(active.begin(), active.end(), wid);
        if (it != active.end())
            active.erase(it);
        pos[static_cast<std::size_t>(wid)] = -1;
        left--;
        if (!pendingQ.empty()) {
            const int next = pendingQ.front();
            pendingQ.erase(pendingQ.begin());
            warps[static_cast<std::size_t>(next)].activatedAt =
                now + static_cast<std::uint64_t>(cfg.swapPenalty);
            active.push_back(next);
        }
        rr = 0;
        rebuildMasks(now);
    }

    /** Swap a long-latency-blocked warp for a pending one. */
    void
    swapOut(int out, std::uint64_t now)
    {
        // Prefer a pending warp whose next instruction is ready.
        std::size_t pick = 0;
        for (std::size_t i = 0; i < pendingQ.size(); i++) {
            const Warp &cand =
                warps[static_cast<std::size_t>(pendingQ[i])];
            if (!cand.doneIssuing() &&
                (cand.next.touched & cand.pending) == 0) {
                pick = i;
                break;
            }
        }
        const int next = pendingQ[pick];
        pendingQ.erase(pendingQ.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        auto it = std::find(active.begin(), active.end(), out);
        if (it != active.end())
            active.erase(it);
        pos[static_cast<std::size_t>(out)] = -1;
        pendingQ.push_back(out);
        warps[static_cast<std::size_t>(next)].activatedAt =
            now + static_cast<std::uint64_t>(cfg.swapPenalty);
        active.push_back(next);
        stats.swaps++;
        swapped = true;
        rr = 0;
        rebuildMasks(now);
    }

    /** Earliest pending warp activation after @p now, or kNoEvent. */
    std::uint64_t
    nextActivation(std::uint64_t now) const
    {
        std::uint64_t t = kNoEvent;
        for (int wid : active) {
            const Warp &w = warps[static_cast<std::size_t>(wid)];
            if (!w.doneIssuing() && w.activatedAt > now)
                t = std::min(t, w.activatedAt);
        }
        return t;
    }

    /** The unused issue slot's counter, or null when an op issued. */
    std::uint64_t *
    stallCounter()
    {
        if (issued)
            return nullptr;
        PipelineStalls &st = stats.stalls;
        if (swapped)
            return &st.swap;
        if (sawScoreboard)
            return &st.scoreboard;
        if (sawCollector)
            return &st.collector;
        if (sawExecBusy)
            return &st.execBusy;
        if (sawActivation)
            return &st.swap;
        return &st.drain;
    }

    void
    run()
    {
        std::uint64_t now = 0;
        while (!finished() && now < cfg.maxCycles) {
            bool progress = execute(now);
            progress |= collect(now);
            issue(now);
            progress |= issued || swapped;

            // Attribute an unused issue slot to its dominant cause.
            std::uint64_t *stall = stallCounter();
            if (stall != nullptr)
                (*stall)++;

            if (progress) {
                now++;
                continue;
            }

            // Idle span: nothing can change until the next scheduled
            // event. Jump there, attributing the skipped cycles to
            // the same cause — cycle counts match the naive
            // one-at-a-time loop exactly.
            std::uint64_t next =
                std::min(earliestDone, nextActivation(now));
            if (sawExecBusy && sharedFree > now)
                next = std::min(next, sharedFree);
            if (next == kNoEvent) {
                error = "pipeline deadlock: no issue, no progress, and "
                        "no scheduled event";
                break;
            }
            next = std::max(next, now + 1);
            if (next > cfg.maxCycles)
                next = cfg.maxCycles;
            if (stall != nullptr)
                *stall += next - now - 1;
            now = next;
        }
        stats.cycles = now;
        if (error.empty() && !finished())
            error = "cycle cap reached at " + std::to_string(now) +
                " cycles with " + std::to_string(stats.issued) + " of " +
                std::to_string(trace.instructions()) +
                " instructions issued";
    }

    const DecodedTrace &trace;
    const PipelineConfig &cfg;
    PipelineStats &stats;
    std::string &error;

    std::vector<StaticOp> ops;
    std::vector<Warp> warps;
    std::vector<std::unique_ptr<WarpAccountant>> acct;

    // Issue: the scheduler's sets and this cycle's observations.
    std::vector<int> active;
    std::vector<int> pendingQ;
    std::size_t rr = 0;
    std::uint64_t sharedFree = 0;
    int left = 0;
    int lastWarp = -1;
    int blockedLong = -1;
    bool issued = false;
    bool swapped = false;
    bool sawScoreboard = false;
    bool sawCollector = false;
    bool sawExecBusy = false;
    bool sawActivation = false;

    // Round-robin scan masks, word p / 64 holding active[p]'s bits.
    // Changed only at issue, writeback, and active-set changes.
    std::vector<int> pos;  ///< Active-set position per warp, or -1.
    std::vector<PosMasks> masks;
    /** Earliest activation among the @c waiting warps. */
    std::uint64_t waitUntil = kNoEvent;

    // Issue -> collector register: one optional slot.
    Entry slot;
    bool hasSlot = false;

    // Collector: at most @c slots entries, oldest first.
    std::size_t slots;
    std::vector<Entry> entries;
    std::vector<std::uint64_t> bankStamp;

    // Execute: one pipe per latency, the in-flight op count, and the
    // earliest completion among them.
    std::vector<Pipe> pipes;
    std::size_t inflight = 0;
    std::uint64_t earliestDone = kNoEvent;
    bool dispatched = false;
};

} // namespace

PipelineResult
runPipeline(const DecodedTrace &trace, const ReplayDecode &dec,
            PipelineAccounting &acct, const PipelineConfig &cfg)
{
    PipelineResult result;
    Sm sm(trace, dec, acct, cfg, result);
    sm.run();
    return result;
}

} // namespace rfh
