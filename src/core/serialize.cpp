#include "core/serialize.h"

#include "sim/access_counters.h"
#include "sim/trace.h"

namespace rfh {

void
serializeAccessCounts(ByteWriter &w, const AccessCounts &c)
{
    for (int l = 0; l < 3; l++)
        for (int d = 0; d < 2; d++)
            w.u64(c.reads[l][d]);
    for (int l = 0; l < 3; l++)
        for (int d = 0; d < 2; d++)
            w.u64(c.writes[l][d]);
    w.u64(c.wbReads);
    w.u64(c.wbWrites);
    w.u64(c.instructions);
    w.u64(c.deschedules);
}

AccessCounts
deserializeAccessCounts(ByteReader &r)
{
    AccessCounts c;
    for (int l = 0; l < 3; l++)
        for (int d = 0; d < 2; d++)
            c.reads[l][d] = r.u64();
    for (int l = 0; l < 3; l++)
        for (int d = 0; d < 2; d++)
            c.writes[l][d] = r.u64();
    c.wbReads = r.u64();
    c.wbWrites = r.u64();
    c.instructions = r.u64();
    c.deschedules = r.u64();
    return c;
}

void
serializeDecodedTrace(ByteWriter &w, const DecodedTrace &t)
{
    w.vec(t.lin);
    w.vec(t.flags);
    w.vec(t.warpBegin);
    w.vec(t.warpEndLin);
    w.vec(t.execWords);
    w.vec(t.llWords);
    w.u64(t.executedInstrs);
    w.u64(t.takenBranches);
}

DecodedTrace
deserializeDecodedTrace(ByteReader &r)
{
    DecodedTrace t;
    t.lin = r.vec<std::int32_t>();
    t.flags = r.vec<std::uint8_t>();
    t.warpBegin = r.vec<std::uint32_t>();
    t.warpEndLin = r.vec<std::int32_t>();
    t.execWords = r.vec<std::uint64_t>();
    t.llWords = r.vec<std::uint64_t>();
    t.executedInstrs = r.u64();
    t.takenBranches = r.u64();
    return t;
}

} // namespace rfh
