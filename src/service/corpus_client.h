/**
 * @file
 * Served corpus runs: stream the corpus request population through
 * `rfhc serve` and fold the responses into the same streaming
 * aggregate the local runner produces.
 *
 * Kernels are generated locally (the scenario profiles are
 * deterministic), shipped as inline RPTX text, and executed remotely;
 * samples are extracted from the result documents and folded through
 * the shared CorpusAccumulator in canonical (kernel, cell) order.
 * Because every folded value is either an exact integer count or the
 * wire-rounded energy ratio (see core/stats.h), the aggregate JSON is
 * byte-identical to a local runCorpus() of the same configuration —
 * for any connection count.
 */

#ifndef RFH_SERVICE_CORPUS_CLIENT_H
#define RFH_SERVICE_CORPUS_CLIENT_H

#include <string>

#include "core/corpus.h"

namespace rfh {

/** Transport knobs of a served corpus run. */
struct CorpusClientOptions
{
    /** Unix socket of the server. */
    std::string socketPath = "/tmp/rfhc.sock";
    /** Concurrent client connections. */
    int connections = 4;
    /** Retries per request on `overloaded` shedding. */
    int maxRetries = 8;
};

/**
 * Run corpus configuration @p cfg against the server at
 * @p opts.socketPath. Transport failures and non-overload service
 * errors surface as folded cell errors (mirroring local run errors);
 * connection loss fails the whole run. @return false with @p err on
 * configuration or transport failure.
 */
bool runCorpusRemote(const CorpusConfig &cfg,
                     const CorpusClientOptions &opts, CorpusResult &out,
                     std::string *err);

} // namespace rfh

#endif // RFH_SERVICE_CORPUS_CLIENT_H
