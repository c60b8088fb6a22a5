/**
 * @file
 * Pluggable register-file scheme registry.
 *
 * A *scheme* is one register-file organisation competing on the
 * workload suite: the paper's three (flat baseline, hardware-managed
 * RFC, compiler-managed ORF/LRF hierarchy, each in two- and
 * three-level form) plus any number of competing designs from the
 * literature (compiler-assisted RF caching, shared-memory register
 * spilling, power-gated banks, ...).
 *
 * Every engine layer that used to switch on a hard-coded enum —
 * runScheme(), the sweep engine, the replay batcher, the service
 * protocol, the differential fuzz oracle, the leaderboard — now asks
 * the SchemeRegistry instead. Registering a backend is therefore all
 * it takes to make a new design runnable from the CLI and the service,
 * sweepable, energy-accounted, differentially fuzzed against the
 * baseline, and ranked on the cross-scheme leaderboard. The authoring
 * contract is documented in docs/schemes.md.
 */

#ifndef RFH_CORE_SCHEME_H
#define RFH_CORE_SCHEME_H

#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/allocation.h"
#include "sim/access_counters.h"

namespace rfh {

struct ExperimentConfig;
struct Workload;
struct Kernel;
struct AnalysisBundle;
struct DecodedTrace;
struct ReplayDecode;
class EnergyModel;

/**
 * Registry-backed scheme handle: a small value type identifying one
 * registered register-file organisation. Copyable, comparable, and
 * storable everywhere the old `enum class Scheme` was; the behaviour
 * behind the handle lives in the registered SchemeBackend.
 *
 * The five paper organisations have fixed ids and keep their historic
 * spellings (`Scheme::BASELINE`, ...); backends registered later get
 * the next free id, in registration order.
 */
class Scheme
{
  public:
    constexpr Scheme() = default;

    /** Wrap a raw registry id (normally obtained from the registry). */
    constexpr explicit Scheme(std::uint8_t id) : id_(id) {}

    /** Registry index of this scheme. */
    constexpr std::uint8_t
    id() const
    {
        return id_;
    }

    friend constexpr bool
    operator==(Scheme a, Scheme b)
    {
        return a.id_ == b.id_;
    }

    friend constexpr bool
    operator!=(Scheme a, Scheme b)
    {
        return a.id_ != b.id_;
    }

    friend constexpr bool
    operator<(Scheme a, Scheme b)
    {
        return a.id_ < b.id_;
    }

    // The paper's organisations, registered first with fixed ids.
    static const Scheme BASELINE;        ///< Flat single-level MRF.
    static const Scheme HW_TWO_LEVEL;    ///< RFC + MRF, hardware managed.
    static const Scheme HW_THREE_LEVEL;  ///< LRF + RFC + MRF, hardware managed.
    static const Scheme SW_TWO_LEVEL;    ///< ORF + MRF, compiler managed.
    static const Scheme SW_THREE_LEVEL;  ///< LRF + ORF + MRF, compiler managed.

  private:
    std::uint8_t id_ = 0;
};

inline const Scheme Scheme::BASELINE{0};
inline const Scheme Scheme::HW_TWO_LEVEL{1};
inline const Scheme Scheme::HW_THREE_LEVEL{2};
inline const Scheme Scheme::SW_TWO_LEVEL{3};
inline const Scheme Scheme::SW_THREE_LEVEL{4};

/**
 * Capability flags of one backend: which shared engine facilities the
 * scheme consumes and which oracle checks apply to it. The engine
 * layers branch on these flags instead of on scheme identity, so a
 * new backend describes itself once and every layer adapts.
 */
struct SchemeCaps
{
    /** Needs the memoized CFG/liveness/reaching-defs bundle. */
    bool usesAnalyses = true;
    /**
     * Has a replay-engine path consuming the pre-decoded dynamic
     * stream (DecodedTrace). Schemes without one are executed the
     * same way under both engines, and the oracle's direct-vs-replay
     * pair degenerates to a determinism check.
     */
    bool usesTrace = true;
    /** Replay wants the shared per-kernel ReplayDecode table. */
    bool wantsDecode = false;
    /**
     * Runs the compile phase: allocate() annotates a private kernel
     * copy, AllocStats are reported, and runScheme checks the paper's
     * static allocation invariants (checkAllocationInvariants) against
     * the annotated kernel before executing it, on every engine.
     */
    bool usesAllocator = false;
    /**
     * Hardware-managed caching scheme: skipped by the oracle when
     * OracleOptions::checkHwSchemes is off (`rfhc fuzz --no-hw`).
     */
    bool hwManaged = false;
    /**
     * The entries-per-thread axis changes results. When false the
     * leaderboard evaluates the scheme at a single point instead of
     * sweeping entries 1..kMaxOrfEntries.
     */
    bool sweepsEntries = true;
    /**
     * The backend implements makePipelineAccounting(), so the
     * cycle-level SM pipeline (sim/pipeline.h) can run it: `rfhc run
     * --perf` produces IPC and a stall breakdown, and the oracle
     * cross-checks pipeline counts against the functional path.
     */
    bool pipelined = false;
};

/** ctx.engine values after AUTO resolution (mirrors ExecEngine). */
enum class ResolvedEngine
{
    DIRECT,  ///< Value-verifying functional interpretation.
    REPLAY,  ///< Pre-decoded stream replay (counting only).
};

/**
 * Everything a backend may consume during its execute phase. Pointers
 * are owned by the caller (runScheme) and valid for the duration of
 * the simulate() call; optional inputs are null exactly when the
 * backend's capability flags say it does not use them.
 */
struct SchemeRunContext
{
    /** Workload being run (kernel, run config, registry name). */
    const Workload *workload = nullptr;
    /** Full experiment configuration. */
    const ExperimentConfig *cfg = nullptr;
    /** Resolved execution engine for this run. */
    ResolvedEngine engine = ResolvedEngine::DIRECT;
    /**
     * Kernel to execute: the allocator-annotated private copy when
     * caps.usesAllocator, else the workload's pristine kernel.
     */
    const Kernel *kernel = nullptr;
    /** Analyses bundle (null unless caps.usesAnalyses or usesAllocator). */
    const AnalysisBundle *analyses = nullptr;
    /** Pre-decoded dynamic stream (null unless replaying with caps.usesTrace). */
    const DecodedTrace *trace = nullptr;
    /** Shared per-kernel decode (null unless caps.wantsDecode applies). */
    const ReplayDecode *decode = nullptr;
    /** Memoized flat-MRF counts of this workload; never null. */
    const AccessCounts *baseline = nullptr;
};

/** Outcome of one backend execute phase. */
struct SchemeSimResult
{
    AccessCounts counts;
    /** Empty on success; else the first verification failure. */
    std::string error;
};

class PipelineAccounting;

/**
 * Inputs of SchemeBackend::makePipelineAccounting. Pointer lifetimes
 * match SchemeRunContext: owned by the caller and valid while the
 * returned accounting (and the pipeline run driving it) lives.
 */
struct PipelineBuildContext
{
    /**
     * Kernel to account: the allocator-annotated private copy when
     * caps.usesAllocator, else the pristine kernel.
     */
    const Kernel *kernel = nullptr;
    /** Full experiment configuration. */
    const ExperimentConfig *cfg = nullptr;
    /** Analyses bundle (null unless caps.usesAnalyses or usesAllocator). */
    const AnalysisBundle *analyses = nullptr;
    /** Shared per-kernel decode of the pristine kernel; may be null. */
    const ReplayDecode *decode = nullptr;
    /** Accumulator every warp accountant adds into; never null. */
    AccessCounts *counts = nullptr;
};

/**
 * One register-file organisation: the narrow interface every engine
 * layer dispatches through. The phases mirror runScheme():
 *
 *   allocate (compile)  ->  simulate (execute)  ->  account energy
 *
 * Implementations must be deterministic (identical inputs produce
 * identical counts and stats, bit-for-bit — results are memoized,
 * diffed by the fuzz oracle, and byte-compared across the service
 * boundary) and thread-safe: one backend instance is shared by every
 * concurrent run.
 */
class SchemeBackend
{
  public:
    virtual ~SchemeBackend() = default;

    /**
     * The allocator options implied by @p cfg for this scheme. The
     * default builds them from the configuration knobs with
     * useLRF = false; allocator-driven schemes override the LRF
     * selection.
     */
    virtual AllocOptions allocOptions(const ExperimentConfig &cfg) const;

    /**
     * Compile phase: annotate @p k in place and return allocation
     * statistics. Only called when caps().usesAllocator; the default
     * is a no-op.
     */
    virtual AllocStats allocate(Kernel &k, const ExperimentConfig &cfg,
                                const AnalysisBundle *analyses) const;

    /**
     * Execute phase: produce the access counts of one run. The default
     * builds makePipelineAccounting() over ctx.kernel and drives it
     * with the trace driver on REPLAY (ctx.trace) or the
     * functional-machine driver on DIRECT (sim/pipeline_account.h), so
     * one per-warp state machine serves every engine. Backends with
     * their own executors (a memoized count set, a value-verifying
     * interpreter) override it.
     */
    virtual SchemeSimResult simulate(const SchemeRunContext &ctx) const;

    /**
     * Price the LRF as split per-operand-slot banks when building the
     * energy model for @p cfg. Default false.
     */
    virtual bool splitLrfEnergy(const ExperimentConfig &cfg) const;

    /**
     * Energy accounting: total energy of @p c under @p em (pJ). The
     * default charges the standard per-access + wire energy; backends
     * with traffic outside the three register-file levels (e.g.
     * shared-memory spill space) or structural savings (e.g.
     * power-gated banks) override this.
     */
    virtual double accountEnergyPJ(const SchemeRunContext &ctx,
                                   const AccessCounts &c,
                                   const EnergyModel &em) const;

    /**
     * Scheme-specific conservation laws, checked by the fuzz oracle:
     * given this scheme's counts and the flat-MRF baseline counts of
     * the same run, return one message per violated law (empty when
     * clean). The default returns no checks; every serious backend
     * should state at least a read-conservation law so the oracle can
     * catch dropped or double-counted accesses.
     */
    virtual std::vector<std::string>
    checkConservation(const AccessCounts &c,
                      const AccessCounts &baseline) const;

    /**
     * Build the scheme's per-warp accounting: the state machine the
     * default simulate() drives on both engines and the cycle-level
     * pipeline (sim/pipeline.h) drives at issue. A backend that
     * overrides simulate() must count exactly what this accounting
     * counts — the verify oracle enforces identical counts per scheme
     * and warp count. The default returns null.
     */
    virtual std::unique_ptr<PipelineAccounting>
    makePipelineAccounting(const PipelineBuildContext &ctx) const;
};

/** Immutable registration record of one scheme. */
struct SchemeInfo
{
    /** Registry handle. */
    Scheme scheme;
    /** Wire token, e.g. "sw3" — stable, used by the service protocol. */
    std::string token;
    /** Display name used in figures and tables, e.g. "SW LRF". */
    std::string display;
    /** Oracle check-name tag (historically "base" for the baseline). */
    std::string tag;
    /** One-line description for docs and --help output. */
    std::string summary;
    /** One of the paper's five organisations. */
    bool paper = false;
    SchemeCaps caps;
    std::unique_ptr<SchemeBackend> backend;
};

/** Registration descriptor (everything but the backend). */
struct SchemeSpec
{
    std::string token;
    std::string display;
    /** Oracle tag; defaults to the token when empty. */
    std::string tag;
    std::string summary;
    bool paper = false;
    SchemeCaps caps;
};

/**
 * Process-wide scheme registry. The five paper schemes and the
 * in-tree competing backends are registered on first access
 * (registerBuiltinSchemes); further backends may register at static
 * initialisation through RFH_REGISTER_SCHEME or at runtime through
 * add(). Lookups are thread-safe; registration must not race with
 * concurrent lookups of the scheme being added.
 */
class SchemeRegistry
{
  public:
    /** The singleton (builtins registered on first call). */
    static SchemeRegistry &instance();

    /**
     * Register a backend. Ids are assigned in registration order, so
     * enumeration — and every JSON document derived from it — is
     * deterministic for a given binary.
     *
     * @throws std::invalid_argument when the token is empty or
     *         already registered (duplicate registration is always a
     *         programming error, and tests assert it is caught).
     */
    Scheme add(SchemeSpec spec, std::unique_ptr<SchemeBackend> backend);

    /** @return the record of @p s, or null for an unregistered id. */
    const SchemeInfo *find(Scheme s) const;

    /** @return the record with wire token @p token, or null. */
    const SchemeInfo *findToken(std::string_view token) const;

    /**
     * Every registration record, in registration order. Pointers stay
     * valid for the life of the process (records are append-only and
     * never move).
     */
    std::vector<const SchemeInfo *> schemes() const;

    /** Number of registered schemes. */
    std::size_t size() const;

    /**
     * Comma-joined wire tokens in registration order — the "valid
     * schemes" list quoted by service errors and usage text.
     */
    std::string tokenList() const;

  private:
    SchemeRegistry();

    mutable std::shared_mutex mu_;
    /** Deque: stable addresses across add() (callers hold SchemeInfo*). */
    std::deque<SchemeInfo> infos_;
};

/**
 * Register the in-tree backends: the five paper schemes (fixed ids
 * 0..4, matching the Scheme constants) followed by the competing
 * designs (ccrfc, regdem, greener). Defined in
 * src/sim/schemes_builtin.cpp; called once by
 * SchemeRegistry::instance(). In-tree backends are added here rather
 * than via RFH_REGISTER_SCHEME because static-library object files
 * without referenced symbols may be dropped by the linker, taking
 * their self-registration with them.
 */
void registerBuiltinSchemes(SchemeRegistry &registry);

/** Static-initialisation registrar behind RFH_REGISTER_SCHEME. */
struct SchemeRegistrar
{
    SchemeRegistrar(SchemeSpec spec,
                    std::unique_ptr<SchemeBackend> (*factory)())
    {
        SchemeRegistry::instance().add(std::move(spec), factory());
    }
};

/**
 * Register @p factory's backend under @p spec at static
 * initialisation. For translation units that are certain to be
 * linked (executables, OBJECT libraries); in-tree library backends
 * use registerBuiltinSchemes() instead (see there).
 */
#define RFH_REGISTER_SCHEME(ident, spec, factory) \
    static ::rfh::SchemeRegistrar ident { spec, factory }

} // namespace rfh

#endif // RFH_CORE_SCHEME_H
