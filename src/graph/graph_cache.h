/**
 * @file
 * GraphBuildCache: memoizes workload graph builds across sweep cells.
 *
 * Per-job seeds are derived from (base_seed, workload) only —
 * deliberately policy- and variant-independent (src/runner/job.h) — so
 * every policy cell of a workload deterministically rebuilds the
 * identical R-MAT + degree-relabel CSR graph. In a (workload x policy)
 * sweep that is pure waste: generation and relabeling dominate cell
 * startup. This cache shares one immutable build per parameter key
 * across all worker threads for the duration of a sweep.
 *
 * The cache is scoped, not always-on: SweepRunner (and tests) hold a
 * GraphBuildCache::Scope while a sweep runs; when the last scope ends
 * the cache is dropped so long-lived processes do not pin graph
 * memory. Outside any scope, getOrBuild() degenerates to calling the
 * builder directly.
 *
 * Sharing is safe because CsrGraph is immutable after construction and
 * consumers read it only through read-only DeviceViews; determinism is
 * unaffected because the cached build is bit-identical to the rebuild
 * it replaces.
 */

#ifndef BAUVM_GRAPH_GRAPH_CACHE_H_
#define BAUVM_GRAPH_GRAPH_CACHE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>

#include "src/graph/csr_graph.h"

namespace bauvm
{

/** Process-wide, thread-safe graph build memoizer; see file doc. */
class GraphBuildCache
{
  public:
    /** Everything a build depends on; equal key => identical graph.
     *  The stream parameters are part of the key even though streamed
     *  and in-core builds are bit-identical: keying on the full build
     *  configuration keeps cache transparency trivially auditable. */
    struct Key {
        std::uint64_t vertices = 0;
        std::uint64_t edges = 0;
        std::uint64_t seed = 0;
        bool weighted = false;
        bool streamed = false;
        std::uint64_t edges_per_block = 0; //!< 0 when not streamed

        bool
        operator<(const Key &o) const
        {
            if (vertices != o.vertices)
                return vertices < o.vertices;
            if (edges != o.edges)
                return edges < o.edges;
            if (seed != o.seed)
                return seed < o.seed;
            if (weighted != o.weighted)
                return weighted < o.weighted;
            if (streamed != o.streamed)
                return streamed < o.streamed;
            return edges_per_block < o.edges_per_block;
        }
    };

    /** Enables the cache for its lifetime; nestable (refcounted). */
    class Scope
    {
      public:
        Scope();
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
    };

    static GraphBuildCache &instance();

    /**
     * Returns the cached graph for @p key, building it via @p build on
     * the first request. Concurrent requests for the same key block on
     * the single in-flight build instead of duplicating it; a build
     * that throws is not cached (the next requester retries).
     *
     * Outside any Scope the builder runs unconditionally and nothing
     * is retained.
     */
    std::shared_ptr<const CsrGraph> getOrBuild(
        const Key &key, const std::function<CsrGraph()> &build);

    /** Builds performed (cache misses + uncached calls). */
    std::uint64_t builds() const;
    /** Requests served from the cache (including waits on in-flight). */
    std::uint64_t hits() const;

    /** True while at least one Scope is alive. */
    bool enabled() const;

    /** Drops every cached graph (counters are kept). */
    void clear();

  private:
    GraphBuildCache() = default;

    using Shared = std::shared_ptr<const CsrGraph>;

    mutable std::mutex mutex_;
    std::map<Key, std::shared_future<Shared>> cache_;
    int scope_depth_ = 0;
    std::uint64_t builds_ = 0;
    std::uint64_t hits_ = 0;

    friend class Scope;
    void enterScope();
    void exitScope();
};

} // namespace bauvm

#endif // BAUVM_GRAPH_GRAPH_CACHE_H_
