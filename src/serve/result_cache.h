/**
 * @file
 * ResultCache: the on-disk, content-addressed store of finished sweep
 * cells.
 *
 * Extends the in-memory GraphBuildCache idea (results shared within
 * one process) to results on disk shared across runs: SweepRunner's
 * --resume stores every completed cell under the 128-bit digest of its
 * full content key (git revision, workload, scale, canonical final
 * config — see cell_spec.h), so
 *  - a killed sweep *resumes*: already-computed cells load instead of
 *    recomputing,
 *  - identical cells are shared across benches and sweep requests
 *    that point at one cache directory, and
 *  - any config or code change *invalidates* naturally, because it
 *    changes the address rather than mutating an entry.
 *
 * Layout: <dir>/<digest[0..1]>/<digest>.json (fan-out keeps directory
 * listings sane), each file a self-describing bauvm.cellcache/1
 * document carrying the full key (verified on lookup — a digest
 * collision or a corrupt file reads as a miss, never as a wrong
 * result) and the cell outcome including batch records.
 *
 * Writes go to a temp file in the same directory and rename() into
 * place, so concurrent writers of the same digest are safe (last one
 * wins with identical content — results are deterministic) and a
 * reader never observes a half-written entry. Failed or timed-out
 * cells are never stored; they retry on the next run.
 *
 * All methods are safe to call from concurrent sweep workers.
 */

#ifndef BAUVM_SERVE_RESULT_CACHE_H_
#define BAUVM_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/runner/job.h"

namespace bauvm
{

class ResultCache
{
  public:
    static constexpr const char *kSchema = "bauvm.cellcache/1";

    /** Opens (creating if needed) the cache rooted at @p dir;
     *  fatal() when the directory cannot be created. */
    explicit ResultCache(std::string dir);

    /**
     * Loads the cell stored under @p digest. Misses (false) on: no
     * entry, unreadable/corrupt entry, schema mismatch, or a stored
     * key different from @p key. On a hit the outcome has
     * from_cache = true.
     */
    bool lookup(const std::string &digest, const std::string &key,
                CellOutcome *out);

    /**
     * Atomically stores @p outcome under @p digest. Failed or
     * timed-out outcomes are rejected (returns false). Returns false
     * with a warn() when the filesystem write fails.
     */
    bool store(const std::string &digest, const std::string &key,
               const CellOutcome &outcome);

    const std::string &dir() const { return dir_; }

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t stores() const { return stores_.load(); }

  private:
    std::string entryPath(const std::string &digest) const;

    std::string dir_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stores_{0};
};

} // namespace bauvm

#endif // BAUVM_SERVE_RESULT_CACHE_H_
