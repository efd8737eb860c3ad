/**
 * @file
 * SweepService: the long-lived sweep daemon.
 *
 * One single-threaded poll() loop owns everything: a Unix-domain
 * listening socket, any number of client connections, and the forked
 * worker pools executing cells. Clients submit a bauvm.sweep-request/1
 * document (write it, then shutdown(SHUT_WR); the daemon parses at
 * EOF) and receive NDJSON events back until the socket closes:
 *
 *   {"op":"accepted","cells":N,"bench":"..."}
 *   {"op":"cell","index":N,"workload":...,"policy":...,"variant":...,
 *    "ok":B,"timed_out":B,"cached":B,"digest":"...",
 *    "done":D,"total":T}
 *   {"op":"done","sweep":<compact bauvm.sweep/1.4 document>}
 *   {"op":"error","message":"..."}
 *
 * Scheduling: each request's cells queue in deterministic matrix
 * order and shard across a per-request pool of forked workers
 * (spawnWorker) in chunks; results merge back *by index*, so the
 * assembled sweep is bit-identical to a serial run regardless of
 * worker count, interleaving, kills or resumes.
 *
 * Hard timeouts: "begin" frames attribute the running cell; when a
 * cell overstays request.hard_timeout_s the daemon SIGKILLs the
 * worker, marks exactly that cell timed_out, requeues the rest of the
 * shard and respawns — the guarantee the in-thread soft --timeout
 * cannot give.
 *
 * Dedupe and resume: every completion is memoized daemon-wide by cell
 * digest, and ok cells persist in the shared on-disk ResultCache
 * (workers store them; the daemon checks it at admission). A cell that
 * is *currently running* for one request is never started again for
 * another — later requests wait on the same digest and receive a copy
 * (reported with "cached": true).
 *
 * Shutdown: SIGTERM/SIGINT (via self-pipe) or stop(). Workers see
 * their stdin pipe close and exit; a SIGKILLed daemon leaves only the
 * result cache behind, which is exactly what resuming needs.
 */

#ifndef BAUVM_SERVE_SWEEP_SERVICE_H_
#define BAUVM_SERVE_SWEEP_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace bauvm
{

struct SweepServiceOptions {
    std::string socket_path;
    std::string cache_dir;        //!< "" = result cache off
    std::size_t max_workers = 0;  //!< clamp on request jobs; 0 = none
    std::size_t max_requests = 64; //!< concurrent client connections
    /** SO_SNDTIMEO applied to every client socket: a client that
     *  stops draining its events blocks a write for at most this long
     *  before its request aborts, instead of wedging the whole
     *  single-threaded poll loop (and hard-timeout enforcement) for
     *  everyone. 0 disables the guard. */
    double client_send_timeout_s = 30.0;
    bool verbose = true;          //!< stderr request/kill logging
};

class SweepService
{
  public:
    explicit SweepService(SweepServiceOptions opt);
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /** Binds and listens (removing a stale socket file first).
     *  @return false with a reason in @p error on failure. */
    bool start(std::string *error);

    /** Serves until stop() or SIGTERM/SIGINT. @return 0 on a clean
     *  shutdown. Requires start(). */
    int run();

    /** Asks a running run() to exit; callable from signal context. */
    void stop();

    const std::string &socketPath() const;

    // Daemon-lifetime counters (stable after run() returns).
    std::uint64_t cellsExecuted() const; //!< computed by workers
    std::uint64_t cellsFromCache() const; //!< served from disk/memo
    std::uint64_t cellsDeduped() const; //!< waited on a running twin
    std::uint64_t workersKilled() const; //!< hard-timeout SIGKILLs

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace bauvm

#endif // BAUVM_SERVE_SWEEP_SERVICE_H_
