/**
 * @file
 * Sweep-service client: submit a request over the daemon's Unix
 * socket and collect the streamed result.
 *
 * Protocol (client side of sweep_service.h): connect, write the
 * bauvm.sweep-request/1 document, shutdown(SHUT_WR) to mark its end,
 * then read NDJSON events until the daemon closes the socket. The
 * final "done" event embeds the merged bauvm.sweep/1.4 document,
 * which submitSweep() hands back as the exact bytes the daemon sent —
 * suitable for writing to a --json file and diffing against a serial
 * run.
 *
 * Shared by the bauvm_submit binary and the service tests.
 */

#ifndef BAUVM_SERVE_CLIENT_H_
#define BAUVM_SERVE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>

namespace bauvm
{

class JsonValue;

/** The collected outcome of one submitted sweep. */
struct SweepSubmitResult {
    bool ok = false;
    std::string error;      //!< why ok is false
    std::string sweep_json; //!< raw compact sweep doc from "done"

    // Tallied from the "cell" event stream.
    std::uint64_t cells = 0;
    std::uint64_t failed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t cached = 0;
};

/** Fired for every event line the daemon streams (already parsed). */
using SweepEventFn = std::function<void(const JsonValue &)>;

/**
 * Connects to @p socket_path, submits @p request_json and blocks
 * until the daemon finishes (or the connection errors out).
 * @p on_event (optional) observes every event, including "done".
 */
SweepSubmitResult submitSweep(const std::string &socket_path,
                              const std::string &request_json,
                              const SweepEventFn &on_event = {});

/**
 * Polls connect() until the daemon's socket accepts, for scripts and
 * tests that just started a daemon. @return false when
 * @p timeout_s elapses first.
 */
bool waitForService(const std::string &socket_path, double timeout_s);

} // namespace bauvm

#endif // BAUVM_SERVE_CLIENT_H_
