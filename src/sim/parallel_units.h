/**
 * @file
 * Deterministic fork-join over independent work units.
 *
 * runUnits() executes a fixed set of units on up to `threads` host
 * threads. Its users: the cells of a sweep (SweepRunner, one unit per
 * cell), a sweep cell's independent simulations (a multi-tenant cell
 * runs one solo anchor per tenant plus the mix itself, each on its own
 * GpuUvmSystem and event queue), and the chunks of one graph build
 * (src/graph). Determinism is by construction, not by locking
 * discipline: units share no mutable simulation state (the graph
 * cache and the result cache are internally synchronized and
 * value-deterministic; a sweep's progress lines, serialized under a
 * mutex, go to stderr only), every unit writes
 * results only into its own slots of caller-owned arrays, and the
 * caller merges them in fixed unit order after the join. Any thread
 * count therefore produces bit-identical output to the serial loop.
 *
 * Error handling mirrors the serial loop's observable behavior as
 * closely as a parallel run can: every unit runs to completion (no
 * cancellation), each exception is captured per unit, and after the
 * join the exception of the lowest-index failing unit is rethrown —
 * the one the serial loop would have thrown first (later units that
 * the serial loop would have skipped have run here; their side
 * effects are confined to their own slots).
 *
 * Units that use log.h's fatal()/panic() must install their own
 * ScopedAbortCapture: the capture depth is thread-local, so a guard
 * on the spawning thread does not cover workers.
 */

#ifndef BAUVM_SIM_PARALLEL_UNITS_H_
#define BAUVM_SIM_PARALLEL_UNITS_H_

#include <cstddef>
#include <functional>

namespace bauvm
{

/**
 * Invokes @p unit(i) exactly once for every i in [0, count) on at
 * most @p threads host threads (1 or 0 = serial, in index order, on
 * the calling thread). Blocks until all units finish, then rethrows
 * the lowest-index captured exception, if any.
 */
void runUnits(std::size_t count, std::size_t threads,
              const std::function<void(std::size_t)> &unit);

/** The host's hardware thread count, at least 1: what a thread count
 *  of 0 (a sweep's --jobs, a graph build's BuildThreads) means. */
std::size_t hardwareThreads();

} // namespace bauvm

#endif // BAUVM_SIM_PARALLEL_UNITS_H_
