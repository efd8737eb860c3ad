/**
 * @file
 * Replay shape: one workload's real warp-op stream, replayed through
 * the coalescer and a standalone memory hierarchy.
 *
 * The stream is captured by advancing the workload's
 * KernelInfo::make_program coroutines round-robin, block by block, as
 * runFunctional() does. Every memory op is kept until the buffer
 * holds 2 x kMaxOps; then every other op is dropped and only one op
 * in twice as many is kept from there on, so the kept ops spread
 * evenly over the whole run. Block b's ops are issued by SM
 * b % num_sms.
 *
 * The coalescer replay times Coalescer::coalesceInto over the kept
 * ops. The hierarchy replay first makes every touched page resident
 * (GpuMemoryManager::reserveFrame/commitPage, as a preloaded run
 * does), then times MemoryHierarchy::access over the coalesced
 * transactions, each SM issuing one transaction per cycle. No access
 * may fault.
 */

#ifndef PERFBENCH_CPP_REPLAY_H_
#define PERFBENCH_CPP_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "perfbench/cpp/spans.h"
#include "src/sim/config.h"
#include "src/workloads/workload.h"

namespace perfbench
{

struct ReplayStats {
    double functional_s = 0.0;        //!< one runFunctional() call
    std::uint64_t ops = 0;            //!< memory ops replayed
    std::uint64_t stride = 1;         //!< one op kept in `stride`
    std::uint64_t transactions = 0;   //!< coalesced lines of `ops`
    double coalesce_ns_per_op = 0.0;  //!< median over passes
    double transactions_per_op = 0.0;
    double ns_per_access = 0.0;       //!< median over passes
    std::uint64_t faults = 0;         //!< must stay 0
    std::size_t passes = 0;
};

/**
 * Captures @p workload at @p scale and @p seed and replays it under
 * @p config's memory geometry. Records spans under cell id @p cell.
 * Calls validate() after the functional run, so a wrong functional
 * result panics.
 */
ReplayStats runReplay(const std::string &workload,
                      bauvm::WorkloadScale scale, std::uint64_t seed,
                      const bauvm::SimConfig &config, SpanLog &log,
                      std::uint64_t cell);

} // namespace perfbench

#endif // PERFBENCH_CPP_REPLAY_H_
