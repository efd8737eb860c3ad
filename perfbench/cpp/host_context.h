/**
 * @file
 * The host and build a measurement was taken on. Host seconds are only
 * comparable between runs whose contexts match, so every result record
 * carries one (compare.py refuses to report a speed-up across
 * differing contexts).
 */

#ifndef PERFBENCH_CPP_HOST_CONTEXT_H_
#define PERFBENCH_CPP_HOST_CONTEXT_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

struct HostContext {
    unsigned nproc = 0;
    std::string cpu_model;
    std::string build_type;
    std::string compiler;
    std::string git_rev;
    std::size_t jobs = 1;
    std::size_t cell_threads = 1;
    std::string scale;

    /** (key, value) pairs in a fixed order, values as strings. */
    std::vector<std::pair<std::string, std::string>> fields() const;
};

/** Probes this host; the sweep settings come from the caller. */
HostContext probeHostContext(std::size_t jobs, std::size_t cell_threads,
                             const std::string &scale);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_CPP_HOST_CONTEXT_H_
