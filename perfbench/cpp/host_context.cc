#include "perfbench/cpp/host_context.h"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>

#include "src/runner/cell_spec.h"

namespace perfbench
{

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            break;
        const auto first = line.find_first_not_of(" \t", colon + 1);
        return first == std::string::npos ? "" : line.substr(first);
    }
    return "unknown";
}

} // namespace

std::vector<std::pair<std::string, std::string>>
HostContext::fields() const
{
    return {
        {"nproc", std::to_string(nproc)},
        {"cpu_model", cpu_model},
        {"build_type", build_type},
        {"compiler", compiler},
        {"git_rev", git_rev},
        {"jobs", std::to_string(jobs)},
        {"cell_threads", std::to_string(cell_threads)},
        {"scale", scale},
    };
}

HostContext
probeHostContext(std::size_t jobs, std::size_t cell_threads,
                 const std::string &scale)
{
    HostContext ctx;
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    ctx.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
    ctx.cpu_model = cpuModel();
    ctx.build_type = PERFBENCH_BUILD_TYPE;
    ctx.compiler = PERFBENCH_COMPILER;
    ctx.git_rev = bauvm::gitRev();
    ctx.jobs = jobs;
    ctx.cell_threads = cell_threads;
    ctx.scale = scale;
    return ctx;
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB -> MB
}

} // namespace perfbench
