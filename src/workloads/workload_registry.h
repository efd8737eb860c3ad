/**
 * @file
 * WorkloadRegistry: the named-workload catalogue.
 *
 * The one public way to instantiate or enumerate workloads by name:
 * every workload is registered once, under its figure name, with a
 * factory closure, and lookup/enumeration go through one table (the
 * per-family registration hooks in workload_factories.h are internal
 * to src/workloads).
 */

#ifndef BAUVM_WORKLOADS_WORKLOAD_REGISTRY_H_
#define BAUVM_WORKLOADS_WORKLOAD_REGISTRY_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/name_table.h"
#include "src/workloads/workload.h"

namespace bauvm
{

/** Workload family: the paper's irregular GraphBIG selection, the
 *  regular Rodinia-style contrast suite of Fig 1, and the frontier-
 *  phase graph suite (direction-optimizing BFS, TC, k-truss, CC)
 *  whose per-kernel access pattern depends on the evolving frontier. */
enum class WorkloadKind { Irregular, Regular, Frontier };

/** Every WorkloadKind with its lower-case family tag, as a sweep
 *  request's "@<tag>" workload group spells it
 *  (src/sim/name_table.h). */
std::span<const Named<WorkloadKind>> nameTable(WorkloadKind);

/** The kind's tag in nameTable(WorkloadKind). */
const char *kindName(WorkloadKind kind);

/**
 * Process-wide catalogue of instantiable workloads.
 *
 * instance() arrives pre-populated with the paper's 11 irregular and 6
 * regular workloads in presentation order. Registration is expected at
 * startup (before sweeps fan out); create() and the enumerations are
 * const and safe to call concurrently once registration is done.
 */
class WorkloadRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<Workload>()>;

    /** The pre-populated process-wide registry. */
    static WorkloadRegistry &instance();

    /** Registers @p factory under @p name; fatal() on duplicates. */
    void add(const std::string &name, WorkloadKind kind,
             Factory factory);

    /** Instantiates the named workload; fatal() (listing the known
     *  names) when @p name is not registered. */
    std::unique_ptr<Workload> create(const std::string &name) const;

    /** All registered names, in registration (presentation) order. */
    std::vector<std::string> enumerate() const;

    /** Names of one workload family, in registration order. */
    std::vector<std::string> enumerate(WorkloadKind kind) const;

    bool contains(const std::string &name) const;

  private:
    WorkloadRegistry(); //!< registers the built-in suite

    struct Entry {
        std::string name;
        WorkloadKind kind;
        Factory factory;
    };

    std::vector<Entry> entries_; //!< registration order
    std::unordered_map<std::string, std::size_t> index_;
};

} // namespace bauvm

#endif // BAUVM_WORKLOADS_WORKLOAD_REGISTRY_H_
