#include "src/workloads/workload_registry.h"

#include "src/sim/log.h"
#include "src/workloads/workload_factories.h"

namespace bauvm
{

namespace
{

constexpr Named<WorkloadKind> kKindNames[] = {
    {WorkloadKind::Irregular, "irregular"},
    {WorkloadKind::Regular, "regular"},
    {WorkloadKind::Frontier, "frontier"},
};

} // namespace

std::span<const Named<WorkloadKind>>
nameTable(WorkloadKind)
{
    return kKindNames;
}

const char *
kindName(WorkloadKind kind)
{
    return nameOf(kind);
}

WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry registry;
    return registry;
}

WorkloadRegistry::WorkloadRegistry()
{
    // The paper's Fig 11 presentation order.
    add("BC", WorkloadKind::Irregular, [] { return makeBcWorkload(); });
    for (const char *v : {"DWC", "TA", "TF", "TTC", "TWC"}) {
        add(std::string("BFS-") + v, WorkloadKind::Irregular,
            [v] { return makeBfsWorkload(v); });
    }
    for (const char *v : {"DTC", "TTC"}) {
        add(std::string("GC-") + v, WorkloadKind::Irregular,
            [v] { return makeGcWorkload(v); });
    }
    add("KCORE", WorkloadKind::Irregular,
        [] { return makeKcoreWorkload(); });
    add("SSSP-TWC", WorkloadKind::Irregular,
        [] { return makeSsspWorkload(); });
    add("PR", WorkloadKind::Irregular,
        [] { return makePageRankWorkload(); });

    // The Fig 1 regular contrast suite.
    for (const char *n : {"CFD", "DWT", "GM", "H3D", "HS", "LUD"}) {
        add(n, WorkloadKind::Regular,
            [n] { return makeRegularWorkload(n); });
    }

    // The frontier-phase suite: traversal intensity and footprint
    // shift with the frontier, not with a fixed iteration schedule.
    add("BFS-HYB", WorkloadKind::Frontier,
        [] { return makeHybridBfsWorkload(); });
    add("CC", WorkloadKind::Frontier,
        [] { return makeComponentsWorkload(); });
    add("TC", WorkloadKind::Frontier,
        [] { return makeTriangleCountWorkload(); });
    add("KTRUSS", WorkloadKind::Frontier,
        [] { return makeKtrussWorkload(); });
}

void
WorkloadRegistry::add(const std::string &name, WorkloadKind kind,
                      Factory factory)
{
    if (!factory)
        fatal("WorkloadRegistry: null factory for '%s'", name.c_str());
    if (index_.count(name) != 0)
        fatal("WorkloadRegistry: duplicate workload '%s'", name.c_str());
    index_.emplace(name, entries_.size());
    entries_.push_back(Entry{name, kind, std::move(factory)});
}

std::unique_ptr<Workload>
WorkloadRegistry::create(const std::string &name) const
{
    const auto it = index_.find(name);
    if (it == index_.end()) {
        // Tag each candidate with its family so a --workload typo
        // shows which suite the near-misses belong to.
        std::string known;
        for (const std::string &n : enumerate()) {
            if (!known.empty())
                known += ", ";
            known += n;
            known += " (";
            known += kindName(entries_[index_.at(n)].kind);
            known += ")";
        }
        fatal("WorkloadRegistry: unknown workload '%s' (known: %s)",
              name.c_str(), known.c_str());
    }
    return entries_[it->second].factory();
}

std::vector<std::string>
WorkloadRegistry::enumerate() const
{
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const Entry &e : entries_)
        names.push_back(e.name);
    return names;
}

std::vector<std::string>
WorkloadRegistry::enumerate(WorkloadKind kind) const
{
    std::vector<std::string> names;
    for (const Entry &e : entries_) {
        if (e.kind == kind)
            names.push_back(e.name);
    }
    return names;
}

bool
WorkloadRegistry::contains(const std::string &name) const
{
    return index_.count(name) != 0;
}

} // namespace bauvm
