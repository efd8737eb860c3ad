#include "src/runner/sweep_result.h"

#include <cstdio>

#include "src/core/experiment.h"
#include "src/runner/json_writer.h"
#include "src/sim/log.h"
#include "src/sim/write_file.h"

namespace bauvm
{

std::size_t
SweepResult::failedCells() const
{
    std::size_t n = 0;
    for (const auto &c : cells)
        n += c.ok ? 0 : 1;
    return n;
}

const CellOutcome *
SweepResult::find(const std::string &workload, Policy policy,
                  const std::string &variant) const
{
    for (const auto &c : cells) {
        if (c.workload == workload && c.policy == policy &&
            c.variant == variant)
            return &c;
    }
    return nullptr;
}

const RunResult &
SweepResult::require(const std::string &workload, Policy policy,
                     const std::string &variant) const
{
    const CellOutcome *cell = find(workload, policy, variant);
    if (!cell || !cell->ok)
        fatal("%s: cell %s failed: %s", bench.c_str(),
              cellName(workload, policy, variant).c_str(),
              cell ? cell->error.c_str() : "not in the sweep");
    return cell->result;
}

namespace
{

/**
 * Writes every kExported field of @p s as a member of the open
 * object. Vectors of tabled structs become arrays of objects and are
 * left out when empty, so single-tenant cells carry no "tenants".
 */
template <class S>
void
writeFields(JsonWriter &w, const S &s)
{
    forEachField(s, [&w](const char *name, const auto &v,
                         unsigned flags) {
        using T = std::remove_cvref_t<decltype(v)>;
        if (!(flags & kExported))
            return;
        if constexpr (kSerializedApart<T>) {
            return;
        } else if constexpr (kIsVector<T>) {
            if (v.empty())
                return;
            w.beginArray(name);
            for (const auto &element : v) {
                w.beginObject();
                writeFields(w, element);
                w.endObject();
            }
            w.endArray();
        } else if constexpr (std::is_same_v<T, std::string> ||
                             std::is_same_v<T, bool> ||
                             std::is_floating_point_v<T>) {
            w.field(name, v);
        } else {
            w.field(name, static_cast<std::uint64_t>(v));
        }
    });
}

} // namespace

void
writeCellJson(JsonWriter &w, const CellOutcome &c,
              bool with_batch_records)
{
    w.beginObject();
    w.field("workload", c.workload);
    w.field("policy", policyName(c.policy));
    w.field("variant", c.variant);
    w.field("seed", c.seed);
    w.field("job_seed", c.job_seed);
    w.field("ok", c.ok);
    w.field("timed_out", c.timed_out);
    w.field("error", c.error);
    w.field("wall_s", c.wall_s);
    w.field("digest", c.digest);
    w.field("worker_pid", c.worker_pid);
    w.field("hostname", c.hostname);
    w.field("cached", c.from_cache);
    if (c.ok) {
        w.beginObject("result");
        writeFields(w, c.result);
        w.endObject();
        if (with_batch_records) {
            // One positional row per batch, in table order, so a
            // cached cell replays Figs 3/12-16 without loss.
            w.beginArray("batch_records");
            for (const BatchRecord &b : c.result.batch_records) {
                w.beginArray();
                forEachField(b, [&w](const char *, const auto &v,
                                     unsigned flags) {
                    if (flags & kExported)
                        w.value(static_cast<std::uint64_t>(v));
                });
                w.endArray();
            }
            w.endArray();
        }
    }
    w.endObject();
}

std::string
SweepResult::toJson(bool pretty) const
{
    JsonWriter w(pretty);
    w.beginObject();
    w.field("schema", kSchema);
    w.field("bench", bench);
    w.field("base_seed", base_seed);
    w.field("scale", scaleName(scale));
    w.field("ratio", ratio);
    w.field("jobs", static_cast<std::uint64_t>(jobs));
    w.field("elapsed_s", elapsed_s);
    w.beginArray("cells");
    for (const auto &c : cells)
        writeCellJson(w, c);
    w.endArray();
    w.endObject();
    return w.str();
}

bool
SweepResult::writeJson(const std::string &path) const
{
    const std::string doc = toJson();
    if (path == "-") {
        std::fwrite(doc.data(), 1, doc.size(), stdout);
        return true;
    }
    if (!writeFileInPlace(path, doc, "sweep"))
        return false;
    inform("sweep: wrote %zu cells to %s", cells.size(), path.c_str());
    return true;
}

Table
speedupTable(const SweepResult &sweep,
             const std::vector<std::string> &workloads,
             const std::vector<Policy> &policies,
             std::map<Policy, std::vector<double>> *speedups)
{
    std::vector<std::string> headers = {"workload"};
    for (Policy p : policies)
        headers.push_back(policyName(p));
    Table t(headers);
    for (const auto &w : workloads) {
        const CellOutcome *base = sweep.find(w, Policy::Baseline);
        if (!base || !base->ok) {
            warn("%s: skipping %s (baseline cell failed)",
                 sweep.bench.c_str(), w.c_str());
            continue;
        }
        const double base_cycles =
            static_cast<double>(base->result.cycles);
        std::vector<std::string> row = {w};
        for (Policy p : policies) {
            const CellOutcome *cell = sweep.find(w, p);
            if (!cell || !cell->ok) {
                row.push_back("FAIL");
                continue;
            }
            const double s =
                base_cycles / static_cast<double>(cell->result.cycles);
            (*speedups)[p].push_back(s);
            row.push_back(Table::num(s, 2));
        }
        t.addRow(row);
    }
    return t;
}

} // namespace bauvm
