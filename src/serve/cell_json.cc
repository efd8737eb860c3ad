#include "src/serve/cell_json.h"

#include "src/core/experiment.h"
#include "src/sim/log.h"

namespace bauvm
{

namespace
{

bool
failParse(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

/**
 * Reads every kExported field of @p s from the object @p v; absent
 * members keep their defaults, so older producers still parse.
 * Vectors of tabled structs are read from arrays of objects.
 */
template <class S>
bool
parseFields(const JsonValue &v, S &s, std::string *error)
{
    bool ok = true;
    forEachField(s, [&](const char *name, auto &field, unsigned flags) {
        using T = std::remove_cvref_t<decltype(field)>;
        const JsonValue *j = v.find(name);
        if (!ok || !(flags & kExported) || !j)
            return;
        if constexpr (kSerializedApart<T>) {
            return;
        } else if constexpr (kIsVector<T>) {
            ok = j->isArray() ||
                 failParse(error, std::string("cell outcome: ") + name +
                                      " is not an array");
            field.resize(j->size());
            for (std::size_t i = 0; ok && i < j->size(); ++i)
                ok = parseFields(j->at(i), field[i], error);
        } else if constexpr (std::is_same_v<T, std::string>) {
            field = j->asString();
        } else if constexpr (std::is_same_v<T, bool>) {
            field = j->asBool();
        } else if constexpr (std::is_floating_point_v<T>) {
            field = j->asDouble();
        } else {
            field = static_cast<T>(j->asU64());
        }
    });
    return ok;
}

} // namespace

bool
parseConfigOverrides(const JsonValue &v,
                     std::vector<ConfigOverride> *out,
                     std::string *error)
{
    if (!v.isArray())
        return failParse(error, "overrides is not an array");
    SimConfig probe; // validate without running anything
    for (std::size_t i = 0; i < v.size(); ++i) {
        ConfigOverride o{v.at(i).getString("key"), 0.0};
        const JsonValue *value = v.at(i).find("value");
        if (!value || !value->isNumber())
            return failParse(error, "override '" + o.key +
                                        "': value is not a number");
        o.value = value->asDouble();
        if (!applyConfigOverride(probe, o.key, o.value, error))
            return false;
        out->push_back(std::move(o));
    }
    return true;
}

bool
policyFromNameSafe(const std::string &name, Policy *out)
{
    for (Policy p :
         {Policy::Baseline, Policy::BaselinePcieComp, Policy::To,
          Policy::Ue, Policy::ToUe, Policy::Etc, Policy::IdealEviction,
          Policy::Unlimited}) {
        if (policyName(p) == name) {
            *out = p;
            return true;
        }
    }
    return false;
}

bool
scaleFromName(const std::string &name, WorkloadScale *out)
{
    for (WorkloadScale s :
         {WorkloadScale::Tiny, WorkloadScale::Small,
          WorkloadScale::Medium, WorkloadScale::Large,
          WorkloadScale::Huge}) {
        if (scaleName(s) == name) {
            *out = s;
            return true;
        }
    }
    return false;
}

bool
parseCellOutcome(const JsonValue &v, CellOutcome *out,
                 std::string *error)
{
    if (!v.isObject())
        return failParse(error, "cell outcome is not an object");
    *out = CellOutcome();
    out->workload = v.getString("workload");
    if (out->workload.empty())
        return failParse(error, "cell outcome: missing workload");
    const std::string policy = v.getString("policy", "BASELINE");
    if (!policyFromNameSafe(policy, &out->policy))
        return failParse(
            error, "cell outcome: unknown policy '" + policy + "'");
    out->variant = v.getString("variant");
    out->seed = v.getU64("seed");
    out->job_seed = v.getU64("job_seed");
    out->ok = v.getBool("ok");
    out->timed_out = v.getBool("timed_out");
    out->error = v.getString("error");
    out->wall_s = v.getDouble("wall_s");
    out->digest = v.getString("digest");
    out->worker_pid = v.getU64("worker_pid");
    out->hostname = v.getString("hostname");
    out->from_cache = v.getBool("cached");

    if (!out->ok)
        return true;
    const JsonValue *r = v.find("result");
    if (!r || !r->isObject())
        return failParse(error, "cell outcome: ok without result");

    RunResult &res = out->result;
    res.workload = out->workload;
    res.seed = out->seed;
    if (!parseFields(*r, res, error))
        return false;

    // writeCellJson emits batch_records as a sibling of "result" on
    // the cell object (not inside it) — read it from there, or every
    // cache round-trip would silently drop the records.
    if (const JsonValue *records = v.find("batch_records")) {
        if (!records->isArray())
            return failParse(
                error, "cell outcome: batch_records is not an array");
        std::vector<BatchRecord> log(records->size());
        for (std::size_t i = 0; i < records->size(); ++i) {
            // One positional row per batch, in table order.
            const JsonValue &row = records->at(i);
            std::size_t column = 0;
            forEachField(log[i], [&](const char *, auto &field,
                                     unsigned flags) {
                using T = std::remove_cvref_t<decltype(field)>;
                if (!(flags & kExported))
                    return;
                if (row.isArray() && column < row.size())
                    field = static_cast<T>(row.at(column).asU64());
                ++column;
            });
            if (!row.isArray() || column != row.size())
                return failParse(error,
                                 "cell outcome: malformed batch record");
        }
        res.batch_records = BatchLog(std::move(log));
    }
    return true;
}

} // namespace bauvm
