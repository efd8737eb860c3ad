#include "src/serve/sweep_request.h"

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/runner/cell_spec.h"
#include "src/serve/cell_json.h"
#include "src/sim/log.h"
#include "src/sim/name_table.h"
#include "src/workloads/workload_registry.h"

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

/** The keys a request object may hold; anything else is refused by
 *  name, so a misspelled key cannot silently run its default. */
constexpr const char *kRequestKeys[] = {
    "schema", "bench", "workloads", "policies", "variants",
    "scale", "ratio", "seed", "audit", "tenants", "share_policy",
    "timeout_s", "jobs"};
constexpr const char *kVariantKeys[] = {"label", "overrides"};
constexpr const char *kTenantKeys[] = {"workload", "quota"};

/** Fails on the first member of @p obj not in @p known, naming it and
 *  @p where it sits ("" for the request object itself). */
bool
rejectUnknownKeys(const JsonValue &obj, std::span<const char *const> known,
                  const std::string &where, std::string *error)
{
    for (const auto &member : obj.members()) {
        const std::string &key = member.first;
        if (std::none_of(known.begin(), known.end(),
                         [&](const char *k) { return key == k; }))
            return failParse(error, "sweep request: unknown key '" + key +
                                        "'" + where);
    }
    return true;
}

/** Expands one workloads[] entry: "@" plus a kindName() (or "@all")
 *  into registry enumerations, anything else checked against the
 *  registry — unless @p labels_only, in which case non-group entries
 *  are opaque cell labels (a tenant-mix request runs its tenants, not
 *  the workload axis). */
bool
expandWorkloadEntry(const std::string &entry,
                    std::vector<std::string> *out, std::string *error,
                    bool labels_only)
{
    const WorkloadRegistry &reg = WorkloadRegistry::instance();
    WorkloadKind kind = WorkloadKind::Irregular;
    if (entry.starts_with('@') &&
        parseName(std::string_view(entry).substr(1), &kind)) {
        for (const std::string &name : reg.enumerate(kind))
            out->push_back(name);
        return true;
    }
    if (entry == "@all") {
        for (const std::string &name : reg.enumerate())
            out->push_back(name);
        return true;
    }
    if (!labels_only && !reg.contains(entry))
        return failParse(error, "sweep request: unknown workload '" +
                                    entry + "'");
    out->push_back(entry);
    return true;
}

} // namespace

bool
parseSweepRequest(const JsonValue &v, SweepSpec *out,
                  std::string *error)
{
    if (!v.isObject())
        return failParse(error, "sweep request is not an object");
    const std::string schema = v.getString("schema");
    if (schema.rfind(kSweepRequestSchema, 0) != 0)
        return failParse(error, "sweep request: unsupported schema '" +
                                    schema + "'");
    // Keys of the retired sweep daemon: a request that asks for a hard
    // kill must not run silently without one.
    for (const char *retired :
         {"hard_timeout_s", "chunk_cells", "flush_cells"})
        if (v.find(retired))
            return failParse(error, std::string("sweep request: '") +
                                        retired +
                                        "' is no longer supported");
    if (!rejectUnknownKeys(v, kRequestKeys, "", error))
        return false;
    *out = SweepSpec();
    out->bench = v.getString("bench", "sweep");
    BenchOptions &opt = out->opt;

    const JsonValue *workloads = v.find("workloads");
    if (!workloads || !workloads->isArray() || workloads->size() == 0)
        return failParse(
            error, "sweep request: workloads must be a non-empty array");
    const bool labels_only = v.find("tenants") != nullptr;
    for (std::size_t i = 0; i < workloads->size(); ++i) {
        const JsonValue &entry = workloads->at(i);
        if (!entry.isString())
            return failParse(
                error, "sweep request: workloads[] entries are strings");
        if (!expandWorkloadEntry(entry.asString(), &out->workloads,
                                 error, labels_only))
            return false;
    }

    if (const JsonValue *policies = v.find("policies")) {
        if (!policies->isArray() || policies->size() == 0)
            return failParse(error, "sweep request: policies must be a "
                                    "non-empty array");
        for (std::size_t i = 0; i < policies->size(); ++i) {
            const JsonValue &entry = policies->at(i);
            Policy p = Policy::Baseline;
            if (!entry.isString() || !parseName(entry.asString(), &p))
                return failParse(
                    error, "sweep request: unknown policy '" +
                               (entry.isString() ? entry.asString()
                                                 : std::string("?")) +
                               "'");
            out->policies.push_back(p);
        }
    } else {
        out->policies = allPolicies();
    }

    if (const JsonValue *variants = v.find("variants")) {
        if (!variants->isArray() || variants->size() == 0)
            return failParse(error, "sweep request: variants must be a "
                                    "non-empty array");
        for (std::size_t i = 0; i < variants->size(); ++i) {
            const JsonValue &entry = variants->at(i);
            if (!entry.isObject())
                return failParse(
                    error, "sweep request: variants[] entries are "
                           "objects");
            if (!rejectUnknownKeys(entry, kVariantKeys,
                                   " in variants[" + std::to_string(i) +
                                       "]",
                                   error))
                return false;
            std::vector<ConfigOverride> overrides;
            std::string why;
            if (const JsonValue *ov = entry.find("overrides"))
                if (!parseConfigOverrides(*ov, &overrides, &why))
                    return failParse(error, "sweep request: " + why);
            ConfigVariant var;
            var.label = entry.getString("label");
            if (!overrides.empty()) {
                var.mutate = [overrides](SimConfig &config) {
                    for (const ConfigOverride &o : overrides) {
                        std::string why;
                        if (!applyConfigOverride(config, o.key, o.value,
                                                 &why))
                            fatal("sweep request: %s", why.c_str());
                    }
                };
            }
            out->variants.push_back(std::move(var));
        }
    }

    const std::string scale = v.getString("scale", scaleName(opt.scale));
    if (!parseName(scale, &opt.scale))
        return failParse(
            error, "sweep request: unknown scale '" + scale + "'");
    opt.ratio = v.getDouble("ratio", 0.5);
    opt.seed = v.getU64("seed", 1);
    opt.audit = v.getBool("audit", false);
    if (const JsonValue *tenants = v.find("tenants")) {
        if (!tenants->isArray() || tenants->size() == 0)
            return failParse(error, "sweep request: tenants must be a "
                                    "non-empty array");
        for (std::size_t i = 0; i < tenants->size(); ++i) {
            const JsonValue &t = tenants->at(i);
            if (!rejectUnknownKeys(t, kTenantKeys,
                                   " in tenants[" + std::to_string(i) +
                                       "]",
                                   error))
                return false;
            TenantSpec spec;
            spec.workload = t.getString("workload");
            spec.quota = t.getDouble("quota", 0.0);
            opt.tenants.push_back(std::move(spec));
        }
    }
    if (const JsonValue *policy = v.find("share_policy")) {
        if (!policy->isString() ||
            !parseName(policy->asString(), &opt.share_policy))
            return failParse(error,
                             "sweep request: unknown share_policy '" +
                                 (policy->isString() ? policy->asString()
                                                     : std::string("?")) +
                                 "'");
    }
    opt.timeout_s = v.getDouble("timeout_s", 0.0);
    opt.jobs = static_cast<std::size_t>(v.getU64("jobs", 1));
    if (opt.jobs == 0)
        opt.jobs = 1;
    std::string refusal = benchOptionsRefusal(opt);
    if (!refusal.empty())
        return failParse(error, "sweep request: " + refusal);
    // A cell the sweep would refuse fails the request here, before
    // any cell runs.
    refusal = tenantRefusal(*out);
    if (!refusal.empty())
        return failParse(error, "sweep request: " + refusal);
    return true;
}

} // namespace bauvm
