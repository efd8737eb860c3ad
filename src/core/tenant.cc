#include "src/core/tenant.h"

#include <cmath>

#include "src/sim/log.h"

namespace bauvm
{

std::uint64_t
deriveTenantSeed(std::uint64_t base_seed, std::uint32_t tenant_index)
{
    // splitmix64 finalizer, same diffusion scheme as runner/job.cc;
    // the tenant index lands in the high half so small bases and small
    // indices cannot collide before mixing.
    std::uint64_t x = base_seed ^
                      (0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(tenant_index) + 1));
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x ? x : 1;
}

namespace
{

constexpr Named<SharePolicy> kSharePolicyNames[] = {
    {SharePolicy::FreeForAll, "free-for-all"},
    {SharePolicy::StrictQuota, "strict"},
    {SharePolicy::Proportional, "proportional"},
};

} // namespace

std::span<const Named<SharePolicy>>
nameTable(SharePolicy)
{
    return kSharePolicyNames;
}

std::string
sharePolicyName(SharePolicy policy)
{
    return nameOf(policy);
}

SharePolicy
sharePolicyFromName(const std::string &name)
{
    SharePolicy policy = SharePolicy::FreeForAll;
    if (!parseName(name, &policy))
        fatal("sharePolicyFromName: unknown policy '%s'", name.c_str());
    return policy;
}

bool
validTenantQuota(double quota)
{
    return std::isfinite(quota) && quota >= 0.0;
}

std::string
tenantMixLabel(const std::vector<TenantSpec> &specs)
{
    std::string label;
    for (const TenantSpec &spec : specs) {
        if (!label.empty())
            label += '+';
        label += spec.workload;
    }
    return label;
}

} // namespace bauvm
