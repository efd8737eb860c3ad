#include "src/core/presets.h"

#include "src/sim/log.h"

namespace bauvm
{

const std::vector<Policy> &
allPolicies()
{
    static const std::vector<Policy> policies = {
        Policy::Baseline, Policy::BaselinePcieComp, Policy::To,
        Policy::Ue,       Policy::ToUe,             Policy::Etc,
    };
    return policies;
}

namespace
{

constexpr Named<Policy> kPolicyNames[] = {
    {Policy::Baseline, "BASELINE"},
    {Policy::BaselinePcieComp, "BASELINE+PCIeC"},
    {Policy::To, "TO"},
    {Policy::Ue, "UE"},
    {Policy::ToUe, "TO+UE"},
    {Policy::Etc, "ETC"},
    {Policy::IdealEviction, "IDEAL-EVICTION"},
    {Policy::Unlimited, "UNLIMITED"},
};

} // namespace

std::span<const Named<Policy>>
nameTable(Policy)
{
    return kPolicyNames;
}

std::string
policyName(Policy policy)
{
    return nameOf(policy);
}

Policy
policyFromName(const std::string &name)
{
    Policy policy = Policy::Baseline;
    if (!parseName(name, &policy))
        fatal("policyFromName: unknown policy '%s'", name.c_str());
    return policy;
}

SimConfig
paperConfig(double memory_ratio, std::uint64_t seed)
{
    SimConfig config; // defaults in sim/config.h are Table 1 already
    config.memory_ratio = memory_ratio;
    config.seed = seed;
    return config;
}

SimConfig
applyPolicy(SimConfig config, Policy policy)
{
    switch (policy) {
      case Policy::Baseline:
        break;
      case Policy::BaselinePcieComp:
        config.uvm.pcie_compression_ratio = 1.5;
        break;
      case Policy::To:
        config.to.enabled = true;
        break;
      case Policy::Ue:
        config.uvm.unobtrusive_eviction = true;
        break;
      case Policy::ToUe:
        config.to.enabled = true;
        config.uvm.unobtrusive_eviction = true;
        break;
      case Policy::Etc:
        config.etc.enabled = true;
        break;
      case Policy::IdealEviction:
        config.uvm.ideal_eviction = true;
        break;
      case Policy::Unlimited:
        config.memory_ratio = 0.0; // unlimited device memory
        break;
    }
    return config;
}

} // namespace bauvm
