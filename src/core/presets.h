/**
 * @file
 * Named configurations: the Table 1 simulated system and the policy
 * presets evaluated in Fig 11.
 */

#ifndef BAUVM_CORE_PRESETS_H_
#define BAUVM_CORE_PRESETS_H_

#include <span>
#include <string>
#include <vector>

#include "src/sim/config.h"
#include "src/sim/name_table.h"

namespace bauvm
{

/** The memory-management policies compared in the paper. */
enum class Policy {
    Baseline,         //!< state-of-the-art tree prefetching (Zheng+)
    BaselinePcieComp, //!< baseline plus PCIe (de)compression
    To,               //!< thread oversubscription
    Ue,               //!< unobtrusive eviction
    ToUe,             //!< both techniques (the paper's proposal)
    Etc,              //!< Li et al. framework (MT + CC, PE off)
    IdealEviction,    //!< zero-latency eviction (Fig 8 upper bound)
    Unlimited,        //!< infinite device memory (Fig 8 normalizer)
};

/** All policies in Fig 11 presentation order. */
const std::vector<Policy> &allPolicies();

/** Every policy with its name as the figures print it and requests
 *  spell it (src/sim/name_table.h). */
std::span<const Named<Policy>> nameTable(Policy);

/** Human-readable policy name as the figures print it. */
std::string policyName(Policy policy);

/** parseName() for a Policy that fatal()s on an unknown name. */
Policy policyFromName(const std::string &name);

/** The paper's Table 1 system with a given oversubscription ratio. */
SimConfig paperConfig(double memory_ratio = 0.5,
                      std::uint64_t seed = 1);

/** Applies one of the Fig 11 policies on top of a base config. */
SimConfig applyPolicy(SimConfig config, Policy policy);

} // namespace bauvm

#endif // BAUVM_CORE_PRESETS_H_
