#include "src/runner/cell_spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/core/experiment.h"
#include "src/graph/stream/csr_stream_builder.h"

#ifndef BAUVM_GIT_REV
#define BAUVM_GIT_REV "unknown"
#endif

namespace bauvm
{

namespace
{

/**
 * Stores @p value in the knob @p field if its type can hold it:
 * integers integral in [0, max], bools 0 or 1, doubles finite and
 * >= 0 (no double knob has a meaning below zero). A new scoped-enum
 * knob fails to compile here until it gets its max.
 * @return "" on success, else why not.
 */
template <class T>
std::string
setKnob(T &field, double value)
{
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value) || value < 0.0)
            return "must be a finite number >= 0";
        field = value;
        return "";
    } else {
        std::uint64_t max;
        if constexpr (std::is_same_v<T, SharePolicy>)
            max = static_cast<std::uint64_t>(SharePolicy::Proportional);
        else
            max = std::numeric_limits<T>::max();
        // max + 1 rounds to 2^64 for 64-bit fields: still an exact
        // exclusive bound, so the cast below stays defined.
        if (!(value >= 0.0 && value < static_cast<double>(max) + 1.0 &&
              value == std::floor(value)))
            return "must be an integer in [0, " + std::to_string(max) +
                   "]";
        field = static_cast<T>(static_cast<std::uint64_t>(value));
        return "";
    }
}

/** splitmix64 finalizer (same constants as job.cc). */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

template <class T>
void
appendKv(std::string &out, const std::string &key, const T &v)
{
    out += key;
    out += '=';
    out += fieldText(v);
    out += ';';
}

} // namespace

bool
applyConfigOverride(SimConfig &config, const std::string &key,
                    double value, std::string *error)
{
    std::string why = "unknown override key";
    forEachLeaf(config, [&](const std::string &name, auto &field,
                            unsigned flags) {
        if ((flags & kKnob) && name == key)
            why = setKnob(field, value);
    });
    if (!why.empty() && error)
        *error = "override '" + key + "' = " + fieldText(value) + ": " +
                 why;
    return why.empty();
}

std::vector<std::string>
knownOverrideKeys()
{
    std::vector<std::string> keys;
    const SimConfig defaults;
    forEachLeaf(defaults, [&](const std::string &name, const auto &,
                              unsigned flags) {
        if (flags & kKnob)
            keys.push_back(name);
    });
    std::sort(keys.begin(), keys.end());
    return keys;
}

std::string
canonicalConfigString(const SimConfig &c)
{
    std::string out;
    out.reserve(1400);
    forEachLeaf(c, [&](const std::string &name, const auto &field,
                       unsigned flags) {
        if (flags & kKeyed)
            appendKv(out, name, field);
    });
    return out;
}

std::string
cellKey(const std::string &workload, WorkloadScale scale,
        const SimConfig &config, const std::string &git_rev,
        const std::vector<TenantSpec> &tenants)
{
    // /2: the graph-stream parameters joined the key. They no longer
    // choose how a graph is built (one builder builds every graph),
    // but they stay so that every pinned cell key keeps its value.
    // /3: the tenant mix joined the key (and mt.policy joined the
    // canonical config) — a multi-tenant cell can never alias the
    // single-tenant cell that shares its label.
    const GraphStreamConfig &gs = graphStreamConfig();
    std::string key = "bauvm.cell/3|";
    key += git_rev;
    key += '|';
    key += workload;
    key += '|';
    key += scaleName(scale);
    key += '|';
    appendKv(key, "stream.threshold_edges", gs.stream_threshold_edges);
    appendKv(key, "stream.edges_per_block", gs.edges_per_block);
    appendKv(key, "stream.scratch_bytes", gs.scratch_bytes);
    key += '|';
    for (const TenantSpec &t : tenants) {
        key += t.workload;
        key += ':';
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", t.quota);
        key += buf;
        key += ':';
        key += scaleName(t.scale);
        key += ';';
    }
    key += '|';
    key += canonicalConfigString(config);
    return key;
}

std::string
digestHex(const std::string &key)
{
    // Two independent FNV-1a lanes (different offset bases), each
    // diffused through splitmix64 — 128 bits total, plenty for a cache
    // that holds at most millions of cells.
    std::uint64_t a = 0xcbf29ce484222325ULL;
    std::uint64_t b = 0x84222325cbf29ce4ULL;
    for (unsigned char ch : key) {
        a = (a ^ ch) * 0x100000001b3ULL;
        b = (b ^ ch) * 0x100000001b3ULL;
        b += a; // couple the lanes so they never collapse to one
    }
    a = splitmix64(a);
    b = splitmix64(b);
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b));
    return buf;
}

std::string
gitRev()
{
    if (const char *env = std::getenv("BAUVM_GIT_REV"))
        if (*env)
            return env;
    return BAUVM_GIT_REV;
}

} // namespace bauvm
