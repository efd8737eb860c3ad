/**
 * @file
 * One name table per option enum (Policy, WorkloadScale, SharePolicy,
 * WorkloadKind): a fixed array of {value, name} pairs that the enum's
 * name function, its parse and its usage text all read, so each name
 * is spelled once.
 *
 * An enum takes part by declaring
 * `std::span<const Named<E>> nameTable(E)` in its own namespace; the
 * templates below find it by argument-dependent lookup (the argument
 * only selects the table).
 */

#ifndef BAUVM_SIM_NAME_TABLE_H_
#define BAUVM_SIM_NAME_TABLE_H_

#include <span>
#include <string>
#include <string_view>

#include "src/sim/log.h"

namespace bauvm
{

/** One entry of an enum's name table. */
template <class E>
struct Named {
    E value;
    const char *name;
};

/** @p value's name in its enum's table; panic()s if it has none. */
template <class E>
const char *
nameOf(E value)
{
    for (const Named<E> &n : nameTable(value))
        if (n.value == value)
            return n.name;
    panic("nameOf: enum value %d has no name", static_cast<int>(value));
}

/**
 * Sets @p out to the value spelled exactly @p name (case and
 * punctuation included). @return false, leaving @p out as it was, when
 * no entry of E's table has that name.
 */
template <class E>
bool
parseName(std::string_view name, E *out)
{
    for (const Named<E> &n : nameTable(E{})) {
        if (name == n.name) {
            *out = n.value;
            return true;
        }
    }
    return false;
}

/** Every name of E's table in table order, joined by '|'. */
template <class E>
std::string
joinedNames()
{
    std::string out;
    for (const Named<E> &n : nameTable(E{})) {
        if (!out.empty())
            out += '|';
        out += n.name;
    }
    return out;
}

} // namespace bauvm

#endif // BAUVM_SIM_NAME_TABLE_H_
