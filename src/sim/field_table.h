/**
 * @file
 * Field tables. Next to each plain-data config or result struct T is
 * one visitor, template <FieldsOf<T> S, class F> forEachField(S &s,
 * F &&f), that calls f(name, s.member, flags) once per member in
 * declaration order. The cell key, the declarative overrides and the
 * cell JSON writer and parser all loop over these tables, so there is
 * no second list to forget: a new member needs only its table entry,
 * and BAUVM_FIELD_TABLE_COMPLETE fails the build without one.
 */

#ifndef BAUVM_SIM_FIELD_TABLE_H_
#define BAUVM_SIM_FIELD_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

namespace bauvm
{

/** What an entry says about its member. Only leaves carry flags; a
 *  nested struct's entry passes kNoFlags and its table flags its
 *  leaves. */
enum FieldFlags : unsigned {
    kNoFlags = 0,
    kKeyed = 1u << 0,    //!< part of the cell key (canonicalConfigString)
    kKnob = 1u << 1,     //!< settable by a declarative override
    kExported = 1u << 2, //!< written to and read from the cell JSON
};

/** S is T or const T: one visitor serves both. */
template <class S, class T>
concept FieldsOf = std::is_same_v<std::remove_const_t<S>, T>;

template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

/** Leaf types the generic field loops (the cell JSON writer and
 *  parser, and the tests' field dumps) pass over because their owner
 *  serializes them itself; a type opts in by specializing this. */
template <class T>
inline constexpr bool kSerializedApart = false;

/**
 * Calls f(dotted_name, leaf, flags) for every leaf under @p s in
 * declaration order, descending into nested tables, e.g.
 * ("mem.l1.size_bytes", c.mem.l1.size_bytes, kKeyed).
 */
template <class S, class F>
void
forEachLeaf(S &s, F &&f, const std::string &prefix = {})
{
    forEachField(s, [&](const char *name, auto &member, unsigned flags) {
        if constexpr (requires { forEachField(member, f); })
            forEachLeaf(member, f, prefix + name + '.');
        else
            f(prefix + name, member, flags);
    });
}

/** A scalar leaf as text: integers and enums in decimal, bool as 0/1,
 *  doubles as %.17g (round-trips exactly), strings as themselves. */
template <class T>
std::string
fieldText(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return v;
    } else if constexpr (std::is_same_v<T, bool>) {
        return v ? "1" : "0";
    } else if constexpr (std::is_floating_point_v<T>) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    } else {
        return std::to_string(static_cast<std::uint64_t>(v));
    }
}

/** Converts to any member type, so T{AnyMember{}...} compiles with up
 *  to as many initializers as the aggregate T has members. */
struct AnyMember {
    template <class T>
    constexpr operator T() const;
};

template <class T, class... Init>
constexpr std::size_t
aggregateArity()
{
    if constexpr (requires { T{Init{}..., AnyMember{}}; })
        return aggregateArity<T, Init..., AnyMember>();
    else
        return sizeof...(Init);
}

/** T's table visits as many members as T has, at strictly increasing
 *  addresses: each member once, in declaration order. */
template <class T>
constexpr bool
fieldsComplete()
{
    T t{};
    std::size_t visited = 0;
    const void *last = nullptr;
    bool ordered = true;
    forEachField(t, [&](const char *, auto &member, unsigned) {
        ordered = ordered && (!last || last < &member);
        last = &member;
        ++visited;
    });
    return ordered && visited == aggregateArity<T>();
}

#define BAUVM_FIELD_TABLE_COMPLETE(T)                                  \
    static_assert(fieldsComplete<T>(), "forEachField(" #T ") must "    \
                  "list every member of " #T " in declaration order")

} // namespace bauvm

#endif // BAUVM_SIM_FIELD_TABLE_H_
