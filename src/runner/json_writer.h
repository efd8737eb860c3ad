/**
 * @file
 * A minimal dependency-free JSON emitter for the sweep export.
 *
 * Write-only and streaming: callers open objects/arrays, add keyed or
 * plain values, and take the final string. The writer inserts commas
 * and indentation; it does not validate that the caller closes every
 * scope (str() asserts balance via panic()).
 */

#ifndef BAUVM_RUNNER_JSON_WRITER_H_
#define BAUVM_RUNNER_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bauvm
{

class JsonWriter
{
  public:
    /** @param pretty  two-space indentation and newlines when true. */
    explicit JsonWriter(bool pretty = true);

    // Containers. The key overloads are for members of an object.
    void beginObject();
    void beginObject(const std::string &key);
    void endObject();
    void beginArray();
    void beginArray(const std::string &key);
    void endArray();

    // Object members.
    void field(const std::string &key, const std::string &value);
    void field(const std::string &key, const char *value);
    void field(const std::string &key, bool value);
    void field(const std::string &key, std::uint64_t value);
    void field(const std::string &key, std::int64_t value);
    void field(const std::string &key, double value);

    // Bare array elements.
    void value(const std::string &v);
    void value(std::uint64_t v);
    void value(double v);

    /**
     * Splices @p raw_json — an already-serialized JSON value — as the
     * member @p key. The caller owns its validity; commas/indentation
     * around it are still managed. Used to embed compact sub-documents
     * (a cached cell, a merged sweep) without re-parsing.
     */
    void rawField(const std::string &key, const std::string &raw_json);

    /** Finished document. panic()s if scopes are unbalanced. */
    std::string str() const;

    /** JSON string escaping (quotes not included). */
    static std::string escape(const std::string &s);

  private:
    void comma();
    void indent();
    void key(const std::string &k);
    void raw(const std::string &s);

    std::string out_;
    std::vector<bool> first_in_scope_;
    bool pretty_;
};

} // namespace bauvm

#endif // BAUVM_RUNNER_JSON_WRITER_H_
