#include "src/runner/json_writer.h"

#include <cmath>
#include <cstdio>

#include "src/sim/log.h"

namespace bauvm
{

JsonWriter::JsonWriter(bool pretty)
    : pretty_(pretty)
{
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

void
JsonWriter::comma()
{
    if (first_in_scope_.empty())
        return;
    if (first_in_scope_.back()) {
        first_in_scope_.back() = false;
    } else {
        out_ += ',';
    }
    if (pretty_) {
        out_ += '\n';
        indent();
    }
}

void
JsonWriter::indent()
{
    out_.append(2 * first_in_scope_.size(), ' ');
}

void
JsonWriter::key(const std::string &k)
{
    comma();
    out_ += '"';
    out_ += escape(k);
    out_ += pretty_ ? "\": " : "\":";
}

void
JsonWriter::raw(const std::string &s)
{
    out_ += s;
}

void
JsonWriter::beginObject()
{
    comma();
    out_ += '{';
    first_in_scope_.push_back(true);
}

void
JsonWriter::beginObject(const std::string &k)
{
    key(k);
    out_ += '{';
    first_in_scope_.push_back(true);
}

void
JsonWriter::endObject()
{
    if (first_in_scope_.empty())
        panic("JsonWriter: endObject without beginObject");
    const bool empty = first_in_scope_.back();
    first_in_scope_.pop_back();
    if (pretty_ && !empty) {
        out_ += '\n';
        indent();
    }
    out_ += '}';
}

void
JsonWriter::beginArray()
{
    comma();
    out_ += '[';
    first_in_scope_.push_back(true);
}

void
JsonWriter::beginArray(const std::string &k)
{
    key(k);
    out_ += '[';
    first_in_scope_.push_back(true);
}

void
JsonWriter::endArray()
{
    if (first_in_scope_.empty())
        panic("JsonWriter: endArray without beginArray");
    const bool empty = first_in_scope_.back();
    first_in_scope_.pop_back();
    if (pretty_ && !empty) {
        out_ += '\n';
        indent();
    }
    out_ += ']';
}

void
JsonWriter::field(const std::string &k, const std::string &v)
{
    key(k);
    raw('"' + escape(v) + '"');
}

void
JsonWriter::field(const std::string &k, const char *v)
{
    field(k, std::string(v));
}

void
JsonWriter::field(const std::string &k, bool v)
{
    key(k);
    raw(v ? "true" : "false");
}

void
JsonWriter::field(const std::string &k, std::uint64_t v)
{
    key(k);
    raw(std::to_string(v));
}

void
JsonWriter::field(const std::string &k, std::int64_t v)
{
    key(k);
    raw(std::to_string(v));
}

void
JsonWriter::field(const std::string &k, double v)
{
    key(k);
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; export as null.
        raw("null");
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(buf);
}

void
JsonWriter::rawField(const std::string &k, const std::string &raw_json)
{
    key(k);
    raw(raw_json);
}

void
JsonWriter::value(const std::string &v)
{
    comma();
    raw('"' + escape(v) + '"');
}

void
JsonWriter::value(std::uint64_t v)
{
    comma();
    raw(std::to_string(v));
}

void
JsonWriter::value(double v)
{
    comma();
    if (!std::isfinite(v)) {
        raw("null");
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(buf);
}

std::string
JsonWriter::str() const
{
    if (!first_in_scope_.empty())
        panic("JsonWriter: %zu unclosed scope(s)",
              first_in_scope_.size());
    return out_ + (pretty_ ? "\n" : "");
}

} // namespace bauvm
