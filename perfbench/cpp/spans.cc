#include "perfbench/cpp/spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/runner/json_writer.h"

namespace perfbench
{

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

std::size_t
SpanLog::open(std::string name, std::uint64_t cell, std::size_t parent)
{
    const double now = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - epoch_)
                           .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), cell, parent, now, now});
    return spans_.size() - 1;
}

void
SpanLog::close(std::size_t index)
{
    const double now = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - epoch_)
                           .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].end_s = now;
}

double
SpanLog::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            total += s.seconds();
    return total;
}

double
SpanLog::coveredSeconds(std::size_t index) const
{
    const Span &parent = spans_[index];
    std::vector<std::pair<double, double>> children;
    for (const Span &s : spans_) {
        if (s.parent == index)
            children.emplace_back(std::max(s.start_s, parent.start_s),
                                  std::min(s.end_s, parent.end_s));
    }
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    double reach = parent.start_s;
    for (const auto &[start, end] : children) {
        const double from = std::max(start, reach);
        if (end > from) {
            covered += end - from;
            reach = end;
        }
    }
    return covered;
}

double
SpanLog::selfSeconds(const std::string &name) const
{
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name)
            total += spans_[i].seconds() - coveredSeconds(i);
    return total;
}

double
SpanLog::childCoverage(std::size_t index) const
{
    const double span = spans_[index].seconds();
    return span > 0.0 ? coveredSeconds(index) / span : 0.0;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    bauvm::JsonWriter w(true);
    w.beginObject();
    w.field("schema", "perfbench.spans/1");
    w.beginArray("spans");
    for (const Span &s : spans_) {
        w.beginObject();
        w.field("name", s.name);
        w.field("cell", s.cell);
        w.field("parent",
                s.parent == kNoParent
                    ? static_cast<std::int64_t>(-1)
                    : static_cast<std::int64_t>(s.parent));
        w.field("start_s", s.start_s);
        w.field("end_s", s.end_s);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = w.str();
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
