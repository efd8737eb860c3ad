/**
 * @file
 * In-memory span log for the traced benchmark run.
 *
 * A span is one call perfbench makes into a simulator layer: a name,
 * a start and end on the steady clock, the span that caused it, and
 * the id of the sweep cell it belongs to. Spans are appended under a
 * mutex (a multi-tenant cell opens spans from several unit threads)
 * and are only read after the traced pass has joined every thread.
 */

#ifndef PERFBENCH_CPP_SPANS_H_
#define PERFBENCH_CPP_SPANS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Parent index of a root span. */
constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

struct Span {
    std::string name;
    std::uint64_t cell = 0;      //!< shared by every span of one cell
    std::size_t parent = kNoParent;
    double start_s = 0.0;        //!< seconds since the log's epoch
    double end_s = 0.0;

    double seconds() const { return end_s - start_s; }
};

class SpanLog
{
  public:
    SpanLog();

    /** Opens a span now; @return its index, to close() it or to pass
     *  as the parent of nested spans. */
    std::size_t open(std::string name, std::uint64_t cell,
                     std::size_t parent);
    void close(std::size_t index);

    /** Every span recorded so far. Not safe while spans are opened. */
    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of the durations of every span called @p name. */
    double totalSeconds(const std::string &name) const;

    /**
     * Sum of the self time of every span called @p name: its duration
     * minus the part of its interval that its children cover.
     */
    double selfSeconds(const std::string &name) const;

    /** Part of span @p index's interval its children cover, in
     *  [0, 1]; 0 for an empty span. */
    double childCoverage(std::size_t index) const;

    /** Writes every span as JSON; @return false on an I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    /** Seconds of span @p index's interval covered by its children
     *  (overlapping children are counted once). */
    double coveredSeconds(std::size_t index) const;

    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Opens a span on construction and closes it on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, std::string name, std::uint64_t cell,
              std::size_t parent = kNoParent)
        : log_(log), index_(log.open(std::move(name), cell, parent))
    {
    }
    ~SpanScope() { log_.close(index_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::size_t index() const { return index_; }

  private:
    SpanLog &log_;
    std::size_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_CPP_SPANS_H_
