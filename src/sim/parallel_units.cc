#include "src/sim/parallel_units.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace bauvm
{

void
runUnits(std::size_t count, std::size_t threads,
         const std::function<void(std::size_t)> &unit)
{
    if (count == 0)
        return;
    if (threads <= 1 || count == 1) {
        // Serial reference path: first exception propagates directly.
        for (std::size_t i = 0; i < count; ++i)
            unit(i);
        return;
    }

    std::vector<std::exception_ptr> errors(count);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                unit(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    const std::size_t spawn = std::min(threads, count) - 1;
    std::vector<std::thread> pool;
    pool.reserve(spawn);
    for (std::size_t t = 0; t < spawn; ++t)
        pool.emplace_back(worker);
    worker(); // the calling thread is worker 0
    for (std::thread &t : pool)
        t.join();

    for (std::size_t i = 0; i < count; ++i)
        if (errors[i])
            std::rethrow_exception(errors[i]);
}

} // namespace bauvm
