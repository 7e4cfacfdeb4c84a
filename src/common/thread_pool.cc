#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "common/log.hh"

namespace nda {

unsigned
defaultConcurrency()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
parallelFor(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    const std::size_t lanes = std::min<std::size_t>(jobs, n);
    if (lanes <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto drain = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                next = n; // abandon every index not yet claimed
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };

    // Reserved up front, so only a thread's own start can throw while
    // earlier threads run (a joinable std::thread must not be dropped).
    std::vector<std::thread> threads;
    threads.reserve(lanes - 1);
    for (std::size_t t = 1; t < lanes; ++t) {
        try {
            threads.emplace_back(drain);
        } catch (const std::system_error &e) {
            // Out of threads (RLIMIT_NPROC, memory): run with the lanes
            // already started. Results never depend on the lane count.
            NDA_WARN("thread pool: started %zu of %zu lanes (%s)",
                     threads.size() + 1, lanes, e.what());
            break;
        }
    }
    drain();
    for (std::thread &t : threads)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace nda
