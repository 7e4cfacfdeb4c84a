#include "common/thread_pool.hh"

#include <algorithm>
#include <system_error>

#include "common/log.hh"

namespace nda {

unsigned
ThreadPool::defaultConcurrency()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned concurrency)
{
    if (concurrency == 0)
        concurrency = defaultConcurrency();
    for (unsigned i = 0; i + 1 < concurrency; ++i) {
        try {
            threads_.emplace_back([this] { workerLoop(); });
        } catch (const std::system_error &e) {
            // Out of threads (RLIMIT_NPROC, memory): run with the lanes
            // already started. Results never depend on the lane count.
            NDA_WARN("thread pool: started %u of %u lanes (%s)",
                     this->concurrency(), concurrency, e.what());
            break;
        }
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::drain(Batch &b)
{
    for (;;) {
        const std::size_t i =
            b.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= b.n)
            break;
        try {
            (*b.fn)(i);
        } catch (...) {
            // Record the first failure and abandon every index not
            // yet claimed; `pending` must account for the abandoned
            // range so the submitter's wait still terminates.
            const std::size_t old = b.next.exchange(b.n);
            std::lock_guard<std::mutex> lock(mutex_);
            if (!b.error)
                b.error = std::current_exception();
            if (old < b.n) {
                b.pending.fetch_sub(b.n - old,
                                    std::memory_order_acq_rel);
            }
        }
        b.pending.fetch_sub(1, std::memory_order_acq_rel);
    }
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        Batch *b = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock, [&] {
                return stopping_ || (batch_ && generation_ != seen);
            });
            if (stopping_)
                return;
            seen = generation_;
            b = batch_;
            // `active` is raised while the lock is held so the
            // submitter cannot observe completion (and destroy the
            // stack-allocated batch) while we still hold a pointer.
            ++b->active;
        }
        drain(*b);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --b->active;
        }
        doneCv_.notify_all();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (threads_.empty() || n == 1) {
        // Serial path: identical to the pre-pool harness.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    Batch b;
    b.fn = &fn;
    b.n = n;
    b.pending.store(n, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        batch_ = &b;
        ++generation_;
    }
    workCv_.notify_all();
    drain(b);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.wait(lock, [&] {
            return b.active == 0 &&
                   b.pending.load(std::memory_order_acquire) == 0;
        });
        batch_ = nullptr;
        if (b.error)
            std::rethrow_exception(b.error);
    }
}

} // namespace nda
