/**
 * @file
 * Fixed-size worker pool with a `parallelFor(n, fn)` primitive for
 * the experiment harness. Tasks are identified by a dense index so
 * callers write results into pre-sized slots — the reduction order is
 * then fixed by the caller, independent of scheduling, which is what
 * keeps parallel sweeps bit-identical to serial ones.
 *
 * A pool of concurrency 1 spawns no threads at all: `parallelFor`
 * degenerates to a plain loop on the calling thread, reproducing the
 * serial path exactly.
 */

#ifndef NDASIM_COMMON_THREAD_POOL_HH
#define NDASIM_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nda {

/** Fixed set of workers executing index-addressed task batches. */
class ThreadPool
{
  public:
    /**
     * @param concurrency total concurrent lanes, including the thread
     *        that calls parallelFor() (which participates in the
     *        work). 0 is treated as defaultConcurrency(). If the
     *        host cannot start that many threads, the pool warns once
     *        and runs with the lanes it did start.
     */
    explicit ThreadPool(unsigned concurrency);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrent lanes (worker threads + the caller). */
    unsigned concurrency() const
    {
        return static_cast<unsigned>(threads_.size()) + 1;
    }

    /**
     * Run `fn(i)` for every i in [0, n), distributing indices over
     * the pool, and block until all have finished. The caller's
     * thread works too, so a concurrency-1 pool runs everything
     * inline. If any invocation throws, the first exception observed
     * is rethrown here after the batch drains (remaining indices are
     * abandoned, not started).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /** std::thread::hardware_concurrency() with a floor of 1. */
    static unsigned defaultConcurrency();

  private:
    /** One batch of indexed tasks; lives on parallelFor's stack. */
    struct Batch {
        const std::function<void(std::size_t)> *fn = nullptr;
        std::size_t n = 0;
        std::atomic<std::size_t> next{0};     ///< next index to claim
        std::atomic<std::size_t> pending{0};  ///< indices not yet done
        unsigned active = 0;  ///< workers inside drain(); pool mutex
        std::exception_ptr error;             ///< guarded by pool mutex
    };

    void workerLoop();
    /** Claim and run indices of `b` until exhausted. */
    void drain(Batch &b);

    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable workCv_;  ///< wakes workers
    std::condition_variable doneCv_;  ///< wakes the submitter
    Batch *batch_ = nullptr;          ///< current batch, if any
    std::uint64_t generation_ = 0;    ///< bumped per batch
    bool stopping_ = false;
};

} // namespace nda

#endif // NDASIM_COMMON_THREAD_POOL_HH
