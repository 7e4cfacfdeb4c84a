/**
 * @file
 * `parallelFor(jobs, n, fn)`, the experiment harness's one parallel
 * loop. Tasks are identified by a dense index so callers write
 * results into pre-sized slots — the reduction order is then fixed by
 * the caller, independent of scheduling, which is what keeps parallel
 * sweeps bit-identical to serial ones.
 *
 * One lane spawns no threads at all: the loop runs on the calling
 * thread, reproducing the serial path exactly.
 */

#ifndef NDASIM_COMMON_THREAD_POOL_HH
#define NDASIM_COMMON_THREAD_POOL_HH

#include <cstddef>
#include <functional>

namespace nda {

/**
 * Run `fn(i)` for every i in [0, n) on min(jobs, n) lanes (at least
 * one): the calling thread plus threads started for this call and
 * joined before it returns. If the host cannot start them all, it
 * warns and runs on the lanes it did start. If any invocation throws,
 * the first exception is rethrown here once every lane has stopped
 * (indices not yet claimed are abandoned, not started).
 */
void parallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/** std::thread::hardware_concurrency() with a floor of 1. */
unsigned defaultConcurrency();

} // namespace nda

#endif // NDASIM_COMMON_THREAD_POOL_HH
