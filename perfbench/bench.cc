#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <numeric>

#include <time.h>

namespace perfbench {

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    for (Metric &m : all_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    all_.push_back({name, value, unit});
}

const Metric *
Metrics::find(const std::string &name) const
{
    for (const Metric &m : all_) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

std::vector<std::size_t>
BenchWorkload::replayOps(std::size_t n) const
{
    std::vector<std::size_t> ops;
    for (std::size_t i = 0; i < std::min<std::size_t>(n, 2); ++i)
        ops.push_back(i);
    return ops;
}

namespace {

using Factory = std::unique_ptr<BenchWorkload> (*)(std::uint64_t,
                                                    const Paths &);

const std::vector<std::pair<std::string, Factory>> kWorkloads = {
    {"fig07_golden", makeFig07Golden},
    {"corpus_service", makeCorpusService},
    {"fuzz_campaign", makeFuzzCampaign},
};

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &w : kWorkloads)
        names.push_back(w.first);
    return names;
}

std::unique_ptr<BenchWorkload>
makeBenchWorkload(const std::string &name, std::uint64_t seed,
                  const Paths &paths)
{
    for (const auto &[known, make] : kWorkloads) {
        if (name == known)
            return make(seed, paths);
    }
    return nullptr;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

void
note(const char *fmt, ...)
{
    std::fputs("perfbench: ", stderr);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
}

} // namespace perfbench
