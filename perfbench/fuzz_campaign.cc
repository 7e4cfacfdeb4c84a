/**
 * @file
 * fuzz_campaign: differential fuzzing with the per-cycle invariant
 * checker and DIFT attached. Each op judges a batch of consecutive
 * seeds with nda::fuzzProgram against all ten profiles, and must
 * report zero failures.
 */

#include "bench.hh"
#include "core/core_factory.hh"
#include "fuzz/differential_fuzzer.hh"
#include "isa/interpreter.hh"
#include "isa/random_program.hh"

namespace perfbench {

using namespace nda;

namespace {

constexpr std::uint64_t kBatch = 20;             ///< seeds per op
/** Seeds of the set-up batch. Set-up seeds differ with --seed, and a
 *  batch of 20 programs varies too much in cost from seed to seed. */
constexpr std::uint64_t kSetupBatch = 3 * kBatch;
constexpr std::uint64_t kOracleBudget = 10'000'000;

/** One op's seeds [first, first + count) and their verdicts. The
 *  programs are regenerated from the seeds when needed, so memory does
 *  not grow with the number of ops. */
struct Batch {
    std::uint64_t first = 0;
    std::uint64_t count = kBatch;
    double detailedInsts = 0.0;  ///< over all profiles' cores
    std::vector<SeedOutcome> outcomes;
};

std::vector<Program>
programs(const Batch &b)
{
    std::vector<Program> progs;
    for (std::uint64_t s = b.first; s < b.first + b.count; ++s)
        progs.push_back(generateRandomProgram(s, paramsForSeed(s)));
    return progs;
}

class FuzzCampaign final : public BenchWorkload
{
  public:
    explicit FuzzCampaign(std::uint64_t seed) : seed0_(seed)
    {
        params_.jobs = 1;
        params_.profiles = allProfiles();
    }

    OpResult
    setup() override
    {
        Batch b;
        b.first = seed0_;
        b.count = kSetupBatch;
        return judge(b, "set-up batch");
    }

    OpResult
    op(std::size_t i) override
    {
        ops_.emplace_back();
        ops_.back().first = seed0_ + kSetupBatch + kBatch * i;
        return judge(ops_.back(), "op " + std::to_string(i));
    }

    bool
    replay(std::size_t i, Tracer &t, Counts &counts) override
    {
        const Batch &b = ops_[i];
        const std::vector<Program> progs = programs(b);
        bool same = true;
        {
            SpanScope op(t, "op");
            for (std::size_t k = 0; k < progs.size(); ++k) {
                SeedOutcome o;
                {
                    SpanScope s(t, "fuzz.program");
                    o = fuzzProgram(progs[k], b.first + k, params_);
                }
                same = same && o.skipped == b.outcomes[k].skipped &&
                       o.hash == b.outcomes[k].hash &&
                       o.failures.empty();
                ++counts[o.skipped ? "fuzz.skipped" : "fuzz.executed"];
                counts["fuzz.failures"] += o.failures.size();
            }
        }
        // Side measurements: the same seeds re-judged without the
        // checker and without DIFT, and the cores fuzzProgram builds.
        {
            SpanScope side(t, "side");
            FuzzParams no_checker = params_;
            no_checker.checkInvariants = false;
            FuzzParams no_dift = params_;
            no_dift.compareTaint = false;
            for (std::size_t k = 0; k < progs.size(); ++k) {
                {
                    SpanScope s(t, "fuzz.no_checker");
                    fuzzProgram(progs[k], b.first + k, no_checker);
                }
                {
                    SpanScope s(t, "fuzz.no_dift");
                    fuzzProgram(progs[k], b.first + k, no_dift);
                }
                for (Profile p : params_.profiles) {
                    const SimConfig cfg = makeProfile(p);
                    SpanScope s(t, "core.make");
                    makeCore(progs[k], cfg);
                }
            }
        }
        if (!same)
            note("fuzz_campaign: replay of op %zu differs from the op", i);
        return same;
    }

    double items(std::size_t) const override { return kBatch; }

    double
    detailedInsts(std::size_t i) const override
    {
        return ops_[i].detailedInsts;
    }

    void
    layerMetrics(const Tracer &t, const Counts &counts,
                 Metrics &m) const override
    {
        const auto count = [&counts](const char *name) {
            const auto it = counts.find(name);
            return it == counts.end() ? 0.0
                                      : static_cast<double>(it->second);
        };
        const double judged = t.totalSeconds("fuzz.program");
        m.set("fuzz.seed_ms",
              ratio(judged * 1e3,
                    static_cast<double>(t.count("fuzz.program"))),
              "ms");
        m.set("fuzz.checker_share",
              1.0 - ratio(t.totalSeconds("fuzz.no_checker"), judged),
              "ratio");
        m.set("dift.share",
              1.0 - ratio(t.totalSeconds("fuzz.no_dift"), judged), "ratio");
        m.set("fuzz.executed", count("fuzz.executed"), "count");
        m.set("fuzz.skipped", count("fuzz.skipped"), "count");
        m.set("fuzz.failures", count("fuzz.failures"), "count");
        m.set("core.make_ms",
              ratio(t.totalSeconds("core.make") * 1e3,
                    static_cast<double>(t.count("core.make"))),
              "ms");
        m.set("core.make_share", ratio(t.totalSeconds("core.make"), judged),
              "ratio");
    }

  private:
    /** Generate the batch's programs, count the detailed instructions
     *  judging them takes (each profile's core commits what the
     *  interpreter oracle commits), and judge them. */
    OpResult
    judge(Batch &b, const std::string &what) const
    {
        const std::vector<Program> progs = programs(b);
        for (const Program &prog : progs) {
            Interpreter oracle(prog);
            oracle.run(kOracleBudget);
            if (oracle.halted())
                b.detailedInsts +=
                    static_cast<double>(oracle.instCount()) *
                    static_cast<double>(params_.profiles.size());
        }
        OpResult r;
        const Stopwatch watch;
        for (std::size_t k = 0; k < progs.size(); ++k)
            b.outcomes.push_back(fuzzProgram(progs[k], b.first + k, params_));
        watch.stop(r);
        std::size_t failures = 0;
        for (const SeedOutcome &o : b.outcomes) {
            failures += o.failures.size();
            for (const FuzzFailure &f : o.failures)
                note("fuzz_campaign: %s: seed %llu on %s: %s: %s",
                     what.c_str(), static_cast<unsigned long long>(f.seed),
                     profileName(f.profile), fuzzFailureKindName(f.kind),
                     f.detail.c_str());
        }
        r.ok = failures == 0;
        return r;
    }

    std::uint64_t seed0_;
    FuzzParams params_;
    std::vector<Batch> ops_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeFuzzCampaign(std::uint64_t seed, const Paths &)
{
    return std::make_unique<FuzzCampaign>(seed);
}

} // namespace perfbench
