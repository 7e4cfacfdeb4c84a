#include "obs/stats_schema.hh"

#include "core/core_factory.hh"
#include "dift/secret_map.hh"
#include "dift/taint_engine.hh"
#include "fuzz/differential_fuzzer.hh"
#include "harness/profiles.hh"
#include "harness/runner.hh"
#include "obs/stats_registry.hh"
#include "workloads/workload.hh"

namespace nda {

std::vector<std::string>
canonicalStatsSchema()
{
    // Any workload/seed yields the same names; registration depends
    // only on the machine's structure, never on simulated state.
    const auto workload = makeWorkload("mixed");
    const Program prog = workload->build(1);
    const SimConfig cfg = makeProfile(Profile::kStrict);
    const auto core = makeCore(prog, cfg);

    StatsRegistry reg;
    core->registerStats(reg, "core");

    TaintEngine dift{SecretMap{}};
    dift.registerStats(reg, "dift");

    FuzzResult fuzz;
    fuzz.registerStats(reg, "fuzz");

    GridStats grid;
    grid.registerStats(reg, "harness");

    return reg.names();
}

} // namespace nda
