/**
 * @file
 * Pipeline viewer: trace a short run of any workload under any
 * profile and print the instruction waterfall. The NDA effect is
 * directly visible as the gap between the `c` (complete) and `b`
 * (broadcast) columns on unsafe instructions.
 *
 *   ./build/examples/pipeline_viewer [workload] [profile-index] [rows]
 */

#include <cstdio>

#include "common/flags.hh"
#include "core/ooo_core.hh"
#include "debug/pipe_trace.hh"
#include "harness/profiles.hh"
#include "workloads/workload.hh"

using namespace nda;

int
main(int argc, char **argv)
{
    std::string workload_name = "gametree";
    unsigned profile_idx = 3; // Strict
    std::size_t rows = 40;
    FlagTable flags(argv[0], "Print the pipeline waterfall of a short "
                             "traced run.");
    flags.text("workload", "NAME", "kernel to trace (default: gametree)",
               &workload_name);
    flags.number("profile-index", "N",
                 "Fig 7 column of the machine profile\n"
                 "(default: 3 = Strict)",
                 &profile_idx);
    flags.number("rows", "N", "waterfall rows to print (default: 40)",
                 &rows);
    flags.parseOrExit(argc, argv);

    auto workload = makeWorkload(workload_name);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload_name.c_str());
        return 2;
    }
    if (profile_idx >= static_cast<unsigned>(Profile::kNumProfiles) ||
        static_cast<Profile>(profile_idx) == Profile::kInOrder) {
        std::fprintf(stderr,
                     "profile index out of range (in-order core has "
                     "no pipeline to trace)\n");
        return 2;
    }
    const SimConfig cfg =
        makeProfile(static_cast<Profile>(profile_idx));

    const Program prog = workload->build(1);
    OooCore core(prog, cfg);
    // Warm up past cold caches, then attach the trace.
    core.run(20'000, ~Cycle{0});
    PipeTrace trace(2048);
    core.setRetireHook(trace.hook());
    core.run(600, ~Cycle{0});

    std::printf("workload %s on %s — %zu instructions traced\n\n",
                workload->name().c_str(), cfg.name.c_str(),
                trace.records().size());
    std::printf("%s", trace.render(0, rows).c_str());
    std::printf("\nU = instruction was NDA-unsafe at some point; the "
                "distance from 'c'\nto 'b' on those rows is the "
                "deferred tag broadcast (paper Fig 2).\n");
    return 0;
}
