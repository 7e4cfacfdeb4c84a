/**
 * @file
 * Regenerates paper Table 3: the simulated machine configuration.
 */

#include <cstdio>

#include "bench_common.hh"
#include "harness/table_printer.hh"

using namespace nda;

int
main(int argc, char **argv)
{
    SampleParams sp;
    BenchObs obs;
    FlagTable flags(argv[0], "Table 3: the simulated machine "
                             "configuration.");
    addSampleFlags(flags, sp);
    obs.addFlags(flags);
    flags.parseOrExit(argc, argv);
    sp.validate();

    printBanner("Table 3: simulation configuration");
    std::printf("%s\n", configTable(makeProfile(Profile::kOoo)).c_str());
    std::printf(
        "Paper values: x86-64 @ 2.0 GHz; 8-issue OoO, no SMT, 32 LQ,\n"
        "32 SQ, 192 ROB, 4096 BTB, 16 RAS; in-order = "
        "TimingSimpleCPU;\nL1-I/L1-D 32 kB 8-way 4-cycle RT, 1 port; "
        "L2 2 MB 16-way\n40-cycle RT; DRAM 50 ns.\n");

    emitBenchObs(obs, "table03_config", makeProfile(Profile::kOoo), sp);
    return 0;
}
