/**
 * @file
 * Policy explorer: run any workload kernel under any combination of
 * NDA knobs and print the full statistics panel — the tool you reach
 * for when exploring the security/performance design space beyond the
 * six named policies (paper §5's "design space of NDA variants").
 *
 *   ./build/examples/policy_explorer [workload] [options]
 *     --propagation=none|permissive|strict
 *     --br                 enable Bypass Restriction
 *     --load-restriction   enable load restriction
 *     --bcast-delay=N      extra NDA broadcast latency (Fig 9e)
 *     --invisispec=off|spectre|future
 *     --inorder            use the in-order baseline core
 *     --insts=N            measured instructions (default 100000)
 */

#include <cstdio>
#include <string>

#include "common/flags.hh"
#include "harness/runner.hh"
#include "harness/table_printer.hh"

using namespace nda;

int
main(int argc, char **argv)
{
    std::string workload_name = "mixed";
    SimConfig cfg;
    cfg.name = "custom";
    SampleParams sp;

    FlagTable flags(argv[0], "Run one workload under any combination "
                             "of NDA knobs.");
    flags.text("workload", "NAME", "kernel to run (default: mixed)",
               &workload_name);
    flags.choice<NdaPolicy>("--propagation", "none|permissive|strict",
                            "NDA propagation policy (default: none)",
                            {{"none", NdaPolicy::kNone},
                             {"permissive", NdaPolicy::kPermissive},
                             {"strict", NdaPolicy::kStrict}},
                            &cfg.security.propagation);
    flags.flag("--br", "enable Bypass Restriction",
               &cfg.security.bypassRestriction);
    flags.flag("--load-restriction", "enable load restriction",
               &cfg.security.loadRestriction);
    flags.number("--bcast-delay", "N",
                 "extra NDA broadcast latency in cycles (Fig 9e)",
                 &cfg.security.extraBroadcastDelay);
    flags.choice<InvisiSpecMode>("--invisispec", "off|spectre|future",
                                 "InvisiSpec mode (default: off)",
                                 {{"off", InvisiSpecMode::kOff},
                                  {"spectre", InvisiSpecMode::kSpectre},
                                  {"future", InvisiSpecMode::kFuture}},
                                 &cfg.security.invisiSpec);
    flags.flag("--inorder", "use the in-order baseline core",
               &cfg.inOrder);
    flags.number("--insts", "N", "measured instructions (default 100000)",
                 &sp.measureInsts);
    flags.parseOrExit(argc, argv);
    sp.validate();

    auto workload = makeWorkload(workload_name);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'; available:\n",
                     workload_name.c_str());
        for (const auto &w : makeAllWorkloads())
            std::fprintf(stderr, "  %-10s (%s)\n", w->name().c_str(),
                         w->specAnalog().c_str());
        return 2;
    }

    std::printf("workload : %s (substitutes %s)\n",
                workload->name().c_str(),
                workload->specAnalog().c_str());
    std::printf("security : %s%s\n", describe(cfg.security).c_str(),
                cfg.inOrder ? " (in-order core)" : "");

    const WindowStats s = runWindow(*workload, cfg, 1, sp);

    TablePrinter t({"metric", "value"});
    t.addRow({"CPI", TablePrinter::fmt(s.cpi, 3)});
    t.addRow({"IPC", TablePrinter::fmt(1.0 / s.cpi, 3)});
    t.addRow({"MLP", TablePrinter::fmt(s.mlp, 2)});
    t.addRow({"ILP", TablePrinter::fmt(s.ilp, 2)});
    t.addRow({"dispatch-to-issue (cycles)",
              TablePrinter::fmt(s.dispatchToIssue, 1)});
    t.addRow({"branch mispredict rate",
              TablePrinter::pct(s.condMispredictRate)});
    t.addRow({"commit cycles", TablePrinter::pct(s.commitFrac)});
    t.addRow({"memory-stall cycles",
              TablePrinter::pct(s.memStallFrac)});
    t.addRow({"backend-stall cycles",
              TablePrinter::pct(s.backendStallFrac)});
    t.addRow({"frontend-stall cycles",
              TablePrinter::pct(s.frontendStallFrac)});
    t.addRow({"instructions", std::to_string(s.instructions)});
    t.addRow({"cycles", std::to_string(s.cycles)});
    t.print();
    return 0;
}
