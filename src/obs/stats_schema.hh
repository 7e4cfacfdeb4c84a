/**
 * @file
 * The canonical stats *schema*: the sorted name list of every stat
 * the fully-featured simulator registers. Built from a Strict-profile
 * OoO core (the superset registrant: perf counters and their CPI
 * stack, cache hierarchy, predictor, IQ, LSQ, regfile) plus the DIFT
 * engine and the fuzzing campaign counters. `sim_throughput
 * --stats-schema` prints it and CI diffs it against
 * tests/golden/stats_schema.txt, so a silently dropped or renamed
 * counter fails the build instead of vanishing from every future
 * manifest.
 */

#ifndef NDASIM_OBS_STATS_SCHEMA_HH
#define NDASIM_OBS_STATS_SCHEMA_HH

#include <string>
#include <vector>

namespace nda {

/** Sorted full stat-name list ("core.*", "dift.*", "fuzz.*"). */
std::vector<std::string> canonicalStatsSchema();

} // namespace nda

#endif // NDASIM_OBS_STATS_SCHEMA_HH
