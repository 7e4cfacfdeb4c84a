/**
 * @file
 * Factory building the right timing core for a SimConfig.
 */

#ifndef NDASIM_CORE_CORE_FACTORY_HH
#define NDASIM_CORE_CORE_FACTORY_HH

#include <memory>

#include "core/core_base.hh"
#include "core/core_config.hh"
#include "isa/program.hh"

namespace nda {

/** Build a core for `cfg` that owns `prog` and starts in `start`,
 *  or at the program's cold start when `start` is null. */
std::unique_ptr<CoreBase> makeCore(Program prog, const SimConfig &cfg,
                                   const SimSnapshot *start = nullptr);

} // namespace nda

#endif // NDASIM_CORE_CORE_FACTORY_HH
