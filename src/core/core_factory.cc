#include "core/core_factory.hh"

#include "core/inorder_core.hh"
#include "core/ooo_core.hh"

namespace nda {

std::unique_ptr<CoreBase>
makeCore(Program prog, const SimConfig &cfg, const SimSnapshot *start)
{
    if (cfg.inOrder)
        return std::make_unique<InOrderCore>(std::move(prog), cfg, start);
    return std::make_unique<OooCore>(std::move(prog), cfg, start);
}

} // namespace nda
