#include "src/ir/pass.h"

#include <chrono>

#include "src/ir/verifier.h"
#include "src/support/diagnostics.h"
#include "src/support/fault_inject.h"

namespace hida {

std::optional<Diagnostic>
Pass::runChecked(ModuleOp module)
{
    // Check the verdict before building the site string: the disabled
    // path runs once per sweep point and must stay allocation-free.
    if (shouldInjectFault(FaultSite::kPass))
        return maybeInjectFault(FaultSite::kPass,
                                strCat("pass '", name_, "'"));
    runOnModule(module);
    return std::nullopt;
}

void
PassManager::run(ModuleOp module)
{
    totalSeconds_ = 0.0;
    for (const auto& pass : passes_) {
        auto start = std::chrono::steady_clock::now();
        pass->runOnModule(module);
        auto end = std::chrono::steady_clock::now();
        totalSeconds_ += std::chrono::duration<double>(end - start).count();
        if (auto error = verify(module.op()))
            HIDA_PANIC("verification failed after pass '", pass->name(),
                       "': ", *error);
    }
}

} // namespace hida
