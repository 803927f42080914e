#ifndef HIDA_IR_PASS_H
#define HIDA_IR_PASS_H

/**
 * @file
 * Pass and PassManager: sequential module-level transformation pipeline
 * with verification after each pass and a summed pass wall time (the
 * compile-time columns of Tables 7/8).
 */

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/builtin_ops.h"
#include "src/support/diagnostics.h"

namespace hida {

/** A module-level transformation or analysis. */
class Pass {
  public:
    explicit Pass(std::string name) : name_(std::move(name)) {}
    virtual ~Pass() = default;

    const std::string& name() const { return name_; }
    virtual void runOnModule(ModuleOp module) = 0;

    /**
     * Recoverable entry point for per-point/per-request pipelines: runs
     * the pass and reports failure as a kPassFailed Diagnostic instead
     * of killing the process. Honors the FaultSite::kPass injection
     * hook; pass subclasses that learn to fail should surface it here.
     * The module may be left half-transformed on failure — callers own
     * recovery (a sweep worker rebuilds its clone, see src/dse/sweep.h).
     */
    std::optional<Diagnostic> runChecked(ModuleOp module);

  private:
    std::string name_;
};

/** Runs a pipeline of passes over a module, verifying after each. */
class PassManager {
  public:
    void addPass(std::unique_ptr<Pass> pass)
    {
        passes_.push_back(std::move(pass));
    }

    template <typename PassT, typename... Args>
    void
    add(Args&&... args)
    {
        passes_.push_back(std::make_unique<PassT>(std::forward<Args>(args)...));
    }

    /** Run every pass in order; panics if verification fails. */
    void run(ModuleOp module);

    /** Wall-clock seconds the passes of the last run took, summed. */
    double totalSeconds() const { return totalSeconds_; }

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
    double totalSeconds_ = 0.0;
};

} // namespace hida

#endif // HIDA_IR_PASS_H
