#ifndef HIDA_IR_BUILTIN_OPS_H
#define HIDA_IR_BUILTIN_OPS_H

/**
 * @file
 * Builtin structural ops: the top-level module and functions. A module owns
 * a single region/block containing functions; a function's entry block
 * arguments are its parameters.
 */

#include <memory>
#include <string>
#include <vector>

#include "src/ir/builder.h"
#include "src/ir/operation.h"

namespace hida {

/** Top-level container op ("builtin.module"). */
class ModuleOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "builtin.module";
    using OpWrapper::OpWrapper;

    /** Create a detached module (see OwnedModule for RAII ownership). */
    static ModuleOp create();

    Block* body() const { return op_->body(); }
    /** Find a function by symbol name; null wrapper when absent. */
    class FuncOp lookupFunc(const std::string& name) const;
};

/** RAII owner for a top-level (block-less) module. */
class OwnedModule {
  public:
    OwnedModule();
    ~OwnedModule();
    OwnedModule(OwnedModule&&) noexcept;
    OwnedModule& operator=(OwnedModule&&) noexcept;
    OwnedModule(const OwnedModule&) = delete;
    OwnedModule& operator=(const OwnedModule&) = delete;

    /**
     * Deep-clone @p module into a freshly owned tree (the sharded-DSE
     * worker setup: one private copy per worker). A module is closed
     * under its own values, so cloning only *reads* the prototype —
     * several workers may clone the same prototype concurrently. Type
     * and attribute storage is shared with the prototype (immutable
     * apart from atomic hash caches); operations, values, and use lists
     * are fully private to the clone.
     */
    static OwnedModule clone(ModuleOp module);

    ModuleOp get() const { return ModuleOp(op_); }
    ModuleOp operator*() const { return get(); }

  private:
    explicit OwnedModule(Operation* op) : op_(op) {}

    Operation* op_ = nullptr;
};

/** Callable function op ("func.func") with a single-block body. */
class FuncOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "func.func";
    using OpWrapper::OpWrapper;

    static FuncOp create(OpBuilder& builder, const std::string& sym_name,
                         const std::vector<Type>& arg_types);

    std::string symName() const { return op_->attr(symNameId()).asString(); }
    static Identifier symNameId()
    {
        static const Identifier id = Identifier::get("sym_name");
        return id;
    }
    Block* body() const { return op_->body(); }
    unsigned numArguments() const { return op_->body()->numArguments(); }
    Value* argument(unsigned i) const { return op_->body()->argument(i); }
};

/** Function terminator ("func.return"). */
class ReturnOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "func.return";
    using OpWrapper::OpWrapper;

    static ReturnOp create(OpBuilder& builder,
                           std::vector<Value*> operands = {});
};

/** Register builtin/func op metadata. */
void registerBuiltinDialect();

} // namespace hida

#endif // HIDA_IR_BUILTIN_OPS_H
