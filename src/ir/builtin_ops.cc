#include "src/ir/builtin_ops.h"

#include "src/ir/registry.h"
#include "src/support/diagnostics.h"

namespace hida {

ModuleOp
ModuleOp::create()
{
    Operation* op = Operation::create(opNameId<ModuleOp>(), {}, {}, 1);
    op->body();
    return ModuleOp(op);
}

FuncOp
ModuleOp::lookupFunc(const std::string& name) const
{
    for (Operation* op : *body()) {
        if (auto func = dynCast<FuncOp>(op))
            if (func.symName() == name)
                return func;
    }
    return FuncOp(nullptr);
}

OwnedModule::OwnedModule() : op_(ModuleOp::create().op()) {}

OwnedModule
OwnedModule::clone(ModuleOp module)
{
    ValueMapping mapping;
    return OwnedModule(module.op()->clone(mapping));
}

OwnedModule::~OwnedModule()
{
    if (op_ != nullptr) {
        op_->dropAllReferences();
        delete op_;
    }
}

OwnedModule::OwnedModule(OwnedModule&& other) noexcept : op_(other.op_)
{
    other.op_ = nullptr;
}

OwnedModule&
OwnedModule::operator=(OwnedModule&& other) noexcept
{
    if (this != &other) {
        if (op_ != nullptr) {
            op_->dropAllReferences();
            delete op_;
        }
        op_ = other.op_;
        other.op_ = nullptr;
    }
    return *this;
}

FuncOp
FuncOp::create(OpBuilder& builder, const std::string& sym_name,
               const std::vector<Type>& arg_types)
{
    Operation* op = builder.create(opNameId<FuncOp>(), {}, {}, 1);
    op->setAttr(symNameId(), Attribute::string(sym_name));
    Block* body = op->body();
    for (unsigned i = 0; i < arg_types.size(); ++i)
        body->addArgument(arg_types[i], strCat("arg", i));
    return FuncOp(op);
}

ReturnOp
ReturnOp::create(OpBuilder& builder, std::vector<Value*> operands)
{
    return ReturnOp(builder.create(opNameId<ReturnOp>(), std::move(operands)));
}

void
registerBuiltinDialect()
{
    auto& registry = OpRegistry::instance();
    registry.registerOp(ModuleOp::kOpName,
                        OpInfo{.isolatedFromAbove = true,
                               .isTerminator = false,
                               .verify = nullptr});
    registry.registerOp(
        FuncOp::kOpName,
        OpInfo{.isolatedFromAbove = true,
               .isTerminator = false,
               .verify = [](Operation* op) -> std::optional<std::string> {
                   if (op->findAttr(FuncOp::symNameId()) == nullptr)
                       return "func.func requires a sym_name attr";
                   return std::nullopt;
               }});
    registry.registerOp(ReturnOp::kOpName,
                        OpInfo{.isolatedFromAbove = false,
                               .isTerminator = true,
                               .verify = nullptr});
}

} // namespace hida
