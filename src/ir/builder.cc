#include "src/ir/builder.h"

#include "src/support/diagnostics.h"

namespace hida {

void
OpBuilder::setInsertionPointToEnd(Block* block)
{
    block_ = block;
    it_ = block->ops_.end();
}

void
OpBuilder::setInsertionPointToStart(Block* block)
{
    block_ = block;
    it_ = block->ops_.begin();
}

void
OpBuilder::setInsertionPointBefore(Operation* op)
{
    HIDA_ASSERT(op->block() != nullptr, "op is detached");
    block_ = op->block();
    it_ = op->selfIt_;
}

void
OpBuilder::setInsertionPointAfter(Operation* op)
{
    HIDA_ASSERT(op->block() != nullptr, "op is detached");
    block_ = op->block();
    it_ = std::next(op->selfIt_);
}

Operation*
OpBuilder::create(Identifier name, std::vector<Value*> operands,
                  const std::vector<Type>& result_types, unsigned num_regions)
{
    Operation* op = Operation::create(name, std::move(operands),
                                      result_types, num_regions);
    return insert(op);
}

Operation*
OpBuilder::insert(Operation* op)
{
    HIDA_ASSERT(block_ != nullptr, "builder has no insertion point");
    HIDA_ASSERT(op->block() == nullptr, "op already attached");
    auto inserted = block_->ops_.insert(it_, std::unique_ptr<Operation>(op));
    op->block_ = block_;
    op->selfIt_ = inserted;
    block_->orderValid_ = false;
    // The inserted op's own cache starts dirty; the enclosing chain gained
    // a child and must re-hash.
    Operation::dirtyAncestors(block_);
    op->bumpStructureEpoch();
    return op;
}

} // namespace hida
