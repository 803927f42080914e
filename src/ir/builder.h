#ifndef HIDA_IR_BUILDER_H
#define HIDA_IR_BUILDER_H

/**
 * @file
 * OpBuilder: creates operations at a maintained insertion point, mirroring
 * mlir::OpBuilder. Dialect op classes provide typed `create` helpers that
 * call into this builder.
 */

#include <vector>

#include "src/ir/operation.h"

namespace hida {

/** Builder with an insertion point inside a block. */
class OpBuilder {
  public:
    OpBuilder() = default;
    /** Build with the insertion point at the end of @p block. */
    explicit OpBuilder(Block* block) { setInsertionPointToEnd(block); }

    /** @name Insertion point management. @{ */
    void setInsertionPointToEnd(Block* block);
    void setInsertionPointToStart(Block* block);
    void setInsertionPointBefore(Operation* op);
    void setInsertionPointAfter(Operation* op);
    Block* insertionBlock() const { return block_; }
    /** @} */

    /** RAII guard restoring the previous insertion point. */
    class InsertionGuard {
      public:
        explicit InsertionGuard(OpBuilder& builder)
            : builder_(builder), savedBlock_(builder.block_),
              savedIt_(builder.it_)
        {}
        ~InsertionGuard()
        {
            builder_.block_ = savedBlock_;
            builder_.it_ = savedIt_;
        }

      private:
        OpBuilder& builder_;
        Block* savedBlock_;
        Block::OpList::iterator savedIt_;
    };

    /**
     * Create an operation at the insertion point.
     * @param name interned op name; wrappers pass opNameId<OpT>().
     * @param operands SSA operands.
     * @param result_types result types (one Value per entry).
     * @param num_regions number of (initially empty) regions.
     */
    Operation* create(Identifier name, std::vector<Value*> operands = {},
                      const std::vector<Type>& result_types = {},
                      unsigned num_regions = 0);

    /**
     * Insert a previously created/cloned detached operation. Dirties the
     * cached subtree fingerprints of the enclosing ancestor chain (see
     * Operation::subtreeHash).
     */
    Operation* insert(Operation* op);

  private:
    Block* block_ = nullptr;
    Block::OpList::iterator it_;
};

} // namespace hida

#endif // HIDA_IR_BUILDER_H
