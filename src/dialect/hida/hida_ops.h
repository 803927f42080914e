#ifndef HIDA_DIALECT_HIDA_HIDA_OPS_H
#define HIDA_DIALECT_HIDA_HIDA_OPS_H

/**
 * @file
 * HIDA-IR dialect (Table 3 of the paper).
 *
 * Functional dataflow: `hida.dispatch` launches multiple `hida.task`
 * operations; both own *transparent* regions that share the enclosing
 * context, so tasks can reference tensors/buffers defined anywhere above —
 * which is what makes fusing/splitting tasks cheap (Section 5.1).
 *
 * Structural dataflow: `hida.schedule` / `hida.node` are the isolated
 * counterparts; every external value must be passed as an explicit argument
 * with a recorded memory effect, which decouples inter-node from intra-node
 * optimization (Section 5.2). `hida.buffer` carries ping-pong stages and
 * partition/layout attributes; `hida.stream` is a FIFO channel; `hida.port`
 * / `hida.bundle` / `hida.pack` model the module's external interfaces.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/builder.h"
#include "src/ir/operation.h"

namespace hida {

//===----------------------------------------------------------------------===//
// Functional dataflow
//===----------------------------------------------------------------------===//

/** Region terminator yielding task/dispatch results ("hida.yield"). */
class YieldOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "hida.yield";
    using OpWrapper::OpWrapper;

    static YieldOp create(OpBuilder& builder,
                          std::vector<Value*> operands = {});
};

/** Launches the tasks in its transparent region ("hida.dispatch"). */
class DispatchOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "hida.dispatch";
    using OpWrapper::OpWrapper;

    static DispatchOp create(OpBuilder& builder,
                             const std::vector<Type>& result_types = {});

    Block* body() const { return op_->body(); }
    /** Direct child tasks in program order. */
    std::vector<class TaskOp> tasks() const;
};

/** A coarse-grained dataflow task with a transparent region ("hida.task"). */
class TaskOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "hida.task";
    using OpWrapper::OpWrapper;

    static TaskOp create(OpBuilder& builder,
                         const std::vector<Type>& result_types = {});

    Block* body() const { return op_->body(); }
    DispatchOp parentDispatch() const;

    /** Cached interned key of the "role" string the nn lowering writes. */
    static Identifier roleId()
    {
        static const Identifier id = Identifier::get("role");
        return id;
    }
};

//===----------------------------------------------------------------------===//
// Structural dataflow
//===----------------------------------------------------------------------===//

/** Memory effect a node has on one of its arguments (Figure 4). */
enum class MemoryEffect : int64_t {
    kNone = 0,      ///< Scalar / parameter argument.
    kRead = 1,      ///< Read-only buffer/stream argument.
    kWrite = 2,     ///< Write-only buffer/stream argument.
    kReadWrite = 3, ///< Read-write buffer argument.
};

/** An isolated region with multiple nodes ("hida.schedule"). */
class ScheduleOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "hida.schedule";
    using OpWrapper::OpWrapper;

    /** Create with live-in operands mirrored as block arguments. */
    static ScheduleOp create(OpBuilder& builder, std::vector<Value*> live_ins);

    Block* body() const { return op_->body(); }
    std::vector<class NodeOp> nodes() const;
};

/**
 * An isolated dataflow node ("hida.node"). Operands are buffers, streams
 * and scalars; the "effects" attribute records one MemoryEffect per
 * operand, avoiding repeated inter-node effect analysis (Section 5.2).
 */
class NodeOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "hida.node";
    using OpWrapper::OpWrapper;

    static NodeOp create(OpBuilder& builder, std::vector<Value*> operands,
                         const std::vector<MemoryEffect>& effects,
                         const std::string& label = "node");

    Block* body() const { return op_->body(); }
    std::string label() const;

    MemoryEffect effect(unsigned operand_index) const;
    void setEffect(unsigned operand_index, MemoryEffect effect);
    std::vector<MemoryEffect> effects() const;

    /** Block argument mirroring operand @p i. */
    Value* innerArg(unsigned i) const { return op_->body()->argument(i); }

    /** Append an operand + mirrored block argument; returns the new arg. */
    Value* appendArgument(Value* operand, MemoryEffect effect);

    /** Remove operand @p i and its block argument (which must be unused). */
    void removeArgument(unsigned i);

    bool reads(unsigned i) const;
    bool writes(unsigned i) const;

    /** Cached interned key of the per-operand "effects" array. */
    static Identifier effectsId()
    {
        static const Identifier id = Identifier::get("effects");
        return id;
    }
    /** Cached interned key of the "label" string. */
    static Identifier labelId()
    {
        static const Identifier id = Identifier::get("label");
        return id;
    }
    /** @name Cached keys of parallelize's bookkeeping on a node. @{ */
    // clang-format off
    static Identifier parallelFactorId() { static const Identifier id = Identifier::get("parallel_factor"); return id; }
    static Identifier parallelizedId() { static const Identifier id = Identifier::get("parallelized"); return id; }
    // clang-format on
    /** @} */

    /** Operand indices of buffers/streams this node writes. */
    std::vector<unsigned> writtenOperandIndices() const;
    std::vector<unsigned> readOperandIndices() const;
};

/**
 * Memory-mapped on-chip buffer with ping-pong semantics ("hida.buffer").
 *
 * Attributes (Figure 4 syntax):
 *  - "stages": number of ping-pong stages (>= 2 enables overlap).
 *  - "partition_fashions": per-dim PartitionFashion.
 *  - "partition_factors": per-dim bank counts.
 *  - "tile_factors": per-dim data-layout tiling.
 *  - "vector_factor": elements packed per memory word.
 *  - "mem_kind": implementation hint, e.g. "bram_t2p", "uram", "lutram".
 *  - "constant": unit attr on a buffer lowered from memref.weight, whose
 *    contents derive from its "seed" (WeightOp::seedId()).
 */
class BufferOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "hida.buffer";
    using OpWrapper::OpWrapper;

    static BufferOp create(OpBuilder& builder, Type memref_type,
                           int64_t stages = 1, const std::string& hint = "buf");

    Type type() const { return op_->result(0)->type(); }
    int64_t stages() const { return op_->intAttrOr(stagesId(), 1); }
    void setStages(int64_t stages) { op_->setIntAttr(stagesId(), stages); }

    std::vector<int64_t> partitionFactors() const;
    /** "partition_factors" read in place, or null when absent (every
     * factor 1). Dims past the list's end have factor 1. */
    const std::vector<Attribute>* partitionFactorList() const;
    void setPartition(const std::vector<int64_t>& fashions,
                      const std::vector<int64_t>& factors);
    std::vector<int64_t> partitionFashions() const;
    /** Total bank count = product of partition factors. */
    int64_t bankCount() const;

    std::vector<int64_t> tileFactors() const;
    void setTileFactors(const std::vector<int64_t>& factors);
    int64_t vectorFactor() const
    {
        return op_->intAttrOr(vectorFactorId(), 1);
    }

    std::string memKind() const;
    void setMemKind(const std::string& kind);

    bool isExternal() const
    {
        return type().memorySpace() == MemorySpace::kExternal;
    }

    /** Soft-FIFO depth written by dataflow balancing (Section 6.4.2);
     * raises the channel capacity above the ping-pong stage count. */
    int64_t softFifoDepth() const
    {
        return op_->intAttrOr(softFifoDepthId(), 1);
    }
    void setSoftFifoDepth(int64_t depth)
    {
        op_->setIntAttr(softFifoDepthId(), depth);
    }

    /** @name Cached interned attribute keys (hot on the DSE path). @{ */
    // clang-format off
    static Identifier stagesId() { static const Identifier id = Identifier::get("stages"); return id; }
    static Identifier softFifoDepthId() { static const Identifier id = Identifier::get("soft_fifo_depth"); return id; }
    static Identifier partitionFactorsId() { static const Identifier id = Identifier::get("partition_factors"); return id; }
    static Identifier partitionFashionsId() { static const Identifier id = Identifier::get("partition_fashions"); return id; }
    static Identifier tileFactorsId() { static const Identifier id = Identifier::get("tile_factors"); return id; }
    static Identifier vectorFactorId() { static const Identifier id = Identifier::get("vector_factor"); return id; }
    static Identifier memKindId() { static const Identifier id = Identifier::get("mem_kind"); return id; }
    static Identifier constantId() { static const Identifier id = Identifier::get("constant"); return id; }
    // clang-format on
    /** @} */
};

/** Partition fashion encoding for "partition_fashions". */
enum class PartitionFashion : int64_t { kNone = 0, kCyclic = 1, kBlock = 2 };

/** FIFO stream channel ("hida.stream"); result type carries the depth. */
class StreamOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "hida.stream";
    using OpWrapper::OpWrapper;

    static StreamOp create(OpBuilder& builder, Type element, int64_t depth,
                           const std::string& hint = "stream");

    Type elementType() const { return op_->result(0)->type().elementType(); }
    int64_t depth() const { return op_->result(0)->type().streamDepth(); }
    /** True for 1-bit token channels used by elastic execution. */
    bool isToken() const { return elementType().isToken(); }
};

/** Blocking stream read ("hida.stream_read"). */
class StreamReadOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "hida.stream_read";
    using OpWrapper::OpWrapper;

    static StreamReadOp create(OpBuilder& builder, Value* stream);
};

/** Blocking stream write ("hida.stream_write"): operands = value, stream. */
class StreamWriteOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "hida.stream_write";
    using OpWrapper::OpWrapper;

    static StreamWriteOp create(OpBuilder& builder, Value* value,
                                Value* stream);
};

/** External interface port ("hida.port"): kind attr "memory" or "stream". */
class PortOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "hida.port";
    using OpWrapper::OpWrapper;

    static PortOp create(OpBuilder& builder, Type type,
                         const std::string& kind, int64_t latency_cycles);

    /** Latency of a port that carries no "latency": an AXI round trip. */
    static constexpr int64_t kDefaultLatency = 64;

    std::string kind() const { return op_->attr(kindId()).asString(); }
    /** Round-trip latency of the interface in cycles (e.g. AXI ~ tens). */
    int64_t latency() const
    {
        return op_->intAttrOr(latencyId(), kDefaultLatency);
    }

    // clang-format off
    static Identifier kindId() { static const Identifier id = Identifier::get("kind"); return id; }
    static Identifier latencyId() { static const Identifier id = Identifier::get("latency"); return id; }
    // clang-format on
};

/** Named group of ports ("hida.bundle"). */
class BundleOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "hida.bundle";
    using OpWrapper::OpWrapper;

    static BundleOp create(OpBuilder& builder, const std::string& name,
                           std::vector<Value*> ports);

    /** Cached interned key of "bundle_name", on a bundle and its ports. */
    static Identifier bundleNameId()
    {
        static const Identifier id = Identifier::get("bundle_name");
        return id;
    }
};

/** Packs an external memory block into a port ("hida.pack"). */
class PackOp : public OpWrapper {
  public:
    static constexpr const char* kOpName = "hida.pack";
    using OpWrapper::OpWrapper;

    static PackOp create(OpBuilder& builder, Value* memref, Value* port);
};

/** Register HIDA op metadata (both Functional and Structural). */
void registerHidaDialect();

} // namespace hida

#endif // HIDA_DIALECT_HIDA_HIDA_OPS_H
