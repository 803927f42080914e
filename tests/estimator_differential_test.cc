/**
 * @file
 * Warm-vs-cold differential fuzzing of the QoR estimator.
 *
 * The estimator stacks three caches (per-node memo entries keyed by
 * directive fingerprints, dirty-bit subtree hashes, and the per-schedule
 * graph/simulation skeleton). A stale entry in any of them is silent:
 * estimates stay plausible, nothing crashes, and a DSE sweep quietly
 * optimizes the wrong design. This harness attacks exactly that failure
 * mode: a seeded xorshift fuzzer applies thousands of random directive
 * mutations (unroll / pipeline / array partition / ping-pong stages /
 * soft-FIFO depth, plus occasional structural op moves and insert/erase
 * pairs) to compiled LeNet and PolyBench modules and, after every single
 * mutation, asserts that a *warm* estimator — one that has seen every
 * previous directive point — returns results identical to a freshly
 * constructed cold estimator. On the first divergence the full mutation
 * trace is printed so the failing sequence can be replayed.
 *
 * A second harness fuzzes the per-point directive path a sweep runs
 * before estimating: applyPoint's per-thread loop bindings and one reused
 * ArrayPartition instance, both cached on the structure epoch. After
 * every random grid point or IR edit (loop tags, layer_seq, index maps,
 * node effects, direct unroll/bound writes, structural inserts, erases
 * and moves) the warm module must hash equal to a fresh clone driven
 * through an uncached reference walk and a fresh pass.
 *
 * Determinism: the xorshift seed is fixed per test, so a failure here is
 * reproducible bit for bit on any machine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/arith/arith_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/driver/driver.h"
#include "src/dse/grid.h"
#include "src/estimator/qor.h"
#include "src/ir/builder.h"
#include "src/ir/registry.h"
#include "src/models/dnn_models.h"
#include "src/models/polybench.h"
#include "src/support/utils.h"
#include "src/transforms/passes.h"

namespace hida {
namespace {

/** xorshift64* — tiny, seedable, and identical on every platform. */
struct XorShift {
    uint64_t state;
    explicit XorShift(uint64_t seed) : state(seed ? seed : 0x9e3779b9ULL) {}

    uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545F4914F6CDD1DULL;
    }

    uint64_t below(uint64_t n) { return n ? next() % n : 0; }
};

/** One fuzzing campaign over a compiled module. */
class DifferentialFuzzer {
  public:
    DifferentialFuzzer(ModuleOp module, TargetDevice device, uint64_t seed)
        : module_(module), device_(device), rng_(seed), warm_(device)
    {
        for (Operation* op : module.body()->ops())
            if (auto f = dynCast<FuncOp>(op))
                func_ = f;
        collectTargets();
    }

    /** Apply @p count mutations, checking warm == cold after each. */
    void
    run(int count)
    {
        ASSERT_TRUE(func_) << "module has no function";
        checkOnce("initial state");  // prime the warm estimator
        for (int i = 0; i < count && !::testing::Test::HasFailure(); ++i) {
            std::string what = mutate();
            checkOnce(what);
        }
    }

  private:
    void
    collectTargets()
    {
        module_.op()->walk([&](Operation* op) {
            if (isa<ForOp>(op))
                loops_.push_back(op);
            else if (isa<BufferOp>(op))
                buffers_.push_back(op);
            else if (isa<NodeOp>(op) && op->numOperands() > 0)
                nodes_.push_back(op);
        });
    }

    /** Apply one random mutation; returns its trace description. */
    std::string
    mutate()
    {
        std::ostringstream desc;
        // ~1 in 8 mutations is structural: the schedule skeleton and the
        // fingerprint plans must rebuild, everything else must
        // revalidate.
        if (rng_.below(8) == 0 && !buffers_.empty()) {
            mutateStructure(desc);
            if (desc.str().empty())
                desc << "no-op";
            return desc.str();
        }
        switch (rng_.below(6)) {
        case 0: {  // unroll
            if (loops_.empty())
                break;
            Operation* loop = loops_[rng_.below(loops_.size())];
            int64_t factor = int64_t{1} << rng_.below(4);
            if (factor == 1 && rng_.below(2) == 0) {
                loop->removeAttr(ForOp::unrollId());
                desc << "clear unroll";
            } else {
                ForOp(loop).setUnrollFactor(factor);
                desc << "unroll=" << factor;
            }
            break;
        }
        case 1: {  // pipeline toggle
            if (loops_.empty())
                break;
            Operation* loop = loops_[rng_.below(loops_.size())];
            if (loop->hasAttr(ForOp::pipelineId())) {
                loop->removeAttr(ForOp::pipelineId());
                desc << "clear pipeline";
            } else {
                ForOp(loop).setPipelined();
                desc << "pipeline";
            }
            break;
        }
        case 2: {  // array partition
            if (buffers_.empty())
                break;
            BufferOp buffer(buffers_[rng_.below(buffers_.size())]);
            const auto& shape = buffer.type().shape();
            std::vector<int64_t> fashions, factors;
            for (int64_t dim : shape) {
                int64_t factor = int64_t{1} << rng_.below(3);
                if (dim % factor != 0)
                    factor = 1;
                factors.push_back(factor);
                fashions.push_back(
                    static_cast<int64_t>(PartitionFashion::kCyclic));
            }
            buffer.setPartition(fashions, factors);
            desc << "partition " << buffer.op()->nameId().str() << " [";
            for (int64_t factor : factors)
                desc << factor << " ";
            desc << "]";
            break;
        }
        case 3: {  // ping-pong stages
            if (buffers_.empty())
                break;
            BufferOp buffer(buffers_[rng_.below(buffers_.size())]);
            int64_t stages = 1 + static_cast<int64_t>(rng_.below(4));
            buffer.setStages(stages);
            desc << "stages=" << stages;
            break;
        }
        case 4: {  // soft FIFO depth
            if (buffers_.empty())
                break;
            BufferOp buffer(buffers_[rng_.below(buffers_.size())]);
            int64_t depth = 1 + static_cast<int64_t>(rng_.below(8));
            buffer.setSoftFifoDepth(depth);
            desc << "soft_fifo_depth=" << depth;
            break;
        }
        default: {  // node effect flip: rewires the dataflow graph
            if (nodes_.empty())
                break;
            NodeOp node(nodes_[rng_.below(nodes_.size())]);
            unsigned operand = static_cast<unsigned>(
                rng_.below(node.op()->numOperands()));
            auto effect = static_cast<MemoryEffect>(1 + rng_.below(3));
            node.setEffect(operand, effect);
            desc << "effect " << node.label() << "[" << operand
                 << "]=" << static_cast<int64_t>(effect);
            break;
        }
        }
        if (desc.str().empty())
            desc << "no-op";
        return desc.str();
    }

    /**
     * One structural mutation. Besides op moves and insert/erase pairs,
     * these are the edits a fingerprint plan (the distinct buffers behind
     * a subtree's memref operands, keyed on the structure epoch) and the
     * per-buffer memo (keyed on the buffer op, revalidated by its subtree
     * hash) must follow: an access re-pointed to another buffer, a second
     * access to an already accessed buffer, a buffer replaced by a fresh
     * op (later ones may reuse an erased buffer's address), and a buffer
     * retyped to another element width.
     */
    void
    mutateStructure(std::ostringstream& desc)
    {
        switch (rng_.below(6)) {
        case 0: {
            Operation* buffer = buffers_[rng_.below(buffers_.size())];
            buffer->moveToFront(buffer->block());
            desc << "move buffer to block front";
            break;
        }
        case 1: {
            if (loops_.empty())
                break;
            Operation* loop = loops_[rng_.below(loops_.size())];
            OpBuilder builder(ForOp(loop).body());
            Operation* nop = builder.create(Identifier::get("test.nop"));
            nop->erase();
            desc << "insert+erase nop in loop body";
            break;
        }
        case 2: {  // re-point an access to another on-chip buffer
            std::vector<std::pair<Operation*, unsigned>> uses;
            module_.op()->walk([&](Operation* op) {
                for (unsigned i = 0; i < op->numOperands(); ++i)
                    if (Operation* def = op->operand(i)->definingOp();
                        def != nullptr && isa<BufferOp>(def) &&
                        !BufferOp(def).isExternal())
                        uses.emplace_back(op, i);
            });
            if (uses.empty())
                break;
            auto [user, index] = uses[rng_.below(uses.size())];
            Operation* from = user->operand(index)->definingOp();
            // A node may name a channel once: the simulator rejects a
            // node writing one channel through two operands.
            auto used = [&](Operation* buffer) {
                for (Value* operand : user->operands())
                    if (operand == buffer->result(0))
                        return true;
                return false;
            };
            std::vector<Operation*> targets;
            for (Operation* op : *from->block())
                if (isa<BufferOp>(op) && !used(op) &&
                    !BufferOp(op).isExternal() &&
                    BufferOp(op).type().shape().size() ==
                        BufferOp(from).type().shape().size())
                    targets.push_back(op);
            if (targets.empty())
                break;
            Operation* to = targets[rng_.below(targets.size())];
            user->setOperand(index, to->result(0));
            desc << "re-point " << user->nameId().str() << "[" << index
                 << "] from buffer " << indexOf(from) << " to buffer "
                 << indexOf(to);
            break;
        }
        case 3: {  // a second access to an already accessed buffer
            std::vector<Operation*> accesses;
            module_.op()->walk([&](Operation* op) {
                if (isa<LoadOp>(op) || isa<StoreOp>(op))
                    accesses.push_back(op);
            });
            if (accesses.empty())
                break;
            Operation* access = accesses[rng_.below(accesses.size())];
            Value* memref = nullptr;
            std::vector<Value*> indices;
            if (auto load = dynCast<LoadOp>(access)) {
                memref = load.memref();
                for (unsigned i = 0; i < load.numIndices(); ++i)
                    indices.push_back(load.index(i));
            } else {
                StoreOp store(access);
                memref = store.memref();
                for (unsigned i = 0; i < store.numIndices(); ++i)
                    indices.push_back(store.index(i));
            }
            OpBuilder builder;
            builder.setInsertionPointBefore(access);
            LoadOp::create(builder, memref, indices);
            desc << "second load beside a " << access->nameId().str();
            break;
        }
        case 4: {  // replace a buffer with a fresh op
            size_t k = rng_.below(buffers_.size());
            Operation* old = buffers_[k];
            OpBuilder builder;
            builder.setInsertionPointBefore(old);
            int64_t stages = 1 + static_cast<int64_t>(rng_.below(3));
            BufferOp fresh = BufferOp::create(builder, BufferOp(old).type(),
                                              stages, "fresh");
            old->result(0)->replaceAllUsesWith(fresh.op()->result(0));
            old->erase();
            buffers_[k] = fresh.op();
            desc << "replace buffer " << k << " (fresh, stages=" << stages
                 << ")";
            break;
        }
        default: {  // retype a buffer's element width
            size_t k = rng_.below(buffers_.size());
            Value* result = buffers_[k]->result(0);
            Type type = result->type();
            static const unsigned kWidths[] = {8, 16, 32, 64};
            unsigned width = kWidths[rng_.below(4)];
            Type element = type.elementType().isFloat() && width >= 32
                               ? Type::floating(width)
                               : Type::integer(width);
            result->setType(
                Type::memref(type.shape(), element, type.memorySpace()));
            desc << "retype buffer " << k << " to "
                 << (element.isFloat() ? "f" : "i") << width;
            break;
        }
        }
    }

    size_t
    indexOf(Operation* buffer) const
    {
        return std::find(buffers_.begin(), buffers_.end(), buffer) -
               buffers_.begin();
    }

    /** Warm estimate vs a fresh cold estimator, exact equality. */
    void
    checkOnce(const std::string& what)
    {
        trace_.push_back(what);
        DesignQor warm = warm_.estimateFunc(func_);
        QorEstimator cold_estimator(device_);
        DesignQor cold = cold_estimator.estimateFunc(func_);
        bool equal = warm.latencyCycles == cold.latencyCycles &&
                     warm.intervalCycles == cold.intervalCycles &&
                     warm.res.lut == cold.res.lut &&
                     warm.res.ff == cold.res.ff &&
                     warm.res.dsp == cold.res.dsp &&
                     warm.res.bram18k == cold.res.bram18k;
        if (equal)
            return;
        std::ostringstream msg;
        msg << "warm estimator diverged from cold after mutation #"
            << trace_.size() - 1 << "\n  warm: latency=" << warm.latencyCycles
            << " interval=" << warm.intervalCycles << " lut=" << warm.res.lut
            << " ff=" << warm.res.ff << " dsp=" << warm.res.dsp
            << " bram=" << warm.res.bram18k
            << "\n  cold: latency=" << cold.latencyCycles
            << " interval=" << cold.intervalCycles << " lut=" << cold.res.lut
            << " ff=" << cold.res.ff << " dsp=" << cold.res.dsp
            << " bram=" << cold.res.bram18k << "\nmutation trace:\n";
        for (size_t i = 0; i < trace_.size(); ++i)
            msg << "  [" << i << "] " << trace_[i] << "\n";
        FAIL() << msg.str();
    }

    ModuleOp module_;
    TargetDevice device_;
    XorShift rng_;
    QorEstimator warm_;
    FuncOp func_{nullptr};
    std::vector<Operation*> loops_;
    std::vector<Operation*> buffers_;
    std::vector<Operation*> nodes_;
    std::vector<std::string> trace_;
};

TEST(EstimatorDifferentialTest, LenetDataflowSurvives1200Mutations)
{
    // The Figure 1 sweep configuration: LeNet lowered to Structural
    // dataflow, factors then re-applied point by point.
    TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule module = buildLeNet(1);
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableTiling = false;
    options.enableParallelization = false;
    compile(module.get(), options, device);

    DifferentialFuzzer fuzzer(module.get(), device, /*seed=*/0xCAFEF00D);
    fuzzer.run(1200);
}

TEST(EstimatorDifferentialTest, Polybench2mmSurvives900Mutations)
{
    TargetDevice device = TargetDevice::zu3eg();
    OwnedModule module = buildPolybenchKernel("2mm", 16);
    compile(module.get(), optionsFor(Flow::kHida), device);

    DifferentialFuzzer fuzzer(module.get(), device, /*seed=*/0xDEADBEEF);
    fuzzer.run(900);
}

TEST(EstimatorDifferentialTest, NestedTiledScheduleSurvives500Mutations)
{
    // Hierarchical design: an outer node wrapping a nested schedule
    // whose tiled producer/consumer pair is throttled by the channel
    // depth. Memoized *node* estimates here embed the nested frame
    // simulation, the exact shape where a depth attribute leaking out
    // of the fingerprint goes silently stale.
    OwnedModule module;
    OpBuilder top(module.get().body());
    FuncOp func = FuncOp::create(top, "nested", {});
    OpBuilder fb(func.body());
    ScheduleOp outer = ScheduleOp::create(fb, {});
    OpBuilder ob(outer.body());
    Type mem = Type::memref({64}, Type::f32(), MemorySpace::kOnChip);
    BufferOp bufC = BufferOp::create(ob, mem, /*stages=*/1, "C");
    NodeOp wrap = NodeOp::create(ob, {bufC.op()->result(0)},
                                 {MemoryEffect::kReadWrite}, "wrap");
    OpBuilder wb(wrap.body());
    ScheduleOp inner = ScheduleOp::create(wb, {wrap.innerArg(0)});
    OpBuilder ib(inner.body());
    Value* chan = inner.body()->argument(0);
    for (bool writes : {true, false}) {
        NodeOp node = NodeOp::create(
            ib, {chan},
            {writes ? MemoryEffect::kWrite : MemoryEffect::kRead},
            writes ? "p" : "q");
        OpBuilder nb(node.body());
        ForOp tile = ForOp::create(nb, 0, 4);
        tile.op()->setAttr(ForOp::tileLoopId(), Attribute::unit());
        OpBuilder tb(tile.body());
        ForOp loop = ForOp::create(tb, 0, 16);
        OpBuilder lb(loop.body());
        if (writes) {
            Value* one =
                ConstantOp::create(lb, Type::f32(), 1.0).op()->result(0);
            StoreOp::create(lb, one, node.innerArg(0),
                            {loop.inductionVar()});
        } else {
            LoadOp::create(lb, node.innerArg(0), {loop.inductionVar()});
        }
    }

    DifferentialFuzzer fuzzer(module.get(), TargetDevice::zu3eg(),
                              /*seed=*/0xB0A710AD);
    fuzzer.run(500);
}

TEST(EstimatorDifferentialTest, MultiProducer3mmSurvives900Mutations)
{
    // The ScaleHLS flow keeps the multi-producer init nests, so this
    // module exercises the sequential-fallback path of the schedule
    // cache on every point.
    TargetDevice device = TargetDevice::zu3eg();
    OwnedModule module = buildPolybenchKernel("3mm", 16);
    compile(module.get(), optionsFor(Flow::kScaleHls), device);

    DifferentialFuzzer fuzzer(module.get(), device, /*seed=*/0x5EEDC0DE);
    fuzzer.run(900);
}

//===----------------------------------------------------------------------===//
// Per-point directive path: cached applyPoint + reused ArrayPartition
//===----------------------------------------------------------------------===//

/**
 * The uncached applyPoint: one full walk per point binding every tagged
 * loop afresh. The reference the cached bindings must agree with.
 */
void
referenceApplyPoint(ModuleOp module, const DesignPointGrid& grid,
                    const std::vector<int64_t>& values)
{
    module.op()->walk([&](Operation* op) {
        if (!isa<ForOp>(op))
            return;
        int64_t seq = op->intAttrOr(ForOp::layerSeqId(), -1);
        if (seq < 0)
            return;
        for (size_t i = 0; i < grid.numAxes(); ++i) {
            const GridAxis& axis = grid.axis(i);
            if (!axis.bound() || axis.layerSeq != seq ||
                !op->hasAttr(axis.loopTag))
                continue;
            ForOp loop(op);
            loop.setUnrollFactor(
                std::min<int64_t>(values[i], loop.tripCount()));
        }
    });
}

/**
 * One campaign over a sweep prototype. Each step is a random grid point
 * or a random IR edit; after it the warm path (applyPoint with its
 * per-thread bindings, then one long-lived ArrayPartition instance with
 * its access plan) must leave the module hashing equal to a fresh clone
 * taken before the warm path ran and driven through referenceApplyPoint
 * and a fresh pass instance.
 */
class PerPointFuzzer {
  public:
    PerPointFuzzer(ModuleOp module, const DesignPointGrid& grid,
                   FlowOptions partition, uint64_t seed)
        : module_(module), grid_(grid), partition_(partition), rng_(seed),
          warmPass_(createArrayPartitionPass(partition)),
          point_(grid.point(0))
    {
        module.op()->walk([&](Operation* op) {
            if (isa<ForOp>(op))
                loops_.push_back(op);
            else if (isa<BufferOp>(op))
                buffers_.push_back(op);
            else if (isa<NodeOp>(op) && op->numOperands() > 0)
                nodes_.push_back(op);
            else if (isa<ApplyOp>(op))
                applies_.push_back(op);
        });
        // New access sites go to on-chip buffers, the ones the pass
        // partitions (any buffer when a prototype has none).
        for (Operation* buffer : buffers_)
            if (BufferOp(buffer).type().memorySpace() !=
                MemorySpace::kExternal)
                onChip_.push_back(buffer);
        if (onChip_.empty())
            onChip_ = buffers_;
        for (size_t i = 0; i < grid.numAxes(); ++i)
            if (std::find(tags_.begin(), tags_.end(), grid.axis(i).loopTag) ==
                tags_.end())
                tags_.push_back(grid.axis(i).loopTag);
    }

    void
    run(int steps)
    {
        ASSERT_FALSE(loops_.empty()) << "prototype has no loops";
        check("initial point");
        for (int i = 0; i < steps && !::testing::Test::HasFailure(); ++i)
            check(step());
    }

  private:
    Operation*
    pick(const std::vector<Operation*>& ops)
    {
        return ops[rng_.below(ops.size())];
    }

    /** Apply one random point or edit; returns its trace line. */
    std::string
    step()
    {
        std::ostringstream desc;
        switch (rng_.below(16)) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4:
        case 5: {  // a new design point
            size_t index = rng_.below(grid_.size());
            point_ = grid_.point(index);
            desc << "point " << index;
            break;
        }
        case 6: {  // tag or untag a loop
            Operation* loop = pick(loops_);
            Identifier tag = tags_[rng_.below(tags_.size())];
            if (loop->hasAttr(tag)) {
                loop->removeAttr(tag);
                desc << "untag " << tag.str();
            } else {
                loop->setAttr(tag, Attribute::unit());
                desc << "tag " << tag.str();
            }
            desc << " on loop " << indexOf(loops_, loop);
            break;
        }
        case 7: {  // move a loop to another layer, or out of every layer
            Operation* loop = pick(loops_);
            int64_t seq = static_cast<int64_t>(rng_.below(5));
            if (seq == 0) {
                loop->removeAttr(ForOp::layerSeqId());
                desc << "clear layer_seq";
            } else {
                loop->setIntAttr(ForOp::layerSeqId(), seq);
                desc << "layer_seq=" << seq;
            }
            desc << " on loop " << indexOf(loops_, loop);
            break;
        }
        case 8: {  // rewrite an index map's strides
            if (applies_.empty())
                break;
            Operation* apply = pick(applies_);
            std::vector<int64_t> coeffs(apply->numOperands());
            for (int64_t& c : coeffs)
                c = static_cast<int64_t>(rng_.below(7)) - 3;
            apply->setAttr(ApplyOp::coeffsId(), Attribute::i64Array(coeffs));
            desc << "coeffs of apply " << indexOf(applies_, apply);
            break;
        }
        case 9: {  // flip a node effect
            if (nodes_.empty())
                break;
            NodeOp node(pick(nodes_));
            unsigned operand = static_cast<unsigned>(
                rng_.below(node.op()->numOperands()));
            auto effect = static_cast<MemoryEffect>(1 + rng_.below(3));
            node.setEffect(operand, effect);
            desc << "effect " << node.label() << "[" << operand
                 << "]=" << static_cast<int64_t>(effect);
            break;
        }
        case 10:
        case 11: {  // a directive written behind the grid's back
            Operation* loop = pick(loops_);
            int64_t factor = 1 + static_cast<int64_t>(rng_.below(8));
            if (factor == 1) {
                loop->removeAttr(ForOp::unrollId());
                desc << "clear unroll";
            } else {
                ForOp(loop).setUnrollFactor(factor);
                desc << "unroll=" << factor;
            }
            desc << " on loop " << indexOf(loops_, loop);
            break;
        }
        case 12: {  // a new trip count clamps the bound factors
            ForOp loop(pick(loops_));
            int64_t trip = 1 + static_cast<int64_t>(rng_.below(16));
            loop.op()->setIntAttr(
                ForOp::ubId(), loop.lowerBound() + trip * loop.step());
            desc << "trip=" << trip << " on loop "
                 << indexOf(loops_, loop.op());
            break;
        }
        case 13: {  // structural move
            if (buffers_.empty())
                break;
            Operation* buffer = pick(buffers_);
            buffer->moveToFront(buffer->block());
            desc << "move buffer " << indexOf(buffers_, buffer)
                 << " to block front";
            break;
        }
        case 14: {  // structural insert: a new access site
            if (onChip_.empty())
                break;
            Operation* buffer = pick(onChip_);
            ForOp loop(pick(loops_));
            size_t rank = BufferOp(buffer).type().shape().size();
            OpBuilder builder(loop.body());
            LoadOp load = LoadOp::create(
                builder, buffer->result(0),
                std::vector<Value*>(rank, loop.inductionVar()));
            inserted_.push_back(load.op());
            desc << "load buffer " << indexOf(buffers_, buffer)
                 << " in loop " << indexOf(loops_, loop.op());
            break;
        }
        default: {  // structural erase
            if (inserted_.empty()) {
                OpBuilder builder(ForOp(pick(loops_)).body());
                builder.create(Identifier::get("test.nop"))->erase();
                desc << "insert+erase nop";
                break;
            }
            size_t i = rng_.below(inserted_.size());
            inserted_[i]->erase();
            inserted_.erase(inserted_.begin() + i);
            desc << "erase inserted load " << i;
            break;
        }
        }
        if (desc.str().empty())
            desc << "no-op";
        return desc.str();
    }

    static size_t
    indexOf(const std::vector<Operation*>& ops, Operation* op)
    {
        return std::find(ops.begin(), ops.end(), op) - ops.begin();
    }

    /** Warm path vs a cold reference on a clone, by root subtree hash. */
    void
    check(const std::string& what)
    {
        trace_.push_back(what);
        OwnedModule reference = OwnedModule::clone(module_);
        applyPoint(module_, grid_, point_);
        warmPass_->runOnModule(module_);
        referenceApplyPoint(reference.get(), grid_, point_);
        createArrayPartitionPass(partition_)->runOnModule(reference.get());
        if (module_.op()->subtreeHash() == reference.get().op()->subtreeHash())
            return;
        std::ostringstream msg;
        msg << "warm per-point path diverged from the reference after step #"
            << trace_.size() - 1 << "\nstep trace:\n";
        for (size_t i = 0; i < trace_.size(); ++i)
            msg << "  [" << i << "] " << trace_[i] << "\n";
        FAIL() << msg.str();
    }

    ModuleOp module_;
    const DesignPointGrid& grid_;
    FlowOptions partition_;
    XorShift rng_;
    std::unique_ptr<Pass> warmPass_;
    std::vector<int64_t> point_;
    std::vector<Operation*> loops_;
    std::vector<Operation*> buffers_;
    std::vector<Operation*> onChip_;
    std::vector<Operation*> nodes_;
    std::vector<Operation*> applies_;
    std::vector<Operation*> inserted_;
    std::vector<Identifier> tags_;
    std::vector<std::string> trace_;
};

/** The Figure 1 factor grid (the benchmark's and fig1 bench's axes). */
DesignPointGrid
fig1Grid()
{
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 2, 3, 6}, 1, "kpf_loop");
    grid.addDirectiveAxis("cpf1", {1}, 1, "cpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 2, 4, 8, 16}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 2, 3, 6}, 2, "cpf_loop");
    grid.addDirectiveAxis("kpf3", {1, 2, 3, 4, 6, 8}, 3, "kpf_loop");
    grid.addDirectiveAxis("cpf3", {1, 2, 4, 8, 16}, 3, "cpf_loop");
    return grid;
}

/** A LeNet sweep prototype, lowered as the Figure 1 sweep lowers it. */
OwnedModule
lenetPrototype(Flow flow)
{
    OwnedModule module = buildLeNet(1);
    FlowOptions options = optionsFor(flow);
    options.enableTiling = false;
    options.enableParallelization = false;
    compile(module.get(), options, TargetDevice::pynqZ2());
    return module;
}

void
runLenetPerPointCampaign(Flow flow, uint64_t seed, int steps)
{
    DesignPointGrid grid = fig1Grid();
    OwnedModule module = lenetPrototype(flow);
    FlowOptions partition = optionsFor(flow);
    partition.enableTiling = false;
    partition.enableParallelization = true;

    PerPointFuzzer fuzzer(module.get(), grid, partition, seed);
    fuzzer.run(steps);
}

TEST(PerPointDifferentialTest, LenetDataflowSurvives1500Steps)
{
    runLenetPerPointCampaign(Flow::kHida, /*seed=*/0xF1D0F1D0, 1500);
}

TEST(PerPointDifferentialTest, LenetVitisSurvives1500Steps)
{
    runLenetPerPointCampaign(Flow::kVitis, /*seed=*/0x0DDBA11, 1500);
}

TEST(PerPointDifferentialTest, Polybench2mmSurvives1500Steps)
{
    // 2mm carries no layer tags of its own: bind a deterministic third
    // of its loops to two layers so grid points have loops to write.
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 2, 4}, 1, "kpf_loop");
    grid.addDirectiveAxis("cpf1", {1, 2, 4}, 1, "cpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 2, 4, 8}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 2}, 2, "cpf_loop");
    OwnedModule module = buildPolybenchKernel("2mm", 16);
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableParallelization = false;
    compile(module.get(), options, TargetDevice::zu3eg());
    size_t n = 0;
    module.get().op()->walk([&](Operation* op) {
        if (!isa<ForOp>(op))
            return;
        if (n % 3 != 2) {
            op->setIntAttr(ForOp::layerSeqId(),
                           1 + static_cast<int64_t>(n / 3 % 2));
            op->setAttr(n % 3 == 0 ? ForOp::kpfLoopId() : ForOp::cpfLoopId(),
                        Attribute::unit());
        }
        ++n;
    });
    FlowOptions partition = options;
    partition.enableParallelization = true;

    PerPointFuzzer fuzzer(module.get(), grid, partition,
                          /*seed=*/0x2EEDBEEF);
    fuzzer.run(1500);
}

/**
 * An affine.apply "offset" that is not an integer makes decomposeIndex
 * drop the whole index, so the access terms of every structure cache
 * depend on it: the key must be structural. Set one to a string on a
 * warm module: the epoch must move, and the warm ArrayPartition instance
 * and estimator must agree with a fresh pass and estimator on a clone.
 */
TEST(PerPointDifferentialTest, NonIntegerApplyOffsetMovesTheEpoch)
{
    const TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule module = lenetPrototype(Flow::kHida);
    ModuleOp warm = module.get();
    // The first on-chip access indexed through an affine.apply; unrolling
    // its loops makes its terms decide a partition factor.
    Operation* apply = nullptr;
    warm.op()->walk([&](Operation* op) {
        if (apply != nullptr || !(isAffineLoad(op) || isa<StoreOp>(op)))
            return;
        const unsigned first = isa<StoreOp>(op) ? 2 : 1;
        BufferOp buffer = QorEstimator::resolveBuffer(op->operand(first - 1));
        if (!buffer || buffer.isExternal())
            return;
        for (unsigned i = first; i < op->numOperands(); ++i) {
            Operation* def = op->operand(i)->definingOp();
            if (def != nullptr && isa<ApplyOp>(def)) {
                apply = def;
                break;
            }
        }
    });
    ASSERT_NE(apply, nullptr) << "the prototype indexes no buffer by apply";
    for (Value* iv : apply->operands()) {
        ForOp loop(iv->ownerBlock()->parentOp());
        loop.setUnrollFactor(std::min<int64_t>(loop.tripCount(), 2));
    }
    FlowOptions partition = optionsFor(Flow::kHida);
    std::unique_ptr<Pass> warm_pass = createArrayPartitionPass(partition);
    QorEstimator warm_estimator(device);
    warm_pass->runOnModule(warm);
    warm_estimator.estimateFunc(topFunc(warm));

    const uint64_t epoch = warm.op()->structureEpoch();
    apply->setAttr(ApplyOp::offsetId(), Attribute::string("x"));
    EXPECT_NE(warm.op()->structureEpoch(), epoch);

    OwnedModule cold = OwnedModule::clone(warm);
    warm_pass->runOnModule(warm);
    createArrayPartitionPass(partition)->runOnModule(cold.get());
    EXPECT_EQ(warm.op()->subtreeHash(), cold.get().op()->subtreeHash())
        << "the warm ArrayPartition plan kept the dropped index terms";
    DesignQor warm_qor = warm_estimator.estimateFunc(topFunc(warm));
    DesignQor cold_qor = QorEstimator(device).estimateFunc(topFunc(cold.get()));
    EXPECT_EQ(warm_qor.latencyCycles, cold_qor.latencyCycles);
    EXPECT_EQ(warm_qor.intervalCycles, cold_qor.intervalCycles);
    EXPECT_EQ(warm_qor.res.lut, cold_qor.res.lut);
    EXPECT_EQ(warm_qor.res.ff, cold_qor.res.ff);
    EXPECT_EQ(warm_qor.res.dsp, cold_qor.res.dsp);
    EXPECT_EQ(warm_qor.res.bram18k, cold_qor.res.bram18k);
}

//===----------------------------------------------------------------------===//
// Cold-model digest: the estimator's arithmetic on random directive states
//===----------------------------------------------------------------------===//

/**
 * Drives a compiled module through random directive states and folds, for
 * each state, a fresh estimator's estimate and every loop's "ii" into one
 * 64-bit digest. A fresh estimator has no memo, plan or skeleton, so every
 * state runs the cold model end to end; the pinned digests fix its
 * arithmetic, whatever caches serve it.
 *
 * A state edits one to three directives: unroll factors that divide the
 * trip count and ones that do not, partition fashions and factors aligned
 * with the unrolls or not, vector factors, removed partition attributes
 * (the predicted-bank path parallelize's search takes), tile_loop tags and
 * ping-pong stages.
 */
class ColdModelDigest {
  public:
    ColdModelDigest(ModuleOp module, TargetDevice device, uint64_t seed)
        : device_(device), rng_(seed)
    {
        for (Operation* op : module.body()->ops())
            if (auto f = dynCast<FuncOp>(op))
                func_ = f;
        module.op()->walk([&](Operation* op) {
            if (isa<ForOp>(op))
                loops_.push_back(op);
            else if (isa<BufferOp>(op))
                buffers_.push_back(op);
        });
    }

    /** Digest of @p states random states, the first the compiled one. */
    uint64_t
    run(int states)
    {
        uint64_t digest = hashMix(0xD16E57);
        for (int i = 0; i < states; ++i) {
            if (i > 0)
                for (uint64_t n = 1 + rng_.below(3); n > 0; --n)
                    mutate();
            QorEstimator estimator(device_);
            Result<DesignQor> qor = estimator.estimateFuncChecked(func_);
            if (!qor) {
                digest = hashCombine(digest, ~uint64_t{0});
                continue;
            }
            const DesignQor& q = qor.value();
            digest = hashCombine(digest, static_cast<uint64_t>(q.latencyCycles));
            digest = hashCombine(digest, std::bit_cast<uint64_t>(q.intervalCycles));
            digest = hashCombine(digest, static_cast<uint64_t>(q.res.lut));
            digest = hashCombine(digest, static_cast<uint64_t>(q.res.ff));
            digest = hashCombine(digest, static_cast<uint64_t>(q.res.dsp));
            digest = hashCombine(digest, static_cast<uint64_t>(q.res.bram18k));
            for (Operation* loop : loops_)
                digest = hashCombine(
                    digest,
                    static_cast<uint64_t>(loop->intAttrOr(ForOp::iiId(), 0)));
        }
        return digest;
    }

    uint64_t rngState() const { return rng_.state; }

  private:
    template <typename T>
    T
    pick(const std::vector<T>& values)
    {
        return values[rng_.below(values.size())];
    }

    void
    mutate()
    {
        if (buffers_.empty() || rng_.below(2) == 0) {
            mutateLoop();
            return;
        }
        BufferOp buffer(pick(buffers_));
        const std::vector<int64_t>& shape = buffer.type().shape();
        switch (rng_.below(5)) {
        case 0:
        case 1: {  // fashions and factors, aligned or not
            std::vector<int64_t> fashions, factors;
            for (int64_t dim : shape) {
                int64_t factor =
                    rng_.below(2) == 0
                        ? int64_t{1} << rng_.below(4)
                        : 1 + static_cast<int64_t>(rng_.below(7));
                factors.push_back(std::clamp<int64_t>(factor, 1, dim));
                fashions.push_back(static_cast<int64_t>(rng_.below(3)));
            }
            if (!shape.empty())
                buffer.setPartition(fashions, factors);
            break;
        }
        case 2:  // the predicted-bank path
            buffer.op()->removeAttr(BufferOp::partitionFactorsId());
            buffer.op()->removeAttr(BufferOp::partitionFashionsId());
            break;
        case 3:
            if (rng_.below(4) == 0)
                buffer.op()->removeAttr(BufferOp::vectorFactorId());
            else
                buffer.op()->setIntAttr(BufferOp::vectorFactorId(),
                                        int64_t{1} << rng_.below(4));
            break;
        default:
            buffer.setStages(1 + static_cast<int64_t>(rng_.below(3)));
            break;
        }
    }

    void
    mutateLoop()
    {
        ForOp loop(pick(loops_));
        const int64_t trip = std::max<int64_t>(loop.tripCount(), 1);
        switch (rng_.below(5)) {
        case 0:
            loop.op()->removeAttr(ForOp::unrollId());
            break;
        case 1:
        case 2:  // a divisor of the trip count
            loop.setUnrollFactor(pick(divisorsOf(trip)));
            break;
        case 3:  // any factor, usually not a divisor
            loop.setUnrollFactor(
                1 + static_cast<int64_t>(rng_.below(
                        static_cast<uint64_t>(std::min<int64_t>(trip, 12)))));
            break;
        default:
            if (loop.op()->hasAttr(ForOp::tileLoopId()))
                loop.op()->removeAttr(ForOp::tileLoopId());
            else
                loop.op()->setAttr(ForOp::tileLoopId(), Attribute::unit());
            break;
        }
    }

    TargetDevice device_;
    XorShift rng_;
    FuncOp func_{nullptr};
    std::vector<Operation*> loops_;
    std::vector<Operation*> buffers_;
};

/**
 * One design's digest against its pinned value. The states are a fixed
 * count, so the run is the same on every machine and build; the budget
 * keeps the six designs under 30 s with ASan.
 */
void
expectColdDigest(ModuleOp module, const TargetDevice& device, uint64_t seed,
                 int states, uint64_t expected)
{
    ColdModelDigest digest(module, device, seed);
    const uint64_t actual = digest.run(states);
    EXPECT_EQ(actual, expected)
        << std::hex << "seed 0x" << seed << ", " << std::dec << states
        << " states, final xorshift state 0x" << std::hex
        << digest.rngState() << ": digest 0x" << actual
        << " differs from the pinned 0x" << expected;
}

TEST(EstimatorDigestTest, LenetHidaPrototype)
{
    OwnedModule module = lenetPrototype(Flow::kHida);
    expectColdDigest(module.get(), TargetDevice::pynqZ2(), 0x1E7E7A11, 2000,
                     0x57be9d4367c5b724);
}

TEST(EstimatorDigestTest, LenetVitisPrototype)
{
    OwnedModule module = lenetPrototype(Flow::kVitis);
    expectColdDigest(module.get(), TargetDevice::pynqZ2(), 0x1E7E7B22, 2000,
                     0x7cca98d32ad32b4e);
}

TEST(EstimatorDigestTest, Resnet18AfterPrefix)
{
    registerAllDialects();
    OwnedModule module = buildDnnModel("ResNet-18");
    PassManager prefix;
    addPrefixPasses(prefix, optionsFor(Flow::kHida));
    prefix.run(module.get());
    expectColdDigest(module.get(), TargetDevice::vu9pSlr(), 0x2E5E7018, 150,
                     0xee094410923a3a53);
}

TEST(EstimatorDigestTest, PolybenchKernels)
{
    struct Kernel {
        const char* name;
        uint64_t seed;
        uint64_t digest;
    };
    const Kernel kernels[] = {{"2mm", 0x2AA2AA, 0x28db45828dc2e410},
                              {"3mm", 0x3AA3AA, 0xf5278e7bf78d3a27},
                              {"jacobi-2d", 0x7AC0B1, 0xdd6cefc7d21cbeb1}};
    for (const Kernel& kernel : kernels) {
        SCOPED_TRACE(kernel.name);
        OwnedModule module = buildPolybenchKernel(kernel.name, 16);
        compile(module.get(), optionsFor(Flow::kHida), TargetDevice::zu3eg());
        expectColdDigest(module.get(), TargetDevice::zu3eg(), kernel.seed,
                         1500, kernel.digest);
    }
}

} // namespace
} // namespace hida
