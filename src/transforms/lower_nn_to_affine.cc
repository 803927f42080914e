/**
 * @file
 * Bufferization + nn-to-affine lowering (the linalg->affine arrow of
 * Figure 5). Runs after task fusion, while the IR is still Functional.
 *
 * Tensors become memref buffers allocated in the transparent context of
 * the enclosing dispatch. Each nn op is rewritten into affine loop nests:
 *
 *  - Tiled mode (HIDA, enableTiling): conv/dwconv/linear layers become a
 *    nested dispatch of four sub-tasks (load-input, load-weight, compute,
 *    store) communicating through on-chip tile buffers, while activations
 *    and weights live in external memory. This is the Task6 sub-structure
 *    of Figure 3 and what produces HIDA's on-chip memory savings (Fig. 9).
 *
 *  - Untiled mode (ScaleHLS baseline): every op becomes one loop nest over
 *    full on-chip buffers; nothing is spilled to external memory.
 *
 * ReLU ops whose producer is in the same task are folded into the
 * producer's store (max(x, 0)), mirroring HLS elementwise fusion.
 */

#include <map>

#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/arith/arith_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/dialect/memref/memref_ops.h"
#include "src/dialect/nn/nn_ops.h"
#include "src/support/diagnostics.h"
#include "src/support/utils.h"
#include "src/transforms/passes.h"

namespace hida {

namespace {

/** Create a padded load: reads return zero outside the memref's extent. */
Value*
createPaddedLoad(OpBuilder& builder, Value* memref, std::vector<Value*> indices)
{
    std::vector<Value*> operands = {memref};
    operands.insert(operands.end(), indices.begin(), indices.end());
    Operation* op = builder.create(paddedLoadNameId(), std::move(operands),
                                   {memref->type().elementType()});
    return op->result(0);
}

/** Emits affine loop nests for the nn ops of one function. */
class NnCodeGen {
  public:
    NnCodeGen(FuncOp func, const FlowOptions& options)
        : func_(func), options_(options) {}

    void run();

  private:
    /** Memory space for inter-task activations and weights. */
    MemorySpace
    activationSpace() const
    {
        return options_.enableTiling ? MemorySpace::kExternal
                                     : MemorySpace::kOnChip;
    }

    /** The block that holds shared buffers (dispatch body or func body). */
    Block* bufferBlock(Operation* nn_op);
    /** Buffer backing @p tensor, creating an alloc on first request. */
    Value* bufferFor(Value* tensor, Operation* context_op);

    void lowerOp(Operation* op);
    void lowerConvLike(Operation* op, bool depthwise, bool fold_relu);
    void lowerLinear(LinearOp op, bool fold_relu);
    void lowerPool(Operation* op, bool is_max);
    void lowerElementwise(Operation* op, bool fold_relu);
    void lowerCopyLike(Operation* op);

    /** Untiled single-nest convolution/linear (ScaleHLS mode). */
    void emitUntiledConv(OpBuilder& builder, Value* in, Value* wt, Value* bias,
                         Value* out, int64_t stride, int64_t pad,
                         bool depthwise, bool fold_relu);
    /** Tiled four-task convolution (HIDA mode). */
    void emitTiledConv(OpBuilder& builder, Value* in, Value* wt, Value* bias,
                       Value* out, int64_t stride, int64_t pad, bool depthwise,
                       bool fold_relu);
    void emitUntiledLinear(OpBuilder& builder, Value* in, Value* wt,
                           Value* bias, Value* out, bool fold_relu);
    void emitTiledLinear(OpBuilder& builder, Value* in, Value* wt, Value* bias,
                         Value* out, bool fold_relu);

    /** Build a loop nest over @p extents; returns its induction variables.
     * Loops are tagged "tile_loop" when @p tile_loops is true. */
    std::vector<Value*> makeNest(OpBuilder& builder,
                                 const std::vector<int64_t>& extents,
                                 bool tile_loops = false);

    /** Tag the loop owning @p iv so benches can address per-layer factors
     * (KPF = output-channel loop, CPF = input-channel reduction loop). */
    void
    tagLoop(Value* iv, Identifier tag)
    {
        Operation* loop = iv->ownerBlock()->parentOp();
        loop->setAttr(tag, Attribute::unit());
        loop->setIntAttr(ForOp::layerSeqId(), layerSeq_);
    }

    FuncOp func_;
    FlowOptions options_;
    std::map<Value*, Value*> bufferMap_;   ///< tensor value -> memref value.
    std::vector<Operation*> loweredOps_;   ///< nn ops to erase afterwards.
    int64_t layerSeq_ = 0;                 ///< Sequence id of compute layers.
};

Block*
NnCodeGen::bufferBlock(Operation* nn_op)
{
    if (Operation* dispatch = nn_op->parentOfName(opNameId<DispatchOp>()))
        return dispatch->body();
    return func_.body();
}

Value*
NnCodeGen::bufferFor(Value* tensor, Operation* context_op)
{
    auto it = bufferMap_.find(tensor);
    if (it != bufferMap_.end())
        return it->second;

    // Function arguments become external (HIDA) / on-chip (ScaleHLS) IO
    // buffers; their type is rewritten in place.
    if (tensor->isBlockArgument() && tensor->ownerBlock() == func_.body()) {
        Type memref = tensor->type().toMemRef(options_.enableTiling
                                                  ? MemorySpace::kExternal
                                                  : MemorySpace::kOnChip);
        tensor->setType(memref);
        tensor->setNameHint("io");
        bufferMap_[tensor] = tensor;
        return tensor;
    }

    Operation* def = tensor->definingOp();
    OpBuilder builder;
    builder.setInsertionPointToStart(bufferBlock(context_op));

    // Weights lower to constant-initialized allocations. Trained parameters
    // always live in external memory (DNN weight footprints exceed on-chip
    // capacity for every Table 8 model); small bias vectors stay on-chip.
    if (auto weight = dynCast<NnWeightOp>(def)) {
        bool is_bias = tensor->type().shape().size() == 1;
        MemorySpace space =
            is_bias ? MemorySpace::kOnChip : MemorySpace::kExternal;
        Value* buf = WeightOp::create(builder,
                                      tensor->type().toMemRef(space),
                                      weight.seed())
                         .op()
                         ->result(0);
        bufferMap_[tensor] = buf;
        return buf;
    }

    // A task result maps to the same buffer as the value it yields.
    if (auto task = dynCast<TaskOp>(def)) {
        Operation* yield = task.body()->back();
        HIDA_ASSERT(isa<YieldOp>(yield), "task with results missing yield");
        Value* inner = yield->operand(tensor->index());
        Value* buf = bufferFor(inner, context_op);
        bufferMap_[tensor] = buf;
        return buf;
    }

    // Intermediate activation: allocate in the shared transparent context.
    Value* buf = AllocOp::create(builder,
                                 tensor->type().toMemRef(activationSpace()),
                                 "act")
                     .op()
                     ->result(0);
    bufferMap_[tensor] = buf;
    return buf;
}

std::vector<Value*>
NnCodeGen::makeNest(OpBuilder& builder, const std::vector<int64_t>& extents,
                    bool tile_loops)
{
    std::vector<Value*> ivs;
    for (int64_t extent : extents) {
        ForOp loop = ForOp::create(builder, 0, extent);
        if (tile_loops)
            loop.op()->setAttr(ForOp::tileLoopId(), Attribute::unit());
        ivs.push_back(loop.inductionVar());
        builder.setInsertionPointToEnd(loop.body());
    }
    return ivs;
}

void
NnCodeGen::run()
{
    // Lower in program order so producer buffers exist before consumers.
    std::vector<Operation*> nn_ops;
    func_.op()->walk([&](Operation* op) {
        if (isNnOp(op) && !isa<NnWeightOp>(op))
            nn_ops.push_back(op);
    }, WalkOrder::kPreOrder);

    for (Operation* op : nn_ops) {
        if (std::find(loweredOps_.begin(), loweredOps_.end(), op) ==
            loweredOps_.end())
            lowerOp(op);
    }

    // Erase the tensor-level ops, consumers first.
    for (auto it = nn_ops.rbegin(); it != nn_ops.rend(); ++it) {
        Operation* op = *it;
        // Task yields may still reference the tensor; retarget them to the
        // buffer so the result type mapping stays coherent until the task
        // results themselves are dropped below.
        for (Value* result : op->results()) {
            Value* buf =
                bufferMap_.count(result) ? bufferMap_[result] : nullptr;
            if (buf != nullptr && result->hasUses())
                result->replaceAllUsesWith(buf);
        }
        op->erase();
    }

    // Drop nn.weight ops (now represented by memref.weight). walkSafe:
    // this callback erases ops out of the blocks being traversed.
    func_.op()->walkSafe([&](Operation* op) {
        if (isa<NnWeightOp>(op) && !op->hasAnyResultUses())
            op->erase();
    });

    // Rebuild tasks without tensor results: tasks now only mutate buffers.
    std::vector<Operation*> tasks;
    func_.op()->walk([&](Operation* op) {
        if (isa<TaskOp>(op) && op->numResults() > 0)
            tasks.push_back(op);
    }, WalkOrder::kPostOrder);
    for (Operation* old_task : tasks) {
        if (!old_task->body()->empty() &&
            isa<YieldOp>(old_task->body()->back()))
            old_task->body()->back()->erase();
        OpBuilder builder;
        builder.setInsertionPointBefore(old_task);
        TaskOp fresh = TaskOp::create(builder, {});
        for (Operation* op : old_task->body()->ops())
            op->moveToEnd(fresh.body());
        for (Value* result : old_task->results()) {
            if (result->hasUses()) {
                Value* buf = bufferMap_.count(result) ? bufferMap_[result]
                                                      : nullptr;
                HIDA_ASSERT(buf != nullptr, "unmapped task result");
                result->replaceAllUsesWith(buf);
            }
        }
        old_task->erase();
    }

    // Dispatch results (the network outputs) are no longer meaningful
    // SSA-wise; rebuild result-less dispatches the same way.
    std::vector<Operation*> dispatches;
    func_.op()->walk([&](Operation* op) {
        if (isa<DispatchOp>(op) && op->numResults() > 0)
            dispatches.push_back(op);
    }, WalkOrder::kPostOrder);
    for (Operation* old_dispatch : dispatches) {
        if (!old_dispatch->body()->empty() &&
            isa<YieldOp>(old_dispatch->body()->back()))
            old_dispatch->body()->back()->erase();
        OpBuilder builder;
        builder.setInsertionPointBefore(old_dispatch);
        DispatchOp fresh = DispatchOp::create(builder, {});
        for (Operation* op : old_dispatch->body()->ops())
            op->moveToEnd(fresh.body());
        for (Value* result : old_dispatch->results()) {
            if (result->hasUses()) {
                Value* buf = bufferMap_.count(result) ? bufferMap_[result]
                                                      : nullptr;
                HIDA_ASSERT(buf != nullptr, "unmapped dispatch result");
                result->replaceAllUsesWith(buf);
            }
        }
        old_dispatch->erase();
    }
}

void
NnCodeGen::lowerOp(Operation* op)
{
    // Detect a foldable trailing ReLU: single user, same task.
    auto foldable_relu = [&](Operation* producer) -> Operation* {
        if (producer->numResults() != 1)
            return nullptr;
        Value* result = producer->result(0);
        auto users = result->users();
        if (users.size() != 1 || !isa<ReluOp>(users[0]))
            return nullptr;
        if (users[0]->parentOfName(opNameId<TaskOp>()) !=
            producer->parentOfName(opNameId<TaskOp>()))
            return nullptr;
        return users[0];
    };

    if (isa<Conv2dOp>(op) || isa<DwConv2dOp>(op) || isa<LinearOp>(op))
        ++layerSeq_;

    Operation* relu = foldable_relu(op);
    bool fold = relu != nullptr &&
                (isa<Conv2dOp>(op) || isa<DwConv2dOp>(op) ||
                 isa<LinearOp>(op) || isa<NnAddOp>(op));
    if (fold) {
        // The relu output buffer *is* the producer's output buffer.
        Value* out_buf = bufferFor(relu->result(0), op);
        bufferMap_[op->result(0)] = out_buf;
        loweredOps_.push_back(relu);
    }

    if (isa<Conv2dOp>(op))
        lowerConvLike(op, /*depthwise=*/false, fold);
    else if (isa<DwConv2dOp>(op))
        lowerConvLike(op, /*depthwise=*/true, fold);
    else if (isa<LinearOp>(op))
        lowerLinear(LinearOp(op), fold);
    else if (isa<MaxPoolOp>(op))
        lowerPool(op, /*is_max=*/true);
    else if (isa<AvgPoolOp>(op))
        lowerPool(op, /*is_max=*/false);
    else if (isa<ReluOp>(op) || isa<NnAddOp>(op))
        lowerElementwise(op, fold);
    else if (isa<FlattenOp>(op) || isa<ConcatOp>(op) || isa<UpsampleOp>(op))
        lowerCopyLike(op);
    else
        HIDA_PANIC("unhandled nn op in lowering: ", op->name());
}

void
NnCodeGen::lowerConvLike(Operation* op, bool depthwise, bool fold_relu)
{
    Value* in = bufferFor(op->operand(0), op);
    Value* wt = bufferFor(op->operand(1), op);
    Value* bias = nullptr;
    if (!depthwise && op->numOperands() > 2)
        bias = bufferFor(op->operand(2), op);
    Value* out = bufferFor(op->result(0), op);
    int64_t stride = op->intAttrOr(NnWindowKeys::strideId(), 1);
    int64_t pad = op->intAttrOr(NnWindowKeys::padId(), 0);

    OpBuilder builder;
    builder.setInsertionPointBefore(op);
    if (options_.enableTiling)
        emitTiledConv(builder, in, wt, bias, out, stride, pad, depthwise,
                      fold_relu);
    else
        emitUntiledConv(builder, in, wt, bias, out, stride, pad, depthwise,
                        fold_relu);
}

void
NnCodeGen::emitUntiledConv(OpBuilder& builder, Value* in, Value* wt,
                           Value* bias, Value* out, int64_t stride, int64_t pad,
                           bool depthwise, bool fold_relu)
{
    const auto& os = out->type().shape();  // N, O, HO, WO
    const auto& ws = wt->type().shape();   // O, I, KH, KW
    Type et = out->type().elementType();

    // Point loops over the output.
    auto ivs = makeNest(builder, {os[0], os[1], os[2], os[3]});
    Value *n = ivs[0], *o = ivs[1], *h = ivs[2], *w = ivs[3];
    tagLoop(o, ForOp::kpfLoopId());

    // Initialize the accumulator with the bias (or zero).
    Value* init;
    if (bias != nullptr) {
        init = LoadOp::create(builder, bias, {o}).op()->result(0);
    } else {
        init = ConstantOp::create(builder, et, 0.0).op()->result(0);
    }
    StoreOp::create(builder, init, out, {n, o, h, w});

    // Reduction loops.
    int64_t in_channels = depthwise ? 1 : ws[1];
    auto red = makeNest(builder, {in_channels, ws[2], ws[3]});
    Value *c = red[0], *kh = red[1], *kw = red[2];
    red.front()->setNameHint("c");
    tagLoop(c, ForOp::cpfLoopId());

    Value* in_c = depthwise ? o : c;
    Value* row = ApplyOp::create(builder, {h, kh}, {stride, 1}, -pad)
                     .op()->result(0);
    Value* col = ApplyOp::create(builder, {w, kw}, {stride, 1}, -pad)
                     .op()->result(0);
    Value* a = createPaddedLoad(builder, in, {n, in_c, row, col});
    Value* weight_c = depthwise
                          ? ConstantOp::createIndex(builder, 0).op()->result(0)
                          : c;
    Value* b = LoadOp::create(builder, wt, {o, weight_c, kh, kw})
                   .op()->result(0);
    Value* m =
        BinaryOp::create(builder, BinaryKind::kMul, a, b).op()->result(0);
    Value* acc = LoadOp::create(builder, out, {n, o, h, w}).op()->result(0);
    Value* sum =
        BinaryOp::create(builder, BinaryKind::kAdd, acc, m).op()->result(0);
    StoreOp::create(builder, sum, out, {n, o, h, w});

    if (fold_relu) {
        // Post-reduction ReLU at the (n,o,h,w) level: insert right after
        // the reduction nest, still inside the w loop.
        Operation* c_loop = red[0]->ownerBlock()->parentOp();
        OpBuilder tail;
        tail.setInsertionPointAfter(c_loop);
        Value* v = LoadOp::create(tail, out, {n, o, h, w}).op()->result(0);
        Value* zero = ConstantOp::create(tail, et, 0.0).op()->result(0);
        Value* relu =
            BinaryOp::create(tail, BinaryKind::kMax, v, zero).op()->result(0);
        StoreOp::create(tail, relu, out, {n, o, h, w});
    }
}

void
NnCodeGen::emitTiledConv(OpBuilder& builder, Value* in, Value* wt, Value* bias,
                         Value* out, int64_t stride, int64_t pad,
                         bool depthwise, bool fold_relu)
{
    const auto& is = in->type().shape();   // N, C, H, W
    const auto& os = out->type().shape();  // N, O, HO, WO
    const auto& ws = wt->type().shape();   // O, I, KH, KW
    Type et = out->type().elementType();

    const int64_t red_c = depthwise ? 1 : ws[1];
    const int64_t tile = std::max<int64_t>(options_.tileSize, 1);
    // Output-channel tiles are additionally capped so the on-chip weight
    // tile stays within a sane budget for channel-deep layers.
    constexpr int64_t kWeightTileBytes = 32 * 1024;
    int64_t t_o_cap = std::min(
        tile, std::max<int64_t>(1, kWeightTileBytes /
                                       std::max<int64_t>(
                                           red_c * ws[2] * ws[3], 1)));
    const int64_t t_o = largestDivisorUpTo(os[1], t_o_cap);
    // Row tiles stay small: the input tile holds (t_h-1)*stride+K full
    // rows, which would dominate on-chip memory for large tile sizes.
    const int64_t t_h =
        largestDivisorUpTo(os[2], std::min<int64_t>(tile, 8));
    const int64_t in_rows = (t_h - 1) * stride + ws[2];
    const int64_t in_cols = is[3] + 2 * pad;

    // Tile buffers in the transparent context of the layer's task.
    Value* in_tile =
        AllocOp::create(builder,
                        Type::memref({red_c == 1 ? is[1] : red_c, in_rows,
                                      in_cols},
                                     et, MemorySpace::kOnChip),
                        "in_tile")
            .op()->result(0);
    Value* w_tile =
        AllocOp::create(builder,
                        Type::memref({t_o, red_c, ws[2], ws[3]}, et,
                                     MemorySpace::kOnChip),
                        "w_tile")
            .op()->result(0);
    Value* out_tile =
        AllocOp::create(builder,
                        Type::memref({t_o, t_h, os[3]}, et,
                                     MemorySpace::kOnChip),
                        "out_tile")
            .op()->result(0);

    DispatchOp dispatch = DispatchOp::create(builder);
    OpBuilder db(dispatch.body());
    const std::vector<int64_t> tiles = {os[0], os[2] / t_h, os[1] / t_o};
    const int64_t in_chan_dim = red_c == 1 ? is[1] : red_c;

    // --- Sub-task: load input tile (with implicit zero padding). ---
    {
        TaskOp task = TaskOp::create(db);
        OpBuilder tb(task.body());
        auto t_ivs = makeNest(tb, tiles, /*tile_loops=*/true);
        Value *n = t_ivs[0], *ht = t_ivs[1];
        auto ivs = makeNest(tb, {in_chan_dim, in_rows, in_cols});
        Value *c = ivs[0], *r = ivs[1], *col = ivs[2];
        // ext row = ht * (t_h*stride) + r - pad ; ext col = col - pad.
        Value* row = ApplyOp::create(tb, {ht, r}, {t_h * stride, 1}, -pad)
                         .op()->result(0);
        Value* ecol = ApplyOp::create(tb, {col}, {1}, -pad).op()->result(0);
        Value* v = createPaddedLoad(tb, in, {n, c, row, ecol});
        StoreOp::create(tb, v, in_tile, {c, r, col});
    }

    // --- Sub-task: load weight tile. ---
    {
        TaskOp task = TaskOp::create(db);
        OpBuilder tb(task.body());
        auto t_ivs = makeNest(tb, tiles, /*tile_loops=*/true);
        Value* ot = t_ivs[2];
        auto ivs = makeNest(tb, {t_o, red_c, ws[2], ws[3]});
        Value* oo = ivs[0];
        Value* ext_o = ApplyOp::create(tb, {ot, oo}, {t_o, 1}, 0)
                           .op()->result(0);
        Value* v = LoadOp::create(tb, wt, {ext_o, ivs[1], ivs[2], ivs[3]})
                       .op()->result(0);
        StoreOp::create(tb, v, w_tile, {oo, ivs[1], ivs[2], ivs[3]});
    }

    // --- Sub-task: compute the tile. ---
    {
        TaskOp task = TaskOp::create(db);
        task.op()->setAttr(TaskOp::roleId(), Attribute::string("compute"));
        task.op()->setIntAttr(ForOp::layerSeqId(), layerSeq_);
        OpBuilder tb(task.body());
        auto t_ivs = makeNest(tb, tiles, /*tile_loops=*/true);
        Value* ot = t_ivs[2];
        auto ivs = makeNest(tb, {t_o, t_h, os[3]});
        Value *oo = ivs[0], *hh = ivs[1], *ww = ivs[2];
        tagLoop(oo, ForOp::kpfLoopId());

        Value* init;
        if (bias != nullptr) {
            Value* ext_o =
                ApplyOp::create(tb, {ot, oo}, {t_o, 1}, 0).op()->result(0);
            init = LoadOp::create(tb, bias, {ext_o}).op()->result(0);
        } else {
            init = ConstantOp::create(tb, et, 0.0).op()->result(0);
        }
        StoreOp::create(tb, init, out_tile, {oo, hh, ww});

        auto red = makeNest(tb, {red_c, ws[2], ws[3]});
        Value *c = red[0], *kh = red[1], *kw = red[2];
        tagLoop(c, ForOp::cpfLoopId());
        Value* in_c = depthwise
                          ? ApplyOp::create(tb, {ot, oo}, {t_o, 1}, 0)
                                .op()->result(0)
                          : c;
        Value* row =
            ApplyOp::create(tb, {hh, kh}, {stride, 1}, 0).op()->result(0);
        Value* col =
            ApplyOp::create(tb, {ww, kw}, {stride, 1}, 0).op()->result(0);
        Value* a =
            LoadOp::create(tb, in_tile, {in_c, row, col}).op()->result(0);
        Value* b = LoadOp::create(tb, w_tile, {oo, c, kh, kw}).op()->result(0);
        Value* m =
            BinaryOp::create(tb, BinaryKind::kMul, a, b).op()->result(0);
        Value* acc = LoadOp::create(tb, out_tile, {oo, hh, ww}).op()->result(0);
        Value* sum =
            BinaryOp::create(tb, BinaryKind::kAdd, acc, m).op()->result(0);
        StoreOp::create(tb, sum, out_tile, {oo, hh, ww});
    }

    // --- Sub-task: store the tile (applying the folded ReLU). ---
    {
        TaskOp task = TaskOp::create(db);
        OpBuilder tb(task.body());
        auto t_ivs = makeNest(tb, tiles, /*tile_loops=*/true);
        Value *n = t_ivs[0], *ht = t_ivs[1], *ot = t_ivs[2];
        auto ivs = makeNest(tb, {t_o, t_h, os[3]});
        Value *oo = ivs[0], *hh = ivs[1], *ww = ivs[2];
        Value* v = LoadOp::create(tb, out_tile, {oo, hh, ww}).op()->result(0);
        if (fold_relu) {
            Value* zero = ConstantOp::create(tb, et, 0.0).op()->result(0);
            v = BinaryOp::create(tb, BinaryKind::kMax, v, zero).op()->result(0);
        }
        Value* ext_o =
            ApplyOp::create(tb, {ot, oo}, {t_o, 1}, 0).op()->result(0);
        Value* ext_h =
            ApplyOp::create(tb, {ht, hh}, {t_h, 1}, 0).op()->result(0);
        StoreOp::create(tb, v, out, {n, ext_o, ext_h, ww});
    }
}

void
NnCodeGen::lowerLinear(LinearOp op, bool fold_relu)
{
    Value* in = bufferFor(op.input(), op.op());
    Value* wt = bufferFor(op.weight(), op.op());
    Value* bias =
        op.bias() != nullptr ? bufferFor(op.bias(), op.op()) : nullptr;
    Value* out = bufferFor(op.op()->result(0), op.op());

    OpBuilder builder;
    builder.setInsertionPointBefore(op.op());
    if (options_.enableTiling)
        emitTiledLinear(builder, in, wt, bias, out, fold_relu);
    else
        emitUntiledLinear(builder, in, wt, bias, out, fold_relu);
}

void
NnCodeGen::emitUntiledLinear(OpBuilder& builder, Value* in, Value* wt,
                             Value* bias, Value* out, bool fold_relu)
{
    const auto& os = out->type().shape();  // N, O
    const auto& ws = wt->type().shape();   // O, F
    Type et = out->type().elementType();

    auto ivs = makeNest(builder, {os[0], os[1]});
    Value *n = ivs[0], *o = ivs[1];
    tagLoop(o, ForOp::kpfLoopId());
    Value* init =
        bias != nullptr
            ? LoadOp::create(builder, bias, {o}).op()->result(0)
            : ConstantOp::create(builder, et, 0.0).op()->result(0);
    StoreOp::create(builder, init, out, {n, o});

    auto red = makeNest(builder, {ws[1]});
    Value* f = red[0];
    tagLoop(f, ForOp::cpfLoopId());
    Value* a = LoadOp::create(builder, in, {n, f}).op()->result(0);
    Value* b = LoadOp::create(builder, wt, {o, f}).op()->result(0);
    Value* m =
        BinaryOp::create(builder, BinaryKind::kMul, a, b).op()->result(0);
    Value* acc = LoadOp::create(builder, out, {n, o}).op()->result(0);
    Value* sum =
        BinaryOp::create(builder, BinaryKind::kAdd, acc, m).op()->result(0);
    StoreOp::create(builder, sum, out, {n, o});

    if (fold_relu) {
        Operation* f_loop = f->ownerBlock()->parentOp();
        OpBuilder tail;
        tail.setInsertionPointAfter(f_loop);
        Value* v = LoadOp::create(tail, out, {n, o}).op()->result(0);
        Value* zero = ConstantOp::create(tail, et, 0.0).op()->result(0);
        Value* relu =
            BinaryOp::create(tail, BinaryKind::kMax, v, zero).op()->result(0);
        StoreOp::create(tail, relu, out, {n, o});
    }
}

void
NnCodeGen::emitTiledLinear(OpBuilder& builder, Value* in, Value* wt,
                           Value* bias, Value* out, bool fold_relu)
{
    const auto& os = out->type().shape();  // N, O
    const auto& ws = wt->type().shape();   // O, F
    Type et = out->type().elementType();
    const int64_t tile = std::max<int64_t>(options_.tileSize, 1);
    constexpr int64_t kWeightTileBytes = 32 * 1024;
    const int64_t t_o = largestDivisorUpTo(
        os[1], std::min(tile, std::max<int64_t>(
                                  1, kWeightTileBytes / ws[1])));

    Value* in_tile = AllocOp::create(
                         builder,
                         Type::memref({ws[1]}, et, MemorySpace::kOnChip),
                         "in_tile")
                         .op()->result(0);
    Value* w_tile = AllocOp::create(
                        builder,
                        Type::memref({t_o, ws[1]}, et, MemorySpace::kOnChip),
                        "w_tile")
                        .op()->result(0);
    Value* out_tile = AllocOp::create(
                          builder,
                          Type::memref({t_o}, et, MemorySpace::kOnChip),
                          "out_tile")
                          .op()->result(0);

    DispatchOp dispatch = DispatchOp::create(builder);
    OpBuilder db(dispatch.body());
    const std::vector<int64_t> tiles = {os[0], os[1] / t_o};

    {   // Load input row.
        TaskOp task = TaskOp::create(db);
        OpBuilder tb(task.body());
        auto t_ivs = makeNest(tb, tiles, true);
        Value* n = t_ivs[0];
        auto ivs = makeNest(tb, {ws[1]});
        Value* v = LoadOp::create(tb, in, {n, ivs[0]}).op()->result(0);
        StoreOp::create(tb, v, in_tile, {ivs[0]});
    }
    {   // Load weight tile.
        TaskOp task = TaskOp::create(db);
        OpBuilder tb(task.body());
        auto t_ivs = makeNest(tb, tiles, true);
        Value* ot = t_ivs[1];
        auto ivs = makeNest(tb, {t_o, ws[1]});
        Value* ext_o =
            ApplyOp::create(tb, {ot, ivs[0]}, {t_o, 1}, 0).op()->result(0);
        Value* v = LoadOp::create(tb, wt, {ext_o, ivs[1]}).op()->result(0);
        StoreOp::create(tb, v, w_tile, {ivs[0], ivs[1]});
    }
    {   // Compute.
        TaskOp task = TaskOp::create(db);
        task.op()->setAttr(TaskOp::roleId(), Attribute::string("compute"));
        task.op()->setIntAttr(ForOp::layerSeqId(), layerSeq_);
        OpBuilder tb(task.body());
        auto t_ivs = makeNest(tb, tiles, true);
        Value* ot = t_ivs[1];
        auto ivs = makeNest(tb, {t_o});
        Value* oo = ivs[0];
        tagLoop(oo, ForOp::kpfLoopId());
        Value* init;
        if (bias != nullptr) {
            Value* ext_o =
                ApplyOp::create(tb, {ot, oo}, {t_o, 1}, 0).op()->result(0);
            init = LoadOp::create(tb, bias, {ext_o}).op()->result(0);
        } else {
            init = ConstantOp::create(tb, et, 0.0).op()->result(0);
        }
        StoreOp::create(tb, init, out_tile, {oo});
        auto red = makeNest(tb, {ws[1]});
        Value* f = red[0];
        tagLoop(f, ForOp::cpfLoopId());
        Value* a = LoadOp::create(tb, in_tile, {f}).op()->result(0);
        Value* b = LoadOp::create(tb, w_tile, {oo, f}).op()->result(0);
        Value* m = BinaryOp::create(tb, BinaryKind::kMul, a, b).op()->result(0);
        Value* acc = LoadOp::create(tb, out_tile, {oo}).op()->result(0);
        Value* sum =
            BinaryOp::create(tb, BinaryKind::kAdd, acc, m).op()->result(0);
        StoreOp::create(tb, sum, out_tile, {oo});
    }
    {   // Store (+ folded ReLU).
        TaskOp task = TaskOp::create(db);
        OpBuilder tb(task.body());
        auto t_ivs = makeNest(tb, tiles, true);
        Value *n = t_ivs[0], *ot = t_ivs[1];
        auto ivs = makeNest(tb, {t_o});
        Value* oo = ivs[0];
        Value* v = LoadOp::create(tb, out_tile, {oo}).op()->result(0);
        if (fold_relu) {
            Value* zero = ConstantOp::create(tb, et, 0.0).op()->result(0);
            v = BinaryOp::create(tb, BinaryKind::kMax, v, zero).op()->result(0);
        }
        Value* ext_o =
            ApplyOp::create(tb, {ot, oo}, {t_o, 1}, 0).op()->result(0);
        StoreOp::create(tb, v, out, {n, ext_o});
    }
}

void
NnCodeGen::lowerPool(Operation* op, bool is_max)
{
    Value* in = bufferFor(op->operand(0), op);
    Value* out = bufferFor(op->result(0), op);
    int64_t kernel = op->intAttrOr(NnWindowKeys::kernelId(), 2);
    int64_t stride = op->intAttrOr(NnWindowKeys::strideId(), 2);
    Type et = out->type().elementType();
    const auto& os = out->type().shape();

    OpBuilder builder;
    builder.setInsertionPointBefore(op);
    auto ivs = makeNest(builder, {os[0], os[1], os[2], os[3]});
    Value *n = ivs[0], *c = ivs[1], *h = ivs[2], *w = ivs[3];
    Value* init = ConstantOp::create(builder, et,
                                     is_max ? -128.0 : 0.0).op()->result(0);
    StoreOp::create(builder, init, out, {n, c, h, w});
    auto red = makeNest(builder, {kernel, kernel});
    Value *kh = red[0], *kw = red[1];
    Value* row =
        ApplyOp::create(builder, {h, kh}, {stride, 1}, 0).op()->result(0);
    Value* col =
        ApplyOp::create(builder, {w, kw}, {stride, 1}, 0).op()->result(0);
    Value* v = LoadOp::create(builder, in, {n, c, row, col}).op()->result(0);
    Value* acc = LoadOp::create(builder, out, {n, c, h, w}).op()->result(0);
    Value* next = BinaryOp::create(
                      builder, is_max ? BinaryKind::kMax : BinaryKind::kAdd,
                      acc, v)
                      .op()->result(0);
    StoreOp::create(builder, next, out, {n, c, h, w});
    if (!is_max) {
        // Average: divide by kernel^2 after the window reduction.
        Operation* kh_loop = kh->ownerBlock()->parentOp();
        OpBuilder tail;
        tail.setInsertionPointAfter(kh_loop);
        Value* sum = LoadOp::create(tail, out, {n, c, h, w}).op()->result(0);
        Value* denom = ConstantOp::create(
                           tail, et, static_cast<double>(kernel * kernel))
                           .op()->result(0);
        Value* avg = BinaryOp::create(tail, BinaryKind::kDiv, sum, denom)
                         .op()->result(0);
        StoreOp::create(tail, avg, out, {n, c, h, w});
    }
}

void
NnCodeGen::lowerElementwise(Operation* op, bool fold_relu)
{
    Value* out = bufferFor(op->result(0), op);
    Type et = out->type().elementType();
    std::vector<Value*> ins;
    for (Value* operand : op->operands())
        ins.push_back(bufferFor(operand, op));

    OpBuilder builder;
    builder.setInsertionPointBefore(op);
    std::vector<int64_t> extents = out->type().shape();
    auto ivs = makeNest(builder, extents);

    Value* value;
    if (isa<NnAddOp>(op)) {
        Value* a = LoadOp::create(builder, ins[0], ivs).op()->result(0);
        Value* b = LoadOp::create(builder, ins[1], ivs).op()->result(0);
        value =
            BinaryOp::create(builder, BinaryKind::kAdd, a, b).op()->result(0);
    } else {  // relu
        value = LoadOp::create(builder, ins[0], ivs).op()->result(0);
    }
    if (isa<ReluOp>(op) || fold_relu) {
        Value* zero = ConstantOp::create(builder, et, 0.0).op()->result(0);
        value = BinaryOp::create(builder, BinaryKind::kMax, value, zero)
                    .op()->result(0);
    }
    StoreOp::create(builder, value, out, ivs);
}

void
NnCodeGen::lowerCopyLike(Operation* op)
{
    Value* out = bufferFor(op->result(0), op);
    OpBuilder builder;
    builder.setInsertionPointBefore(op);

    if (auto flatten = dynCast<FlattenOp>(op)) {
        Value* in = bufferFor(op->operand(0), op);
        const auto& is = in->type().shape();  // N, C, H, W (or N, F)
        if (is.size() == 2) {
            CopyOp::create(builder, in, out);
            return;
        }
        auto ivs = makeNest(builder, {is[0], is[1], is[2], is[3]});
        Value* v = LoadOp::create(builder, in, ivs).op()->result(0);
        // flat index = c*H*W + h*W + w.
        Value* flat = ApplyOp::create(builder, {ivs[1], ivs[2], ivs[3]},
                                      {is[2] * is[3], is[3], 1}, 0)
                          .op()->result(0);
        StoreOp::create(builder, v, out, {ivs[0], flat});
        return;
    }
    if (auto concat = dynCast<ConcatOp>(op)) {
        int64_t offset = 0;
        for (Value* operand : op->operands()) {
            Value* in = bufferFor(operand, op);
            const auto& is = in->type().shape();
            OpBuilder nest_builder;
            nest_builder.setInsertionPointBefore(op);
            auto ivs = makeNest(nest_builder, {is[0], is[1], is[2], is[3]});
            Value* v = LoadOp::create(nest_builder, in, ivs).op()->result(0);
            Value* c_out = ApplyOp::create(nest_builder, {ivs[1]}, {1}, offset)
                               .op()->result(0);
            StoreOp::create(nest_builder, v, out,
                            {ivs[0], c_out, ivs[2], ivs[3]});
            offset += is[1];
        }
        return;
    }
    if (auto upsample = dynCast<UpsampleOp>(op)) {
        Value* in = bufferFor(op->operand(0), op);
        int64_t scale = upsample.scale();
        const auto& is = in->type().shape();
        // Nearest neighbour replication: iterate input coordinates plus the
        // replication offsets so every index stays affine:
        // out[n][c][h*scale+dh][w*scale+dw] = in[n][c][h][w].
        auto ivs = makeNest(builder,
                            {is[0], is[1], is[2], is[3], scale, scale});
        Value* v = LoadOp::create(builder, in,
                                  {ivs[0], ivs[1], ivs[2], ivs[3]})
                       .op()->result(0);
        Value* row = ApplyOp::create(builder, {ivs[2], ivs[4]}, {scale, 1}, 0)
                         .op()->result(0);
        Value* col = ApplyOp::create(builder, {ivs[3], ivs[5]}, {scale, 1}, 0)
                         .op()->result(0);
        StoreOp::create(builder, v, out, {ivs[0], ivs[1], row, col});
        return;
    }
    HIDA_PANIC("unhandled copy-like op: ", op->name());
}

class LowerNnToAffinePass : public Pass {
  public:
    explicit LowerNnToAffinePass(FlowOptions options)
        : Pass("lower-nn-to-affine"), options_(options) {}

    void
    runOnModule(ModuleOp module) override
    {
        for (Operation* op : *module.body()) {
            if (auto func = dynCast<FuncOp>(op)) {
                bool has_nn = false;
                func.op()->walk([&](Operation* nested) {
                    if (isNnOp(nested))
                        has_nn = true;
                });
                if (has_nn)
                    NnCodeGen(func, options_).run();
            }
        }
    }

  private:
    FlowOptions options_;
};

} // namespace

std::unique_ptr<Pass>
createLowerNnToAffinePass(FlowOptions options)
{
    return std::make_unique<LowerNnToAffinePass>(options);
}

} // namespace hida
