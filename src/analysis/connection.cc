#include "src/analysis/connection.h"

#include <algorithm>
#include <sstream>

#include "src/dialect/arith/arith_ops.h"
#include "src/dialect/memref/memref_ops.h"
#include "src/support/diagnostics.h"

namespace hida {

std::vector<ForOp>
nodeBand(NodeOp node)
{
    Block* body = node.body();
    // A node lowered into a sub-schedule is parallelized level-by-level.
    for (Operation* op : *body)
        if (isa<ScheduleOp>(op))
            return {};
    // The band is the perfect nest rooted at the *last* top-level loop —
    // fused nodes keep auxiliary (e.g. init) nests in front of the main
    // compute nest. Tile loops are iteration scaffolding, not unrollable
    // point loops, and are dropped from the band.
    std::vector<ForOp> loops = topLevelLoops(body);
    if (loops.empty())
        return {};
    std::vector<ForOp> nest = perfectNest(loops.back());
    std::vector<ForOp> band;
    for (ForOp loop : nest)
        if (!loop.op()->hasAttr(ForOp::tileLoopId()))
            band.push_back(loop);
    return band;
}

namespace {

/** Band level of @p iv inside @p band, or kEmptyLevel. */
int64_t
bandLevelOf(const std::vector<ForOp>& band, Value* iv)
{
    for (size_t i = 0; i < band.size(); ++i)
        if (band[i].inductionVar() == iv)
            return static_cast<int64_t>(i);
    return kEmptyLevel;
}

/** Pick the deepest band-resident term of an affine index expression. */
DimAccess
primaryTerm(const AffineIndexExpr& expr, const std::vector<ForOp>& band)
{
    DimAccess result;
    for (const AffineTerm& term : expr.terms) {
        int64_t level = bandLevelOf(band, term.iv);
        if (level != kEmptyLevel && level >= result.bandLevel) {
            result.bandLevel = level;
            result.coeff = term.coeff;
        }
    }
    return result;
}

} // namespace

std::vector<DimAccess>
accessPattern(NodeOp node, Value* channel, bool want_store)
{
    // Map the schedule-level channel to the node's inner block argument.
    Value* inner = nullptr;
    for (unsigned i = 0; i < node.op()->numOperands(); ++i) {
        if (node.op()->operand(i) == channel) {
            inner = node.innerArg(i);
            break;
        }
    }
    if (inner == nullptr)
        return {};

    std::vector<ForOp> band = nodeBand(node);
    std::vector<DimAccess> result;
    bool found = false;
    node.op()->walk([&](Operation* op) {
        if (found)
            return;
        std::vector<Value*> indices;
        if (want_store && isa<StoreOp>(op) && StoreOp(op).memref() == inner) {
            StoreOp store(op);
            for (unsigned i = 0; i < store.numIndices(); ++i)
                indices.push_back(store.index(i));
        } else if (!want_store && isAffineLoad(op) &&
                   op->operand(0) == inner) {
            LoadOp load(op);
            for (unsigned i = 0; i < load.numIndices(); ++i)
                indices.push_back(load.index(i));
        } else {
            return;
        }
        found = true;
        for (Value* index : indices) {
            auto expr = decomposeIndex(index);
            if (!expr) {
                result.clear();
                return;
            }
            result.push_back(primaryTerm(*expr, band));
        }
    }, WalkOrder::kPreOrder);
    return result;
}

std::string
Connection::str() const
{
    auto perm_str = [](const std::vector<int64_t>& perm) {
        std::ostringstream os;
        os << "[";
        for (size_t i = 0; i < perm.size(); ++i) {
            if (i)
                os << ", ";
            if (perm[i] == kEmptyLevel)
                os << "_";
            else
                os << perm[i];
        }
        os << "]";
        return os.str();
    };
    auto scale_str = [](const std::vector<double>& scale) {
        std::ostringstream os;
        os << "[";
        for (size_t i = 0; i < scale.size(); ++i) {
            if (i)
                os << ", ";
            if (scale[i] == 0.0)
                os << "_";
            else
                os << scale[i];
        }
        os << "]";
        return os.str();
    };
    std::ostringstream os;
    os << source.label() << " -> " << target.label()
       << " via " << (buffer ? buffer->nameHint() : "?")
       << "  perm(S-to-T)=" << perm_str(permSToT)
       << " perm(T-to-S)=" << perm_str(permTToS)
       << " scale(S-to-T)=" << scale_str(scaleSToT)
       << " scale(T-to-S)=" << scale_str(scaleTToS);
    return os.str();
}

std::vector<Connection>
analyzeConnections(const DataflowGraph& graph)
{
    std::vector<Connection> result;
    for (const DataflowEdge& edge : graph.edges()) {
        NodeOp source(edge.producer);
        NodeOp target(edge.consumer);
        std::vector<ForOp> src_band = nodeBand(source);
        std::vector<ForOp> tgt_band = nodeBand(target);
        if (src_band.empty() || tgt_band.empty())
            continue;

        std::vector<DimAccess> store =
            accessPattern(source, edge.channel, true);
        std::vector<DimAccess> load =
            accessPattern(target, edge.channel, false);
        if (store.empty() || load.empty() || store.size() != load.size())
            continue;

        Connection conn;
        conn.source = source;
        conn.target = target;
        conn.buffer = edge.channel;
        conn.permSToT.assign(tgt_band.size(), kEmptyLevel);
        conn.permTToS.assign(src_band.size(), kEmptyLevel);
        conn.scaleSToT.assign(src_band.size(), 0.0);
        conn.scaleTToS.assign(tgt_band.size(), 0.0);

        for (size_t dim = 0; dim < store.size(); ++dim) {
            const DimAccess& s = store[dim];
            const DimAccess& t = load[dim];
            if (s.bandLevel == kEmptyLevel || t.bandLevel == kEmptyLevel)
                continue;
            if (s.coeff == 0 || t.coeff == 0)
                continue;
            conn.permSToT[t.bandLevel] = s.bandLevel;
            conn.permTToS[s.bandLevel] = t.bandLevel;
            conn.scaleSToT[s.bandLevel] =
                static_cast<double>(std::abs(s.coeff)) /
                static_cast<double>(std::abs(t.coeff));
            conn.scaleTToS[t.bandLevel] =
                static_cast<double>(std::abs(t.coeff)) /
                static_cast<double>(std::abs(s.coeff));
        }
        result.push_back(std::move(conn));
    }
    return result;
}

namespace {

int64_t
intensityOfBlock(Block* block);

int64_t
intensityOfOp(Operation* op)
{
    if (auto loop = dynCast<ForOp>(op)) {
        int64_t body = intensityOfBlock(loop.body());
        // Pure data-movement loops still execute one access per iteration.
        return loop.tripCount() * std::max<int64_t>(body, 1);
    }
    if (isa<ScheduleOp>(op) || isa<NodeOp>(op)) {
        int64_t total = 0;
        for (const auto& blk : op->region(0).blocks())
            total += intensityOfBlock(blk.get());
        return total;
    }
    if (isa<BinaryOp>(op))
        return 1;
    if (auto copy = dynCast<CopyOp>(op))
        return copy.source()->type().numElements();
    return 0;
}

int64_t
intensityOfBlock(Block* block)
{
    int64_t total = 0;
    for (Operation* op : *block)
        total += intensityOfOp(op);
    return total;
}

} // namespace

int64_t
nodeIntensity(NodeOp node)
{
    return intensityOfBlock(node.body());
}

} // namespace hida
