#include "src/analysis/dataflow_graph.h"

#include <algorithm>

#include "src/support/diagnostics.h"

namespace hida {

DataflowGraph::DataflowGraph(ScheduleOp schedule) : schedule_(schedule)
{
    nodes_ = schedule.nodes();

    // Channel discovery: schedule args are external; buffers/streams
    // allocated directly in the body are internal.
    for (Value* arg : schedule.body()->arguments())
        if (arg->type().isMemRef() || arg->type().isStream())
            external_.push_back(arg);
    for (Operation* op : *schedule.body())
        if (isa<BufferOp>(op) || isa<StreamOp>(op))
            internal_.push_back(op->result(0));

    // One pass over the node operands resolves every channel's producer
    // and consumer lists (program order; a node appears at most once per
    // list even when it carries the channel as several operands).
    for (NodeOp node : nodes_) {
        for (unsigned i = 0; i < node.op()->numOperands(); ++i) {
            Value* channel = node.op()->operand(i);
            if (node.writes(i)) {
                auto& list = producers_[channel];
                if (list.empty() || list.back().op() != node.op())
                    list.push_back(node);
            }
            if (node.reads(i)) {
                auto& list = consumers_[channel];
                if (list.empty() || list.back().op() != node.op())
                    list.push_back(node);
            }
        }
    }

    // Edges: for every channel, every (writer, reader) pair where the
    // writer precedes the reader in program order.
    auto add_edges_for = [&](Value* channel) {
        for (NodeOp producer : producers(channel)) {
            for (NodeOp consumer : consumers(channel)) {
                if (producer.op() == consumer.op())
                    continue;
                if (producer.op()->isBeforeInBlock(consumer.op()))
                    edges_.push_back(
                        {producer.op(), consumer.op(), channel});
            }
        }
    };
    for (Value* channel : internal_)
        add_edges_for(channel);
    for (Value* channel : external_)
        add_edges_for(channel);
}

const std::vector<NodeOp>&
DataflowGraph::producers(Value* channel) const
{
    static const std::vector<NodeOp> kEmpty;
    auto it = producers_.find(channel);
    return it == producers_.end() ? kEmpty : it->second;
}

const std::vector<NodeOp>&
DataflowGraph::consumers(Value* channel) const
{
    static const std::vector<NodeOp> kEmpty;
    auto it = consumers_.find(channel);
    return it == consumers_.end() ? kEmpty : it->second;
}

std::vector<NodeOp>
DataflowGraph::successors(NodeOp node) const
{
    std::vector<NodeOp> result;
    for (const DataflowEdge& edge : edges_) {
        if (edge.producer == node.op()) {
            NodeOp consumer(edge.consumer);
            if (std::none_of(result.begin(), result.end(), [&](NodeOp n) {
                    return n.op() == consumer.op();
                }))
                result.push_back(consumer);
        }
    }
    return result;
}

std::vector<NodeOp>
DataflowGraph::predecessors(NodeOp node) const
{
    std::vector<NodeOp> result;
    for (const DataflowEdge& edge : edges_) {
        if (edge.consumer == node.op()) {
            NodeOp producer(edge.producer);
            if (std::none_of(result.begin(), result.end(), [&](NodeOp n) {
                    return n.op() == producer.op();
                }))
                result.push_back(producer);
        }
    }
    return result;
}

std::map<Operation*, int64_t>
DataflowGraph::longestPathTo(const std::map<Operation*, int64_t>& weight) const
{
    std::map<Operation*, int64_t> dist;
    auto weight_of = [&](Operation* op) {
        auto it = weight.find(op);
        return it == weight.end() ? int64_t{1} : it->second;
    };
    // Program order is topological (writers precede readers).
    for (NodeOp node : nodes_) {
        int64_t best = 0;
        for (NodeOp pred : predecessors(node))
            best = std::max(best, dist[pred.op()]);
        dist[node.op()] = best + weight_of(node.op());
    }
    return dist;
}

int64_t
DataflowGraph::connectionCount(NodeOp node) const
{
    return static_cast<int64_t>(successors(node).size() +
                                predecessors(node).size());
}

} // namespace hida
