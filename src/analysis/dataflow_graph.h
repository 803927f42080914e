#ifndef HIDA_ANALYSIS_DATAFLOW_GRAPH_H
#define HIDA_ANALYSIS_DATAFLOW_GRAPH_H

/**
 * @file
 * Graph view over a Structural schedule: nodes connected through the
 * buffers/streams they share. Drives multi-producer elimination, data-path
 * balancing, the parallelization ordering, the QoR estimator and the
 * dataflow simulator.
 */

#include <cstdint>
#include <map>
#include <vector>

#include "src/dialect/hida/hida_ops.h"

namespace hida {

/** One producer->consumer edge realized by a shared buffer/stream. */
struct DataflowEdge {
    Operation* producer = nullptr;  ///< hida.node writing the buffer.
    Operation* consumer = nullptr;  ///< hida.node reading the buffer.
    Value* channel = nullptr;       ///< The shared buffer/stream value.
};

/**
 * Graph over the direct nodes of one hida.schedule.
 *
 * Construction resolves every channel's producer/consumer node lists in
 * one pass over the node operands; the per-channel queries below are
 * cached map lookups afterwards. The graph is plain value-semantic data
 * (copyable and movable), so clients that survive across IR edits — the
 * QoR estimator's per-schedule cache — can keep one around and
 * revalidate it against the schedule tree's structure epoch
 * (schedule.op()->structureEpoch()) instead of rebuilding per query.
 */
class DataflowGraph {
  public:
    /** Build the graph for @p schedule (direct child nodes only). */
    explicit DataflowGraph(ScheduleOp schedule);

    ScheduleOp schedule() const { return schedule_; }
    const std::vector<NodeOp>& nodes() const { return nodes_; }
    const std::vector<DataflowEdge>& edges() const { return edges_; }

    /** Nodes writing @p channel, in program order. */
    std::vector<NodeOp> producersOf(Value* channel) const
    {
        return producers(channel);
    }
    /** Nodes reading @p channel, in program order. */
    std::vector<NodeOp> consumersOf(Value* channel) const
    {
        return consumers(channel);
    }

    /** Allocation-free producer query (cached, program order). */
    const std::vector<NodeOp>& producers(Value* channel) const;
    /** Allocation-free consumer query (cached, program order). */
    const std::vector<NodeOp>& consumers(Value* channel) const;

    /** Buffers/streams allocated inside the schedule body. */
    std::vector<Value*> internalChannels() const { return internal_; }
    /** Buffers/streams passed in as schedule arguments. */
    std::vector<Value*> externalChannels() const { return external_; }

    /** Direct successors/predecessors of @p node over all edges. */
    std::vector<NodeOp> successors(NodeOp node) const;
    std::vector<NodeOp> predecessors(NodeOp node) const;

    /** Nodes in a topological order (program order is already topological
     * for schedules produced by the lowering; this validates & returns it). */
    std::vector<NodeOp> topoOrder() const { return nodes_; }

    /**
     * Longest path length (in nodes, weighted by @p weight) from a source
     * node to each node. Used by data-path balancing (Section 6.4.2).
     */
    std::map<Operation*, int64_t>
    longestPathTo(const std::map<Operation*, int64_t>& weight = {}) const;

    /** Number of connections (distinct counterpart nodes) of @p node. */
    int64_t connectionCount(NodeOp node) const;

  private:
    ScheduleOp schedule_;
    std::vector<NodeOp> nodes_;
    std::vector<DataflowEdge> edges_;
    std::vector<Value*> internal_;
    std::vector<Value*> external_;
    /** Per-channel node lists, filled once during construction. */
    std::map<Value*, std::vector<NodeOp>> producers_;
    std::map<Value*, std::vector<NodeOp>> consumers_;
};

} // namespace hida

#endif // HIDA_ANALYSIS_DATAFLOW_GRAPH_H
