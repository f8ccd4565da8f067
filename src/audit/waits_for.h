// Waits-for graph snapshot used by the audit layer.
//
// Algorithms hand the auditor a snapshot of "who waits for whom"; a cycle
// among transactions that no deadlock resolution has already doomed means a
// permanently blocked set — the simulation would still tick (terminal events
// keep firing) while part of its population is silently wedged, quietly
// skewing every reported metric.
#ifndef CCSIM_AUDIT_WAITS_FOR_H_
#define CCSIM_AUDIT_WAITS_FOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cc/types.h"

namespace ccsim {

/// A reusable flat list of waits-for edges. Clear() empties it but keeps
/// every buffer's capacity (FindCycle's scratch included), so a deep check
/// that rebuilds the snapshot each time allocates nothing once warm.
class WaitsForSnapshot {
 public:
  /// Records that `waiter` waits for `blocker`. Duplicates are allowed.
  void AddEdge(TxnId waiter, TxnId blocker) {
    edges_.push_back(Edge{waiter, blocker});
  }

  void Clear() { edges_.clear(); }
  bool empty() const { return edges_.empty(); }

  /// Pre-sizes FindCycle's scratch (and the edge list, one edge per
  /// waiter) for `num_txns` transactions; a capacity hint only.
  void Reserve(size_t num_txns);

  /// Returns one cycle as an ordered list of transactions (each waiting for
  /// the next, the last waiting for the first), or an empty vector if the
  /// graph is acyclic. Deterministic: the DFS takes roots in ascending TxnId
  /// order and each node's blockers in ascending order, so the same snapshot
  /// always yields the same cycle, whatever order its edges were added in.
  /// Only waiters are nodes: an edge to a blocker that waits for nobody
  /// leads to a sink and is skipped. Sorts the edge list in place.
  std::vector<TxnId> FindCycle();

 private:
  struct Edge {
    TxnId waiter;
    TxnId blocker;
    friend auto operator<=>(const Edge&, const Edge&) = default;
  };

  std::vector<Edge> edges_;
  // FindCycle scratch; a node is an index into waiters_.
  std::vector<TxnId> waiters_;  ///< Every distinct waiter, ascending.
  /// Node i's edges are edges_[first_edge_[i] .. first_edge_[i + 1]).
  std::vector<size_t> first_edge_;
  std::vector<uint8_t> color_;   ///< DFS color per node.
  std::vector<int32_t> parent_;  ///< DFS tree parent per node.
  std::vector<std::pair<int32_t, size_t>> stack_;  ///< (node, next edge).
};

}  // namespace ccsim

#endif  // CCSIM_AUDIT_WAITS_FOR_H_
