// Reference waits-for cycle search for the differential tests: a plain
// recursive DFS over an ordered adjacency map that follows
// WaitsForSnapshot::FindCycle's rules — roots in ascending id order, each
// node's blockers in ascending order, and the first edge back to a node on
// the current path closes the cycle — with none of its flattening, sorting
// or indexing. WaitsForSnapshot and the lock manager's deep check must both
// name the cycle this finds.
#ifndef CCSIM_TESTS_REFERENCE_CYCLE_H_
#define CCSIM_TESTS_REFERENCE_CYCLE_H_

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "cc/types.h"

namespace ccsim {

/// Waiter -> the transactions it waits for. Repeated edges collapse; an id
/// with no entry (or an empty one) waits for nobody.
using ReferenceGraph = std::map<TxnId, std::set<TxnId>>;

/// One cycle as ordered members (each waits for the next, the last for the
/// first), or empty if the graph is acyclic.
inline std::vector<TxnId> ReferenceWaitsForCycle(const ReferenceGraph& graph) {
  enum Color { kWhite, kGray, kBlack };
  std::map<TxnId, Color> color;  // Absent means white.
  std::vector<TxnId> path;       // The gray nodes, root first.
  std::vector<TxnId> cycle;
  auto visit = [&](auto& self, TxnId node) -> bool {
    color[node] = kGray;
    path.push_back(node);
    if (auto it = graph.find(node); it != graph.end()) {
      for (TxnId next : it->second) {
        const auto seen = color.find(next);
        if (seen == color.end()) {
          if (self(self, next)) return true;
        } else if (seen->second == kGray) {
          cycle.assign(std::find(path.begin(), path.end(), next), path.end());
          return true;
        }
      }
    }
    color[node] = kBlack;
    path.pop_back();
    return false;
  };
  for (const auto& [root, blockers] : graph) {
    if (!color.contains(root) && !blockers.empty() && visit(visit, root)) {
      return cycle;
    }
  }
  return {};
}

}  // namespace ccsim

#endif  // CCSIM_TESTS_REFERENCE_CYCLE_H_
