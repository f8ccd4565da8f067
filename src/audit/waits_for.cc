#include "audit/waits_for.h"

#include <algorithm>

namespace ccsim {

std::vector<TxnId> WaitsForSnapshot::FindCycle() {
  // Sorted edges list every waiter's blockers contiguously and ascending; a
  // repeated edge can never change the DFS, so duplicates are dropped.
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  nodes_.clear();
  for (const Edge& edge : edges_) {
    nodes_.push_back(edge.waiter);
    nodes_.push_back(edge.blocker);
  }
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  auto index_of = [this](TxnId id) {
    return static_cast<int32_t>(
        std::lower_bound(nodes_.begin(), nodes_.end(), id) - nodes_.begin());
  };
  const size_t n = nodes_.size();
  first_edge_.assign(n + 1, 0);
  target_.resize(edges_.size());
  for (size_t e = 0; e < edges_.size(); ++e) {
    ++first_edge_[static_cast<size_t>(index_of(edges_[e].waiter)) + 1];
    target_[e] = index_of(edges_[e].blocker);
  }
  for (size_t i = 0; i < n; ++i) first_edge_[i + 1] += first_edge_[i];

  // Iterative DFS with three colors; roots are the waiters, ascending.
  enum : uint8_t { kWhite, kGray, kBlack };
  color_.assign(n, kWhite);
  parent_.resize(n);
  for (size_t root = 0; root < n; ++root) {
    if (color_[root] != kWhite || first_edge_[root] == first_edge_[root + 1]) {
      continue;
    }
    color_[root] = kGray;
    stack_.clear();
    stack_.emplace_back(static_cast<int32_t>(root), first_edge_[root]);
    while (!stack_.empty()) {
      auto& [node, next_edge] = stack_.back();
      if (next_edge == first_edge_[static_cast<size_t>(node) + 1]) {
        color_[static_cast<size_t>(node)] = kBlack;
        stack_.pop_back();
        continue;
      }
      const int32_t next = target_[next_edge++];
      if (color_[static_cast<size_t>(next)] == kWhite) {
        color_[static_cast<size_t>(next)] = kGray;
        parent_[static_cast<size_t>(next)] = node;
        stack_.emplace_back(next, first_edge_[static_cast<size_t>(next)]);
      } else if (color_[static_cast<size_t>(next)] == kGray) {
        // Found a back edge node -> next: walk parents from node to next.
        std::vector<TxnId> cycle;
        cycle.push_back(nodes_[static_cast<size_t>(next)]);
        for (int32_t walk = node; walk != next;
             walk = parent_[static_cast<size_t>(walk)]) {
          cycle.push_back(nodes_[static_cast<size_t>(walk)]);
        }
        // Reverse so each member waits for its successor.
        std::reverse(cycle.begin() + 1, cycle.end());
        return cycle;
      }
    }
  }
  return {};
}

}  // namespace ccsim
