#include "audit/waits_for.h"

#include <algorithm>

namespace ccsim {

void WaitsForSnapshot::Reserve(size_t num_txns) {
  edges_.reserve(num_txns);
  waiters_.reserve(num_txns);
  first_edge_.reserve(num_txns + 1);
  color_.reserve(num_txns);
  parent_.reserve(num_txns);
  stack_.reserve(num_txns);
}

std::vector<TxnId> WaitsForSnapshot::FindCycle() {
  // Sorted edges list every waiter's blockers contiguously and ascending; a
  // repeated edge can never change the DFS, so duplicates are dropped.
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  // One pass yields the distinct waiters, ascending, and their edge ranges.
  waiters_.clear();
  first_edge_.clear();
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (waiters_.empty() || waiters_.back() != edges_[e].waiter) {
      waiters_.push_back(edges_[e].waiter);
      first_edge_.push_back(e);
    }
  }
  first_edge_.push_back(edges_.size());
  // Only a waiter can be on a cycle; any other blocker is a sink (-1).
  auto waiter_node = [this](TxnId id) {
    const auto it = std::lower_bound(waiters_.begin(), waiters_.end(), id);
    return it != waiters_.end() && *it == id
               ? static_cast<int32_t>(it - waiters_.begin())
               : -1;
  };

  // Iterative DFS with three colors; roots are the waiters, ascending.
  enum : uint8_t { kWhite, kGray, kBlack };
  const size_t n = waiters_.size();
  color_.assign(n, kWhite);
  parent_.resize(n);
  for (size_t root = 0; root < n; ++root) {
    if (color_[root] != kWhite) continue;
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
      const int32_t next = waiter_node(edges_[next_edge++].blocker);
      if (next < 0) continue;
      if (color_[static_cast<size_t>(next)] == kWhite) {
        color_[static_cast<size_t>(next)] = kGray;
        parent_[static_cast<size_t>(next)] = node;
        stack_.emplace_back(next, first_edge_[static_cast<size_t>(next)]);
      } else if (color_[static_cast<size_t>(next)] == kGray) {
        // Found a back edge node -> next: walk parents from node to next.
        std::vector<TxnId> cycle;
        cycle.push_back(waiters_[static_cast<size_t>(next)]);
        for (int32_t walk = node; walk != next;
             walk = parent_[static_cast<size_t>(walk)]) {
          cycle.push_back(waiters_[static_cast<size_t>(walk)]);
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
