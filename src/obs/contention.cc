#include "obs/contention.h"

#include <algorithm>
#include <fstream>

#include "util/check.h"

namespace ccsim {

ContentionProfiler::ContentionProfiler(size_t capacity)
    : capacity_(capacity) {
  CCSIM_CHECK_GE(capacity, 1u) << "contention sketch needs capacity >= 1";
  entries_.reserve(capacity);
}

void ContentionProfiler::Record(ObjectId obj, BlameKind kind) {
  auto it = entries_.find(obj);
  if (it == entries_.end()) {
    int64_t floor = 0;
    if (entries_.size() >= capacity_) {
      // Space-Saving eviction: drop the minimum-count entry; among equals
      // the largest object id goes first, so the survivor set is a pure
      // function of the event stream.
      auto victim = entries_.begin();
      for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
        if (cand->second.conflicts < victim->second.conflicts ||
            (cand->second.conflicts == victim->second.conflicts &&
             cand->first > victim->first)) {
          victim = cand;
        }
      }
      floor = victim->second.conflicts;
      entries_.erase(victim);
    }
    Entry entry;
    entry.object = obj;
    // The inherited floor is attributed to neither column: blocks+restarts
    // count only *observed* events; `conflicts` carries the overestimate.
    entry.conflicts = floor;
    it = entries_.emplace(obj, entry).first;
  }
  ++it->second.conflicts;
  if (kind == BlameKind::kBlock) {
    ++it->second.blocks;
  } else {
    ++it->second.restarts;
  }
}

void ContentionProfiler::Reset() {
  entries_.clear();
}

std::vector<ContentionProfiler::Entry> ContentionProfiler::TopK(
    size_t k) const {
  std::vector<Entry> sorted;
  sorted.reserve(entries_.size());
  for (const auto& [obj, entry] : entries_) sorted.push_back(entry);
  std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
    if (a.conflicts != b.conflicts) return a.conflicts > b.conflicts;
    return a.object < b.object;
  });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

bool ContentionProfiler::WriteCsv(const std::string& path, size_t k) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  out << "object,conflicts,blocks,restarts\n";
  for (const Entry& entry : TopK(k)) {
    out << entry.object << ',' << entry.conflicts << ',' << entry.blocks
        << ',' << entry.restarts << '\n';
  }
  out.flush();
  return out.good();
}

}  // namespace ccsim
