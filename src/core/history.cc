#include "core/history.h"

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_set>

#include "util/str.h"

namespace ccsim {

void HistoryRecorder::OnEvent(const EngineEvent& event) {
  switch (event.kind) {
    case EngineEventKind::kActivate:
      RecordActivation(event.txn, event.incarnation);
      break;
    case EngineEventKind::kCcDecision:
      if ((event.op == CcOp::kRead || event.op == CcOp::kWriteIntent) &&
          event.decision == CCDecision::kGranted) {
        RecordRead(event.txn, event.incarnation, event.object, event.time);
      }
      break;
    case EngineEventKind::kVersionRead:
      RecordVersionRead(event.txn, event.incarnation, event.object,
                        event.opponent);
      break;
    case EngineEventKind::kCommitting:
      for (ObjectId obj : *event.write_set) {
        RecordWrite(event.txn, event.incarnation, obj / granule_size_,
                    event.time);
      }
      break;
    case EngineEventKind::kCommit:
      RecordCommit(event.txn, event.incarnation);
      break;
    case EngineEventKind::kRestart:
      RecordAbort(event.txn, event.incarnation);
      break;
    default:
      break;
  }
}

std::string SerializabilityResult::ToString() const {
  if (serializable) {
    return StringPrintf("serializable (%lld nodes, %lld edges)",
                        static_cast<long long>(nodes),
                        static_cast<long long>(edges));
  }
  std::string out = "NOT serializable; cycle:";
  for (TxnId t : cycle) out += StringPrintf(" %lld", static_cast<long long>(t));
  return out;
}

SerializabilityResult CheckConflictSerializability(
    const HistoryRecorder& history) {
  SerializabilityResult result;

  // Committed incarnations' ops only, grouped per object in sequence order.
  std::unordered_map<ObjectId, std::vector<const HistoryOp*>> per_object;
  std::unordered_set<TxnId> nodes;
  for (const HistoryOp& op : history.ops()) {
    if (!history.IsCommitted(op.txn, op.incarnation)) continue;
    per_object[op.object].push_back(&op);
    nodes.insert(op.txn);
  }
  result.nodes = static_cast<int64_t>(nodes.size());

  // Conflict edges: for each object, every ordered pair of ops from different
  // transactions where at least one is a write. Ops arrive already in
  // sequence order because the recorder appends monotonically.
  std::unordered_map<TxnId, std::set<TxnId>> adjacency;
  std::unordered_map<TxnId, int> in_degree;
  for (TxnId t : nodes) in_degree[t] = 0;

  for (auto& [object, ops] : per_object) {
    (void)object;
    for (size_t i = 0; i < ops.size(); ++i) {
      for (size_t j = i + 1; j < ops.size(); ++j) {
        if (ops[i]->txn == ops[j]->txn) continue;
        bool conflict = ops[i]->kind == HistoryOp::Kind::kWrite ||
                        ops[j]->kind == HistoryOp::Kind::kWrite;
        if (!conflict) continue;
        if (adjacency[ops[i]->txn].insert(ops[j]->txn).second) {
          ++in_degree[ops[j]->txn];
          ++result.edges;
        }
      }
    }
  }

  // Kahn's algorithm; nodes that never reach in-degree 0 lie on cycles.
  std::deque<TxnId> ready;
  for (auto& [txn, degree] : in_degree) {
    if (degree == 0) ready.push_back(txn);
  }
  size_t removed = 0;
  while (!ready.empty()) {
    TxnId txn = ready.front();
    ready.pop_front();
    ++removed;
    auto it = adjacency.find(txn);
    if (it == adjacency.end()) continue;
    for (TxnId next : it->second) {
      if (--in_degree[next] == 0) ready.push_back(next);
    }
  }

  if (removed == nodes.size()) return result;

  result.serializable = false;
  // Report the residual nodes (all lie on or feed cycles); trim to the ones
  // with nonzero in-degree for a compact diagnostic.
  for (auto& [txn, degree] : in_degree) {
    if (degree > 0) result.cycle.push_back(txn);
  }
  std::sort(result.cycle.begin(), result.cycle.end());
  return result;
}

namespace {

/// Kahn's-algorithm acyclicity check shared by the MV path.
SerializabilityResult CheckAcyclic(
    const std::unordered_set<TxnId>& nodes,
    const std::unordered_map<TxnId, std::set<TxnId>>& adjacency) {
  SerializabilityResult result;
  result.nodes = static_cast<int64_t>(nodes.size());
  std::unordered_map<TxnId, int> in_degree;
  for (TxnId t : nodes) in_degree[t] = 0;
  for (const auto& [from, tos] : adjacency) {
    (void)from;
    for (TxnId to : tos) {
      ++in_degree[to];
      ++result.edges;
    }
  }
  std::deque<TxnId> ready;
  for (auto& [txn, degree] : in_degree) {
    if (degree == 0) ready.push_back(txn);
  }
  size_t removed = 0;
  while (!ready.empty()) {
    TxnId txn = ready.front();
    ready.pop_front();
    ++removed;
    auto it = adjacency.find(txn);
    if (it == adjacency.end()) continue;
    for (TxnId next : it->second) {
      if (--in_degree[next] == 0) ready.push_back(next);
    }
  }
  if (removed != nodes.size()) {
    result.serializable = false;
    for (auto& [txn, degree] : in_degree) {
      if (degree > 0) result.cycle.push_back(txn);
    }
    std::sort(result.cycle.begin(), result.cycle.end());
  }
  return result;
}

}  // namespace

SerializabilityResult CheckMultiversionSerializability(
    const HistoryRecorder& history) {
  // Committed write sets, and per-object committed writers in version order
  // (activation sequence = timestamp order for T/O algorithms).
  std::unordered_set<TxnId> nodes;
  std::unordered_map<ObjectId, std::vector<TxnId>> writers;
  for (const HistoryOp& op : history.ops()) {
    if (op.kind != HistoryOp::Kind::kWrite) continue;
    if (!history.IsCommitted(op.txn, op.incarnation)) continue;
    auto& list = writers[op.object];
    if (std::find(list.begin(), list.end(), op.txn) == list.end()) {
      list.push_back(op.txn);
    }
    nodes.insert(op.txn);
  }
  for (auto& [object, list] : writers) {
    (void)object;
    std::sort(list.begin(), list.end(), [&](TxnId a, TxnId b) {
      return history.ActivationSeq(a) < history.ActivationSeq(b);
    });
  }

  std::unordered_map<TxnId, std::set<TxnId>> adjacency;

  // ww edges along each object's version order.
  for (auto& [object, list] : writers) {
    (void)object;
    for (size_t i = 0; i + 1 < list.size(); ++i) {
      adjacency[list[i]].insert(list[i + 1]);
    }
  }

  // wr and rw edges from committed version reads.
  for (const VersionReadOp& read : history.version_reads()) {
    if (!history.IsCommitted(read.txn, read.incarnation)) continue;
    nodes.insert(read.txn);
    if (read.version_writer != kInvalidTxn) {
      nodes.insert(read.version_writer);
      if (read.version_writer != read.txn) {
        adjacency[read.version_writer].insert(read.txn);
      }
    }
    // The reader precedes every writer whose version follows the one read.
    auto writer_list = writers.find(read.object);
    if (writer_list == writers.end()) continue;
    uint64_t read_version_pos =
        read.version_writer == kInvalidTxn
            ? 0
            : history.ActivationSeq(read.version_writer) + 1;
    for (TxnId later : writer_list->second) {
      if (later == read.txn || later == read.version_writer) continue;
      if (history.ActivationSeq(later) + 1 >= read_version_pos) {
        adjacency[read.txn].insert(later);
      }
    }
  }

  // Normalize: drop self-edges defensively and ensure all nodes exist.
  for (auto& [from, tos] : adjacency) {
    tos.erase(from);
    nodes.insert(from);
    for (TxnId t : tos) nodes.insert(t);
  }

  return CheckAcyclic(nodes, adjacency);
}

SerializabilityResult CheckHistorySerializability(const HistoryRecorder& history) {
  return history.has_version_reads() ? CheckMultiversionSerializability(history)
                                     : CheckConflictSerializability(history);
}

}  // namespace ccsim
