// Simulation parameters (Tables 1 and 2 of the paper).
//
// Defaults are the paper's Table 2 settings: a 1000-page database, mean
// readset of 8 pages uniform in [4, 12], write probability 0.25, 200
// terminals, 1 second mean external think time, 35 ms object I/O and 15 ms
// object CPU. The multiprogramming level and the resource configuration are
// the quantities each experiment sweeps.
#ifndef CCSIM_WL_PARAMS_H_
#define CCSIM_WL_PARAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "util/config.h"

namespace ccsim {

/// Identifies a database object; the paper equates objects with pages.
using ObjectId = int64_t;

/// One class of a multi-class transaction mix (extension; the paper's
/// workload is a single class). A class overrides the size and write
/// probability knobs; everything else (think times, skew, costs) is shared.
struct TxnClass {
  std::string name = "default";
  /// Probability that a new transaction belongs to this class; the fractions
  /// of all classes must sum to 1.
  double fraction = 1.0;
  int tran_size = 8;
  int min_size = 4;
  int max_size = 12;
  double write_prob = 0.25;
};

/// Workload and system parameters (Table 1), with Table 2 defaults.
struct WorkloadParams {
  /// Number of objects in the database.
  int64_t db_size = 1000;
  /// Mean transaction readset size; mean of the uniform [min_size, max_size].
  int tran_size = 8;
  /// Smallest readset size.
  int min_size = 4;
  /// Largest readset size.
  int max_size = 12;
  /// Probability that a read object is also written.
  double write_prob = 0.25;
  /// Number of terminals (the closed population of users).
  int num_terms = 200;
  /// Multiprogramming level: maximum concurrently active transactions.
  int mpl = 50;
  /// Mean time between a commit and the terminal's next submission
  /// (exponential).
  SimTime ext_think_time = kSecond;
  /// Mean intra-transaction think time between the read phase and the write
  /// phase (exponential); 0 disables the internal think path.
  SimTime int_think_time = 0;
  /// I/O service time to read or write one object.
  SimTime obj_io = FromMillis(35);
  /// CPU service time to process one object.
  SimTime obj_cpu = FromMillis(15);
  /// CPU cost of one concurrency control request. The paper's per-transaction
  /// arithmetic implies zero; kept configurable (see DESIGN.md).
  SimTime cc_cpu = 0;
  /// Buffer-pool model (extension; the paper charges every access the full
  /// obj_io): probability that a read hits the buffer and skips the disk
  /// entirely (deferred updates always go to disk). 0 reproduces the paper.
  double buffer_hit_prob = 0.0;
  /// Commit logging (extension, after [Agra83]'s integrated CC + recovery):
  /// if > 0, every committing update transaction writes one log record of
  /// this I/O cost to a dedicated sequential log disk before its deferred
  /// updates are applied. 0 reproduces the paper (no recovery cost).
  SimTime log_io = 0;
  /// Access skew (the classic "x-y rule"): a read targets the *hot set* —
  /// the first ceil(hot_fraction_db * db_size) objects — with probability
  /// hot_access_prob, and the cold remainder otherwise. Both 0 (the paper's
  /// uniform model) disables skew; e.g. 0.2/0.8 is the 80-20 rule.
  double hot_fraction_db = 0.0;
  double hot_access_prob = 0.0;
  /// Fraction of transactions that are read-only regardless of write_prob
  /// (a two-class workload mix; 0 reproduces the paper's single class).
  double read_only_fraction = 0.0;
  /// Multi-class mix (extension). Empty reproduces the paper's single class
  /// drawn from the scalar size/write_prob fields above; otherwise each
  /// transaction is drawn from one of these classes and the scalar fields
  /// are ignored for sizing. Incompatible with read_only_fraction (express
  /// a read-only class explicitly instead).
  std::vector<TxnClass> classes;

  /// Number of classes (1 for the paper's single-class workload).
  int ClassCount() const {
    return classes.empty() ? 1 : static_cast<int>(classes.size());
  }

  /// Name of class `index` ("default" for the single-class workload).
  std::string ClassName(int index) const {
    return classes.empty() ? "default"
                           : classes[static_cast<size_t>(index)].name;
  }

  /// Aborts if the parameters are inconsistent (e.g. max_size > db_size).
  void Validate() const;

  /// Number of objects in the hot set (0 when skew is disabled); hot objects
  /// are ids [0, HotSetSize()).
  int64_t HotSetSize() const;

  /// Applies `key=value` overrides from a Config. Each key is a field's
  /// name, except that the service and log times are read in milliseconds
  /// as obj_io_ms, obj_cpu_ms, cc_cpu_ms and log_io_ms; think times are in
  /// seconds. The function body is the list of keys.
  void ApplyConfig(const Config& config);
};

}  // namespace ccsim

#endif  // CCSIM_WL_PARAMS_H_
