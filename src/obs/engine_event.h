// The engine's event stream (docs/OBSERVABILITY.md "Engine events").
//
// ClosedSystem emits one EngineEvent at each point of a transaction's
// lifecycle and of the run, to the EngineListeners it builds from its
// configuration: the audit glue, the history recorder, the lifecycle
// TraceSink and observability. A listener sees the event and const views of
// the engine only, so no listener can steer the simulation. The types live
// in obs/, below core/ in the link order, so both layers can name them.
#ifndef CCSIM_OBS_ENGINE_EVENT_H_
#define CCSIM_OBS_ENGINE_EVENT_H_

#include <cstdint>
#include <vector>

#include "cc/types.h"
#include "sim/time.h"

namespace ccsim {

enum class EngineEventKind : uint8_t {
  // Transaction lifecycle.
  kSubmit,       ///< Entered the ready queue as a new transaction.
  kActivate,     ///< Admitted under the mpl; `incarnation` begins.
  kCcDecision,   ///< The cc algorithm answered `op` with `decision`.
  kBlock,        ///< A cc request put the transaction to sleep.
  kResume,       ///< A grant woke the blocked transaction for a retry.
  kServiceDone,  ///< One `service` step of `duration` µs finished.
  kThinkStart,   ///< Began its internal think.
  kThinkEnd,     ///< Finished an internal think of `duration` µs.
  kCommitting,   ///< Deferred writes become visible; cc Commit follows.
  kCommit,       ///< Committed; the cc algorithm's Commit has run.
  kRestart,      ///< The incarnation aborted for `cause`; re-entry follows.
  /// A transition finished and the census is consistent: NextStep entry, a
  /// resume, the end of a commit or restart. Names no transaction.
  kSettled,
  kBlame,        ///< CCEngine::OnBlame: `txn` is the victim of `opponent`.
  kVersionRead,  ///< CCEngine::OnVersionRead: `opponent` wrote the version.
  // Run (no transaction).
  kRunStart,      ///< Prime(): the terminals are about to start.
  kMeasureReset,  ///< Warmup ended; measurement accumulators reset.
  kRunEnd,        ///< RunExperiment's last batch closed.
};

/// Which cc request a kCcDecision answers.
enum class CcOp : uint8_t {
  kPredeclare,   ///< Static locking's declaration of `count` granules.
  kRead,
  kWriteIntent,  ///< A read requested in write mode (x_lock_on_read_intent).
  kWrite,
  kValidate,     ///< Commit-point validation: kGranted or kRestart.
};

/// One step of a transaction that costs resource service.
enum class ServiceKind : uint8_t {
  kCcCpu,       ///< cc_cpu ahead of a cc request.
  kReadDisk,    ///< obj_io of a read (skipped on a buffer hit).
  kReadCpu,     ///< obj_cpu of a read.
  kWriteCpu,    ///< obj_cpu of a write request (the update is buffered).
  kLog,         ///< The commit log record (log_io).
  kUpdateDisk,  ///< obj_io of one deferred update.
  kGroupLog,    ///< One group-commit flush (no kServiceDone event).
};

/// Why an incarnation restarted.
enum class RestartCause : uint8_t {
  kWound,       ///< Chosen as a victim (deadlock or wound-wait).
  kDecision,    ///< The cc algorithm answered kRestart to a request.
  kValidation,  ///< Commit-point validation failed.
};

/// One engine event: a plain record whose fields after `incarnation` are
/// meaningful only for the kinds named beside them.
struct EngineEvent {
  EngineEventKind kind = EngineEventKind::kSettled;
  SimTime time = 0;
  TxnId txn = kInvalidTxn;
  int incarnation = 0;

  CcOp op = CcOp::kRead;                       ///< kCcDecision.
  CCDecision decision = CCDecision::kGranted;  ///< kCcDecision.
  ObjectId object = 0;  ///< kCcDecision, kBlame, kVersionRead: the granule.
  int64_t count = 0;    ///< kCcDecision kPredeclare: granules declared.

  ServiceKind service = ServiceKind::kCcCpu;  ///< kServiceDone.
  /// kServiceDone: service µs; kThinkEnd: think µs; kRestart: the delay.
  SimTime duration = 0;
  SimTime requested_at = 0;  ///< kServiceDone: entered the resource pool.

  RestartCause cause = RestartCause::kWound;  ///< kRestart.
  SimTime cpu_used = 0;   ///< kRestart: the aborted incarnation's CPU µs.
  SimTime disk_used = 0;  ///< kRestart: the aborted incarnation's disk µs.

  /// kBlame: the opposing transaction; kVersionRead: the version's writer.
  /// kBlock: the holder, which the engine does not know — the obs listener
  /// fills it in from the blame stream for its trace exporter.
  TxnId opponent = kInvalidTxn;
  BlameKind blame = BlameKind::kBlock;  ///< kBlame.

  /// kCommitting: the objects (not granules) the transaction writes.
  const std::vector<ObjectId>* write_set = nullptr;
};

/// Receives the engine's event stream.
class EngineListener {
 public:
  virtual ~EngineListener() = default;
  virtual void OnEvent(const EngineEvent& event) = 0;
};

}  // namespace ccsim

#endif  // CCSIM_OBS_ENGINE_EVENT_H_
