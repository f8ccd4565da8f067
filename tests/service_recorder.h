// Test helper: a ServiceSink that records every completed service request
// and the simulated instant it completed, so pool tests can assert on
// completion order and timing without callbacks.
#ifndef CCSIM_TESTS_SERVICE_RECORDER_H_
#define CCSIM_TESTS_SERVICE_RECORDER_H_

#include <cstdint>
#include <vector>

#include "res/server_pool.h"
#include "sim/simulator.h"

namespace ccsim {

/// A request for `service` µs, labelled `tag` (carried in `txn`).
inline ServiceRequest Req(SimTime service, int64_t tag = 0) {
  ServiceRequest request;
  request.txn = tag;
  request.service = service;
  return request;
}

class ServiceRecorder : public ServiceSink {
 public:
  explicit ServiceRecorder(const Simulator* sim) : sim_(sim) {}

  void OnServiceDone(const ServiceRequest& request) override {
    done.push_back(request);
    done_at.push_back(sim_->Now());
  }

  /// Tags in completion order.
  std::vector<int64_t> tags() const {
    std::vector<int64_t> out;
    for (const ServiceRequest& request : done) out.push_back(request.txn);
    return out;
  }

  /// Completion time of the first request tagged `tag`, or -1 if none.
  SimTime DoneAt(int64_t tag) const {
    for (size_t i = 0; i < done.size(); ++i) {
      if (done[i].txn == tag) return done_at[i];
    }
    return -1;
  }

  int count() const { return static_cast<int>(done.size()); }

  std::vector<ServiceRequest> done;
  std::vector<SimTime> done_at;

 private:
  const Simulator* sim_;
};

}  // namespace ccsim

#endif  // CCSIM_TESTS_SERVICE_RECORDER_H_
