#include "wl/workload.h"

#include <utility>

namespace ccsim {

WorkloadGenerator::WorkloadGenerator(const WorkloadParams& params, Rng spec_rng,
                                     Rng think_rng)
    : params_(params),
      spec_rng_(std::move(spec_rng)),
      think_rng_(std::move(think_rng)) {
  params_.Validate();
}

void WorkloadGenerator::NextTransaction(TxnSpec* out) {
  TxnSpec& spec = *out;
  // Select the class, then the class's size and write probability.
  int class_index = 0;
  int min_size = params_.min_size;
  int max_size = params_.max_size;
  double write_prob = params_.write_prob;
  if (!params_.classes.empty()) {
    double pick = spec_rng_.NextDouble();
    double cumulative = 0.0;
    for (size_t i = 0; i < params_.classes.size(); ++i) {
      cumulative += params_.classes[i].fraction;
      // The last class absorbs any floating-point remainder.
      if (pick < cumulative || i + 1 == params_.classes.size()) {
        class_index = static_cast<int>(i);
        break;
      }
    }
    const TxnClass& cls = params_.classes[static_cast<size_t>(class_index)];
    min_size = cls.min_size;
    max_size = cls.max_size;
    write_prob = cls.write_prob;
  }

  int size = static_cast<int>(spec_rng_.UniformInt(min_size, max_size));
  spec.class_index = class_index;
  if (params_.hot_fraction_db == 0.0) {
    spec_rng_.SampleWithoutReplacement(params_.db_size, size, &spec.reads);
  } else {
    // Stratified sampling under the x-y rule: each of the `size` accesses
    // independently targets the hot set with probability hot_access_prob,
    // then the hot and cold picks are drawn without replacement from their
    // strata and interleaved in a uniformly shuffled order.
    int64_t hot_size = params_.HotSetSize();
    int hot_picks = 0;
    is_hot_.assign(static_cast<size_t>(size), 0);
    for (int i = 0; i < size; ++i) {
      is_hot_[static_cast<size_t>(i)] =
          spec_rng_.Bernoulli(params_.hot_access_prob);
      hot_picks += is_hot_[static_cast<size_t>(i)] ? 1 : 0;
    }
    spec_rng_.SampleWithoutReplacement(hot_size, hot_picks, &hot_);
    spec_rng_.SampleWithoutReplacement(params_.db_size - hot_size,
                                       size - hot_picks, &cold_);
    size_t hot_index = 0, cold_index = 0;
    spec.reads.clear();
    spec.reads.reserve(static_cast<size_t>(size));
    for (int i = 0; i < size; ++i) {
      if (is_hot_[static_cast<size_t>(i)]) {
        spec.reads.push_back(hot_[hot_index++]);
      } else {
        spec.reads.push_back(hot_size + cold_[cold_index++]);
      }
    }
  }
  // The flags grow with the read buffer, so a reused spec stops allocating
  // as soon as its reads do.
  if (spec.writes.capacity() < spec.reads.capacity()) {
    spec.writes.reserve(spec.reads.capacity());
  }
  spec.writes.assign(spec.reads.size(), 0);
  bool read_only = params_.read_only_fraction > 0.0 &&
                   spec_rng_.Bernoulli(params_.read_only_fraction);
  if (!read_only && write_prob > 0.0) {
    for (size_t i = 0; i < spec.reads.size(); ++i) {
      spec.writes[i] = spec_rng_.Bernoulli(write_prob);
    }
  }
}

SimTime WorkloadGenerator::NextExternalThink() {
  if (params_.ext_think_time == 0) return 0;
  return FromSeconds(think_rng_.Exponential(ToSeconds(params_.ext_think_time)));
}

SimTime WorkloadGenerator::NextInternalThink() {
  if (params_.int_think_time == 0) return 0;
  return FromSeconds(think_rng_.Exponential(ToSeconds(params_.int_think_time)));
}

}  // namespace ccsim
