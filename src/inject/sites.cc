#include "inject/sites.h"

#include "util/check.h"

namespace ccsim {
namespace {

constexpr const char* kSiteNames[kNumFaultSites] = {
    "alloc.fail",       // kAllocFail
    "csv.write",        // kCsvWrite
    "trace.write",      // kTraceWrite
    "watchdog.misfire", // kWatchdogMisfire
    "pool.task",        // kPoolTask
};

}  // namespace

const char* FaultSiteName(FaultSite site) {
  const auto index = static_cast<std::size_t>(site);
  CCSIM_CHECK(index < kNumFaultSites) << "FaultSiteName on kCount/garbage";
  return kSiteNames[index];
}

std::optional<FaultSite> FaultSiteFromName(std::string_view name) {
  for (std::size_t i = 0; i < kNumFaultSites; ++i) {
    if (name == kSiteNames[i]) return static_cast<FaultSite>(i);
  }
  return std::nullopt;
}

const std::array<FaultSite, kNumFaultSites>& AllFaultSites() {
  static const std::array<FaultSite, kNumFaultSites> sites = [] {
    std::array<FaultSite, kNumFaultSites> all{};
    for (std::size_t i = 0; i < kNumFaultSites; ++i) {
      all[i] = static_cast<FaultSite>(i);
    }
    return all;
  }();
  return sites;
}

}  // namespace ccsim
