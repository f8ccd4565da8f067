// Registry of fault-injection sites (docs/FAULTS.md).
//
// A fault site is a named point in the harness where the deterministic
// injector (inject/fault.h) can force the error path: an allocation that
// fails, a CSV/trace write that does not reach disk, a watchdog that fires
// spuriously, or a pool task that throws. The enum is the single
// source of truth: every site listed here must be wired into exactly the
// error path its name describes, and the coverage test
// (tests/inject_test.cc) asserts every site has at least one test that
// fires it — adding an enumerator without a test is a test failure, not a
// silent gap.
#ifndef CCSIM_INJECT_SITES_H_
#define CCSIM_INJECT_SITES_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace ccsim {

/// Every injectable fault site. Keep in sync with FaultSiteName() and the
/// coverage map in tests/inject_test.cc (the coverage test enforces the
/// latter).
enum class FaultSite : uint8_t {
  kAllocFail = 0,     ///< operator new fails (counting-allocator test hook).
  kCsvWrite,          ///< WriteReportCsv reports failure (core/report.cc).
  kTraceWrite,        ///< TraceEventWriter::Finish() fails (obs/trace_json.h).
  kWatchdogMisfire,   ///< WatchdogTimer expires at arm time (exec/watchdog.h).
  kPoolTask,          ///< ThreadPool worker task throws before running.
  kCount              ///< Sentinel; not a site.
};

inline constexpr std::size_t kNumFaultSites =
    static_cast<std::size_t>(FaultSite::kCount);

/// Stable dotted name used in the CCSIM_FAULTS grammar ("csv.write", ...).
const char* FaultSiteName(FaultSite site);

/// Inverse of FaultSiteName; nullopt for an unknown name.
std::optional<FaultSite> FaultSiteFromName(std::string_view name);

/// All real sites, in enum order (excludes kCount). The coverage test
/// iterates this so a new enumerator is automatically in scope.
const std::array<FaultSite, kNumFaultSites>& AllFaultSites();

}  // namespace ccsim

#endif  // CCSIM_INJECT_SITES_H_
