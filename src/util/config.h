// key=value configuration parsing for experiment harnesses and examples.
//
// Accepts lines of the form `key = value`; `#` starts a comment; blank lines
// are ignored. Also parses command-line style `key=value` token lists so that
// every bench binary can be overridden from the shell without recompiling.
#ifndef CCSIM_UTIL_CONFIG_H_
#define CCSIM_UTIL_CONFIG_H_

#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace ccsim {

/// A flat string-to-string configuration with typed accessors. Lookups
/// record which keys were read, so a const Config is still not safe to share
/// between threads.
class Config {
 public:
  Config() = default;

  /// Parses `key = value` lines; returns false and sets `error` on a
  /// malformed line (missing '=' on a non-empty, non-comment line).
  bool ParseText(std::string_view text, std::string* error);

  /// Parses argv-style tokens, each `key=value`. Unknown keys are kept; the
  /// caller validates. Returns false and sets `error` on a token with no '='.
  bool ParseArgs(const std::vector<std::string>& args, std::string* error);

  /// Sets a key, overwriting any previous value.
  void Set(const std::string& key, const std::string& value);

  bool Has(const std::string& key) const { return GetString(key).has_value(); }

  /// Typed getters return nullopt when the key is absent; they abort via
  /// CCSIM_CHECK if the key is present but malformed, because a silently
  /// ignored parameter invalidates an experiment.
  std::optional<std::string> GetString(const std::string& key) const;
  std::optional<int64_t> GetInt(const std::string& key) const;
  std::optional<double> GetDouble(const std::string& key) const;
  std::optional<bool> GetBool(const std::string& key) const;

  int64_t GetIntOr(const std::string& key, int64_t fallback) const;
  double GetDoubleOr(const std::string& key, double fallback) const;
  bool GetBoolOr(const std::string& key, bool fallback) const;
  std::string GetStringOr(const std::string& key, const std::string& fallback) const;

  /// True when Has or a getter looked up every key that was set. Otherwise
  /// prints "unknown key: <key>=<value>" to `err` for each key nothing read,
  /// and returns false. A driver checks this after its last read and before
  /// it runs anything: such a key is a misspelling that would otherwise
  /// silently leave the experiment at its default.
  bool CheckAllRead(std::ostream& err) const;

 private:
  std::map<std::string, std::string> entries_;
  /// The keys set since Has or a getter last looked them up.
  mutable std::set<std::string> unread_;
};

}  // namespace ccsim

#endif  // CCSIM_UTIL_CONFIG_H_
