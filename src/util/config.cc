#include "util/config.h"

#include <ostream>

#include "util/check.h"
#include "util/str.h"

namespace ccsim {

bool Config::ParseText(std::string_view text, std::string* error) {
  int line_number = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_number;
    std::string_view line = raw_line;
    size_t comment = line.find('#');
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    line = StripWhitespace(line);
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      if (error != nullptr) {
        *error = StringPrintf("line %d: expected key=value, got \"%.*s\"",
                              line_number, static_cast<int>(line.size()),
                              line.data());
      }
      return false;
    }
    Set(std::string(StripWhitespace(line.substr(0, eq))),
        std::string(StripWhitespace(line.substr(eq + 1))));
  }
  return true;
}

bool Config::ParseArgs(const std::vector<std::string>& args, std::string* error) {
  for (const std::string& arg : args) {
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) {
        *error = StringPrintf("argument \"%s\" is not of the form key=value",
                              arg.c_str());
      }
      return false;
    }
    Set(std::string(StripWhitespace(std::string_view(arg).substr(0, eq))),
        std::string(StripWhitespace(std::string_view(arg).substr(eq + 1))));
  }
  return true;
}

void Config::Set(const std::string& key, const std::string& value) {
  entries_[key] = value;
  unread_.insert(key);
}

std::optional<std::string> Config::GetString(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  unread_.erase(key);
  return it->second;
}

std::optional<int64_t> Config::GetInt(const std::string& key) const {
  auto raw = GetString(key);
  if (!raw.has_value()) return std::nullopt;
  auto parsed = ParseInt(*raw);
  CCSIM_CHECK(parsed.has_value()) << "config key " << key << " = \"" << *raw
                                  << "\" is not an integer";
  return parsed;
}

std::optional<double> Config::GetDouble(const std::string& key) const {
  auto raw = GetString(key);
  if (!raw.has_value()) return std::nullopt;
  auto parsed = ParseDouble(*raw);
  CCSIM_CHECK(parsed.has_value()) << "config key " << key << " = \"" << *raw
                                  << "\" is not a number";
  return parsed;
}

std::optional<bool> Config::GetBool(const std::string& key) const {
  auto raw = GetString(key);
  if (!raw.has_value()) return std::nullopt;
  auto parsed = ParseBool(*raw);
  CCSIM_CHECK(parsed.has_value()) << "config key " << key << " = \"" << *raw
                                  << "\" is not a boolean";
  return parsed;
}

int64_t Config::GetIntOr(const std::string& key, int64_t fallback) const {
  return GetInt(key).value_or(fallback);
}

double Config::GetDoubleOr(const std::string& key, double fallback) const {
  return GetDouble(key).value_or(fallback);
}

bool Config::GetBoolOr(const std::string& key, bool fallback) const {
  return GetBool(key).value_or(fallback);
}

std::string Config::GetStringOr(const std::string& key,
                                const std::string& fallback) const {
  return GetString(key).value_or(fallback);
}

bool Config::CheckAllRead(std::ostream& err) const {
  for (const std::string& key : unread_) {
    err << "unknown key: " << key << "=" << entries_.at(key) << "\n";
  }
  return unread_.empty();
}

}  // namespace ccsim
