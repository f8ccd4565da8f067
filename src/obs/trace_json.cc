#include "obs/trace_json.h"

#include "util/check.h"
#include "util/str.h"

namespace ccsim {

namespace {

/// Escapes the characters that can appear in ccsim track/event names.
/// Names are engine-controlled ASCII; this covers quotes and backslashes
/// defensively rather than implementing full JSON string escaping.
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

TraceEventWriter::TraceEventWriter(const std::string& path) : out_(path) {
  out_ << "{\"traceEvents\":[";
}

void TraceEventWriter::BeginEvent(const char* ph, int pid, int64_t tid,
                                  const std::string& name, SimTime time) {
  if (events_written_ > 0) out_ << ",";
  out_ << "\n";
  out_ << StringPrintf("{\"ph\":\"%s\",\"pid\":%d,\"tid\":%lld,\"ts\":%lld",
                       ph, pid, static_cast<long long>(tid),
                       static_cast<long long>(time));
  out_ << ",\"name\":\"" << EscapeJson(name) << "\"";
  ++events_written_;
}

void TraceEventWriter::NameProcess(int pid, const std::string& name) {
  BeginEvent("M", pid, 0, "process_name", 0);
  out_ << ",\"args\":{\"name\":\"" << EscapeJson(name) << "\"}}";
}

void TraceEventWriter::NameThread(int pid, int64_t tid,
                                  const std::string& name) {
  BeginEvent("M", pid, tid, "thread_name", 0);
  out_ << ",\"args\":{\"name\":\"" << EscapeJson(name) << "\"}}";
}

void TraceEventWriter::Complete(int pid, int64_t tid, const std::string& name,
                                SimTime start, SimTime duration) {
  BeginEvent("X", pid, tid, name, start);
  out_ << StringPrintf(",\"dur\":%lld}", static_cast<long long>(duration));
}

void TraceEventWriter::Instant(int pid, int64_t tid, const std::string& name,
                               SimTime time) {
  BeginEvent("i", pid, tid, name, time);
  out_ << ",\"s\":\"t\"}";
}

void TraceEventWriter::Counter(int pid, const std::string& name, SimTime time,
                               double value) {
  BeginEvent("C", pid, 0, name, time);
  out_ << StringPrintf(",\"args\":{\"value\":%.17g}}", value);
}

void TraceEventWriter::FlowStart(int pid, int64_t tid, const std::string& name,
                                 SimTime time, uint64_t id) {
  BeginEvent("s", pid, tid, name, time);
  out_ << StringPrintf(",\"id\":%llu}", static_cast<unsigned long long>(id));
}

void TraceEventWriter::FlowEnd(int pid, int64_t tid, const std::string& name,
                               SimTime time, uint64_t id) {
  BeginEvent("f", pid, tid, name, time);
  out_ << StringPrintf(",\"id\":%llu,\"bp\":\"e\"}",
                       static_cast<unsigned long long>(id));
}

bool TraceEventWriter::Finish() {
  CCSIM_CHECK(!finished_) << "TraceEventWriter::Finish called twice";
  finished_ = true;
  out_ << "\n]}\n";
  out_.flush();
  const bool healthy = out_.good();
  out_.close();
  return healthy;
}

}  // namespace ccsim
