#include "ledger.h"

#include <cstdio>

namespace dc::perfbench {

size_t Ledger::Open(const char* name) {
  Span s{name, Ns(Clock::now())};
  s.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Ledger::Close(size_t index) {
  Span& s = spans_[index];
  s.dur_ns = Ns(Clock::now()) - s.start_ns;
  open_.pop_back();
  if (s.parent >= 0) spans_[static_cast<size_t>(s.parent)].child_ns += s.dur_ns;
}

double Ledger::WindowMs() const {
  return static_cast<double>(Ns(window_end_) - Ns(window_start_)) / 1e6;
}

std::map<std::string, Ledger::Totals> Ledger::Summarize() const {
  std::map<std::string, Totals> out;
  for (const Span& s : spans_) {
    if (s.dur_ns < 0) continue;
    Totals& t = out[s.name];
    t.calls++;
    t.total_ms += static_cast<double>(s.dur_ns) / 1e6;
    t.self_ms += static_cast<double>(s.dur_ns - s.child_ns) / 1e6;
  }
  return out;
}

double Ledger::CoveredMs() const {
  const int64_t lo = Ns(window_start_);
  const int64_t hi = Ns(window_end_);
  int64_t covered = 0;
  for (const Span& s : spans_) {
    if (s.parent >= 0 || s.dur_ns < 0) continue;
    if (s.start_ns >= lo && s.start_ns + s.dur_ns <= hi) covered += s.dur_ns;
  }
  return static_cast<double>(covered) / 1e6;
}

bool Ledger::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : spans_) {
    if (s.dur_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}",
                 first ? "" : ",\n", s.name,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace dc::perfbench
