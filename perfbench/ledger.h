// Per-layer ledger of the traced benchmark run: spans recorded by the
// harness around every call it makes into an engine layer, kept in memory
// and written out at exit as Chrome trace_event JSON (opens in Perfetto,
// like the engine's own trace.json).
//
// Spans nest on the single driving thread (a synchronous engine runs every
// layer call on the caller's thread), so a span's self time is its duration
// minus the time covered by its direct children.

#ifndef DATACELL_PERFBENCH_LEDGER_H_
#define DATACELL_PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dc::perfbench {

class Ledger {
 public:
  using Clock = std::chrono::steady_clock;

  /// RAII span; a null ledger records nothing.
  class Scope {
   public:
    Scope(Ledger* ledger, const char* name) : ledger_(ledger) {
      if (ledger_ != nullptr) index_ = ledger_->Open(name);
    }
    ~Scope() {
      if (ledger_ != nullptr) ledger_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger* ledger_;
    size_t index_ = 0;
  };

  struct Totals {
    uint64_t calls = 0;
    double total_ms = 0;  // inclusive
    double self_ms = 0;   // minus direct children
  };

  /// Marks the start/end of the wall-time window the ledger must account for.
  void BeginWindow() { window_start_ = Clock::now(); }
  void EndWindow() { window_end_ = Clock::now(); }
  double WindowMs() const;

  /// Per-name totals over all recorded spans.
  std::map<std::string, Totals> Summarize() const;
  /// Sum of top-level span durations inside the window, in ms.
  double CoveredMs() const;

  /// Writes the spans as Chrome trace_event JSON; false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t dur_ns = -1;  // -1 while open
    int64_t child_ns = 0;
    int64_t parent = -1;
  };

  size_t Open(const char* name);
  void Close(size_t index);
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  Clock::time_point window_start_ = origin_;
  Clock::time_point window_end_ = origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

}  // namespace dc::perfbench

#endif  // DATACELL_PERFBENCH_LEDGER_H_
