#include "core/emitter.h"

#include "monitor/trace.h"

namespace dc {

Emitter::Emitter(std::string name, Sink sink,
                 std::shared_ptr<monitor::HistogramMetric> latency)
    : name_(std::move(name)),
      sink_(std::move(sink)),
      latency_(std::move(latency)) {}

void Emitter::Enqueue(std::shared_ptr<const ColumnSet> emission,
                      Micros trigger_us) {
  MutexLock lock(queue_mu_);
  if (closed_) return;
  queued_rows_ += emission->NumRows();
  queue_.push_back(Pending{std::move(emission), trigger_us});
}

int Emitter::Drain() {
  MutexLock lock(drain_mu_);
  return DrainLocked();
}

void Emitter::Close() {
  MutexLock lock(drain_mu_);
  DrainLocked();
  MutexLock queue(queue_mu_);
  closed_ = true;
  queue_.clear();
  queued_rows_ = 0;
}

int Emitter::DrainLocked() {
  std::deque<Pending> batch;
  {
    MutexLock lock(queue_mu_);
    if (closed_) return 0;
    batch.swap(queue_);
    queued_rows_ = 0;
  }
  if (batch.empty()) return 0;  // idle tick, not worth a trace event
  trace::Span span("emitter.drain", "emitter",
                   static_cast<int64_t>(batch.size()));
  for (const Pending& p : batch) {
    const uint64_t rows = p.emission->NumRows();
    if (sink_) sink_(*p.emission);
    rows_.fetch_add(rows);
    emissions_.fetch_add(1);
    if (rows == 0) empty_emissions_.fetch_add(1);
    // Delivery closes the latency clock the trigger stamp opened.
    if (latency_ != nullptr && p.trigger_us >= 0) {
      latency_->Record(SteadyMicros() - p.trigger_us);
    }
  }
  return static_cast<int>(batch.size());
}

EmitterStats Emitter::Stats() const {
  EmitterStats s;
  s.emissions = emissions_.load();
  s.empty_emissions = empty_emissions_.load();
  s.rows = rows_.load();
  MutexLock lock(queue_mu_);
  s.pending_rows = queued_rows_;
  return s;
}

Emitter::Sink ResultCollector::AsSink() {
  return [this](const ColumnSet& emission) {
    MutexLock lock(mu_);
    emissions_.push_back(emission);
    rows_ += emission.NumRows();
  };
}

std::vector<ColumnSet> ResultCollector::TakeAll() {
  MutexLock lock(mu_);
  std::vector<ColumnSet> out(emissions_.begin(), emissions_.end());
  emissions_.clear();
  return out;
}

size_t ResultCollector::EmissionCount() const {
  MutexLock lock(mu_);
  return emissions_.size();
}

uint64_t ResultCollector::RowCount() const {
  MutexLock lock(mu_);
  return rows_;
}

}  // namespace dc
