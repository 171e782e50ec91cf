#include "core/scheduler.h"

#include <algorithm>

namespace dc {

Scheduler::Scheduler(int num_workers) : num_workers_(num_workers) {}

Scheduler::~Scheduler() {
  Stop();
  // Detach pulse listeners so baskets stop calling into this object.
  // Baskets are required to outlive the scheduler (see header).
  std::vector<std::pair<Basket*, int>> listeners;
  {
    MutexLock lock(mu_);
    for (auto& [basket, arcs] : arcs_) {
      if (arcs.listener_id >= 0) listeners.emplace_back(basket, arcs.listener_id);
    }
    arcs_.clear();
  }
  for (auto& [basket, listener_id] : listeners) {
    basket->RemoveListener(listener_id);
  }
}

void Scheduler::AddFactory(FactoryPtr factory) {
  const int id = factory->id();
  {
    MutexLock lock(mu_);
    entries_[id] = Entry{std::move(factory), EntryState::kIdle};
  }
  // A from-start reader may already be enabled; kick it once.
  NotifyFactory(id);
}

void Scheduler::RemoveFactory(int factory_id) {
  std::vector<std::pair<Basket*, int>> dead_listeners;
  {
    MutexLock lock(mu_);
    // Wait out an in-flight fire. The entry is looked up afresh after
    // every wait: a concurrent RemoveFactory may have erased it.
    auto it = entries_.find(factory_id);
    while (it != entries_.end() && it->second.state == EntryState::kRunning) {
      idle_cv_.Wait(mu_);
      it = entries_.find(factory_id);
    }
    if (it == entries_.end()) return;
    if (it->second.state == EntryState::kQueued) std::erase(ready_, factory_id);
    entries_.erase(it);
    for (auto a = arcs_.begin(); a != arcs_.end();) {
      std::erase(a->second.factory_ids, factory_id);
      if (a->second.factory_ids.empty()) {
        dead_listeners.emplace_back(a->first, a->second.listener_id);
        a = arcs_.erase(a);
      } else {
        ++a;
      }
    }
  }
  for (auto& [basket, listener_id] : dead_listeners) {
    if (listener_id >= 0) basket->RemoveListener(listener_id);
  }
}

std::vector<FactoryPtr> Scheduler::Factories() const {
  MutexLock lock(mu_);
  std::vector<FactoryPtr> out;
  out.reserve(entries_.size());
  for (const auto& [id, e] : entries_) out.push_back(e.factory);
  return out;
}

void Scheduler::AttachArc(Basket* basket, int factory_id) {
  MutexLock lock(mu_);
  ArcList& arcs = arcs_[basket];
  if (std::find(arcs.factory_ids.begin(), arcs.factory_ids.end(),
                factory_id) != arcs.factory_ids.end()) {
    return;
  }
  arcs.factory_ids.push_back(factory_id);
  if (arcs.listener_id < 0) {
    arcs.listener_id = basket->AddListener([this, basket] { Pulse(basket); });
  }
}

bool Scheduler::EnqueueIfIdleLocked(int factory_id) {
  auto it = entries_.find(factory_id);
  if (it == entries_.end() || it->second.state != EntryState::kIdle) {
    return false;
  }
  it->second.state = EntryState::kQueued;
  ready_.push_back(factory_id);
  ++counters_.enqueues;
  counters_.max_queue_depth =
      std::max<uint64_t>(counters_.max_queue_depth, ready_.size());
  return true;
}

void Scheduler::WakeWorkers(int newly_queued) {
  // Workers test their predicate under mu_, which the enqueue held, so a
  // notify after unlocking cannot be lost.
  if (newly_queued == 1) {
    work_cv_.NotifyOne();
  } else if (newly_queued > 1) {
    work_cv_.NotifyAll();
  }
}

void Scheduler::Pulse(Basket* basket) {
  notifications_.fetch_add(1, std::memory_order_relaxed);
  int enqueued = 0;
  {
    MutexLock lock(mu_);
    auto it = arcs_.find(basket);
    if (it == arcs_.end()) return;
    for (int id : it->second.factory_ids) {
      if (EnqueueIfIdleLocked(id)) ++enqueued;
    }
  }
  WakeWorkers(enqueued);
}

void Scheduler::NotifyFactory(int factory_id) {
  int enqueued = 0;
  {
    MutexLock lock(mu_);
    if (EnqueueIfIdleLocked(factory_id)) enqueued = 1;
  }
  WakeWorkers(enqueued);
}

bool Scheduler::TryClaimById(int factory_id) {
  MutexLock lock(mu_);
  auto it = entries_.find(factory_id);
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  if (e.state == EntryState::kQueued) {
    std::erase(ready_, factory_id);
  } else if (e.state != EntryState::kIdle) {
    return false;
  }
  e.state = EntryState::kRunning;
  return true;
}

void Scheduler::CompleteFire(const Claimed& c, bool fired, bool error,
                             bool requeue) {
  {
    MutexLock lock(mu_);
    auto it = entries_.find(c.id);
    if (it != entries_.end()) {
      if (fired) {
        ++counters_.fires;
        if (error) ++counters_.fire_errors;
      } else {
        ++counters_.spurious_pops;
      }
      it->second.state = EntryState::kIdle;
    }
  }
  // A RemoveFactory() may be waiting for this entry to stop running.
  idle_cv_.NotifyAll();
  // A factory can be multiply enabled (several windows completed by one
  // pulse) and pulses arriving mid-fire are dropped, so the authoritative
  // probe runs once more after every fire.
  if (requeue && c.factory->CheckReady()) NotifyFactory(c.id);
}

void Scheduler::WorkerLoop() {
  while (true) {
    Claimed c;
    {
      MutexLock lock(mu_);
      while (!stop_ && ready_.empty()) work_cv_.Wait(mu_);
      if (stop_) return;
      c.id = ready_.front();
      ready_.pop_front();
      // Every queued id is a registered kQueued entry: RemoveFactory and
      // TryClaimById unlink the id from ready_ whenever they take it.
      auto it = entries_.find(c.id);
      if (it == entries_.end()) continue;
      it->second.state = EntryState::kRunning;
      c.factory = it->second.factory;
    }
    if (c.factory->CheckReady()) {
      FireAndDeliver(c, /*requeue=*/true);
    } else {
      CompleteFire(c, /*fired=*/false, /*error=*/false, /*requeue=*/true);
    }
  }
}

void Scheduler::FireAndDeliver(const Claimed& c, bool requeue) {
  const Status st = c.factory->Fire();
  CompleteFire(c, /*fired=*/true, !st.ok(), requeue);
  // Only now, with the entry back at kIdle: a RemoveFactory waiting under
  // the sharing registry lock can proceed while a sink re-enters it.
  c.factory->Deliver();
}

void Scheduler::Start() {
  MutexLock lock(mu_);
  if (running_) return;
  running_ = true;
  stop_ = false;
  for (int i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void Scheduler::Stop() {
  // Exactly one caller becomes the joiner; it takes ownership of the
  // worker threads under mu_ and joins them outside it. A concurrent
  // Stop() waits for the joiner to finish instead of double-joining the
  // same std::thread objects, and only returns once the pool is down.
  // running_ stays true until the join completes so Start() cannot launch
  // a second pool mid-teardown.
  std::vector<std::thread> workers;
  {
    MutexLock lock(mu_);
    while (stopping_) idle_cv_.Wait(mu_);
    if (!running_) return;
    stopping_ = true;
    stop_ = true;
    workers = std::move(workers_);
    workers_.clear();
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers) t.join();
  {
    MutexLock lock(mu_);
    running_ = false;
    stopping_ = false;
  }
  idle_cv_.NotifyAll();
}

int Scheduler::DrainReady() {
  int fires = 0;
  while (true) {
    // Deterministic pass: probe and fire in factory-id order.
    std::vector<Claimed> snapshot;
    {
      MutexLock lock(mu_);
      snapshot.reserve(entries_.size());
      for (const auto& [id, e] : entries_) {
        snapshot.push_back(Claimed{id, e.factory});
      }
    }
    int pass_fires = 0;
    for (Claimed& c : snapshot) {
      if (!c.factory->CheckReady()) continue;
      if (!TryClaimById(c.id)) continue;
      FireAndDeliver(c, /*requeue=*/false);
      ++pass_fires;
    }
    fires += pass_fires;
    if (pass_fires == 0) break;
  }
  return fires;
}

bool Scheduler::AnyBusyOrReady() const {
  std::vector<FactoryPtr> factories;
  {
    MutexLock lock(mu_);
    factories.reserve(entries_.size());
    for (const auto& [id, e] : entries_) {
      if (e.state == EntryState::kRunning) return true;
      factories.push_back(e.factory);
    }
  }
  for (const FactoryPtr& f : factories) {
    if (f->CheckReady()) return true;
  }
  return false;
}

SchedulerStats Scheduler::Stats() const {
  MutexLock lock(mu_);
  SchedulerStats out = counters_;
  out.notifications = notifications_.load(std::memory_order_relaxed);
  out.queue_depth = ready_.size();
  out.factories = entries_.size();
  for (const auto& [basket, arcs] : arcs_) out.arcs += arcs.factory_ids.size();
  return out;
}

}  // namespace dc
