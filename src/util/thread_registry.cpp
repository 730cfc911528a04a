#include "util/thread_registry.hpp"

namespace zstm::util {

ThreadRegistry::ThreadRegistry(int capacity)
    : capacity_(capacity), slots_(static_cast<std::size_t>(capacity)) {
  if (capacity <= 0 || capacity > kMaxThreads) {
    throw std::invalid_argument("ThreadRegistry capacity out of range");
  }
}

ThreadRegistry::Registration ThreadRegistry::attach() {
  Registration reg = try_attach();
  if (!reg.attached()) {
    throw std::runtime_error("ThreadRegistry: no free thread slots");
  }
  return reg;
}

ThreadRegistry::Registration ThreadRegistry::try_attach() {
  for (int i = 0; i < capacity_; ++i) {
    bool expected = false;
    if (slots_[static_cast<std::size_t>(i)].value.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      // Raise the high-water mark so per-slot scans cover this slot.
      int hw = high_water_.load(std::memory_order_relaxed);
      while (hw < i + 1 && !high_water_.compare_exchange_weak(
                               hw, i + 1, std::memory_order_acq_rel)) {
      }
      return Registration(this, i);
    }
  }
  return Registration();
}

int ThreadRegistry::add_release_listener(std::function<void(int)> fn) {
  std::lock_guard<std::mutex> lk(listeners_mutex_);
  const int id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(fn));
  return id;
}

void ThreadRegistry::remove_release_listener(int id) {
  std::lock_guard<std::mutex> lk(listeners_mutex_);
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->first == id) {
      listeners_.erase(it);
      return;
    }
  }
}

void ThreadRegistry::release_slot(int slot) {
  // Run the hooks before the slot is marked free: the releasing thread
  // still owns the slot's single-owner state (EBR lists, pool free lists).
  std::vector<std::function<void(int)>> fns;
  {
    std::lock_guard<std::mutex> lk(listeners_mutex_);
    fns.reserve(listeners_.size());
    for (const auto& [id, fn] : listeners_) fns.push_back(fn);
  }
  for (const auto& fn : fns) fn(slot);
  slots_[static_cast<std::size_t>(slot)].value.store(false,
                                                     std::memory_order_release);
}

void ThreadRegistry::Registration::release() {
  if (owner_ != nullptr) {
    owner_->release_slot(slot_);
    owner_ = nullptr;
    slot_ = -1;
  }
}

}  // namespace zstm::util
