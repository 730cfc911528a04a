#include "object/node_pool.hpp"

#include <cstdlib>
#include <cstring>

namespace zstm::object {

NodePool::NodePool(util::ThreadRegistry& registry, util::StatsDomain* stats,
                   bool requested)
    : registry_(registry),
      stats_(stats),
      enabled_(requested && env_enabled()),
      local_(static_cast<std::size_t>(registry.capacity())),
      returns_(static_cast<std::size_t>(registry.capacity())) {
  if (enabled_) {
    listener_id_ =
        registry_.add_release_listener([this](int slot) { drain_slot(slot); });
  }
}

NodePool::~NodePool() {
  if (listener_id_ >= 0) registry_.remove_release_listener(listener_id_);
  // Every node must be back in a free list by now (runtime teardown frees
  // live structures and drains EBR first); the slabs own all their memory.
  for (void* slab : slabs_) {
    ::operator delete(slab, std::align_val_t{util::kCacheLine});
  }
}

bool NodePool::env_enabled() {
  const char* v = std::getenv("ZSTM_POOL");
  return v == nullptr || std::strcmp(v, "0") != 0;
}

void* NodePool::allocate(int slot, std::size_t size) {
  const int cls = class_for(size);
  if (cls < 0 || slot < 0) return allocate_oversize(slot, size);
  FreeNode*& head = local_[static_cast<std::size_t>(slot)]
                        .head[static_cast<std::size_t>(cls)];
  FreeNode* n = head;
  if (n == nullptr) {
    // Local miss: steal the whole cross-thread return stack first.
    n = returns_[static_cast<std::size_t>(slot)]
            .head[static_cast<std::size_t>(cls)]
            .exchange(nullptr, std::memory_order_acquire);
    if (n == nullptr) n = take_from_depot(slot, cls);
    if (n == nullptr) return carve_slab(slot, cls);
    head = n;
  }
  head = n->next;
  count_hit(slot);
  return n;
}

void NodePool::release_block(void* p, int slot) {
  Header* h = header_of(p);
  if (h->cls == kOversizeClass) {
    ::operator delete(static_cast<void*>(h),
                      std::align_val_t{util::kCacheLine});
    return;
  }
  NodePool* pool = h->pool;
  const auto cls = static_cast<std::size_t>(h->cls);
  const int owner = static_cast<int>(h->owner_slot);
  auto* fn = static_cast<FreeNode*>(p);
  if (slot == owner) {
    FreeNode*& head = pool->local_[static_cast<std::size_t>(owner)].head[cls];
    fn->next = head;
    head = fn;
    return;
  }
  if (!pool->registry_.active(owner)) {
    // A vacant owner would keep the block until its slot is claimed again.
    std::lock_guard<std::mutex> lk(pool->depot_mutex_);
    fn->next = pool->depot_[cls];
    pool->depot_[cls] = fn;
    return;
  }
  pool->count_return(slot);
  auto& head = pool->returns_[static_cast<std::size_t>(owner)].head[cls];
  FreeNode* cur = head.load(std::memory_order_relaxed);
  do {
    fn->next = cur;
  } while (!head.compare_exchange_weak(cur, fn, std::memory_order_release,
                                       std::memory_order_relaxed));
}

void* NodePool::carve_slab(int slot, int cls) {
  const std::size_t stride = stride_of(cls);
  char* slab = static_cast<char*>(::operator new(
      stride * static_cast<std::size_t>(kSlabNodes),
      std::align_val_t{util::kCacheLine}));
  {
    std::lock_guard<std::mutex> lk(slabs_mutex_);
    slabs_.push_back(slab);
  }
  // Node 0 is handed out; the rest stock the (empty) local free list.
  FreeNode* head = nullptr;
  for (int i = kSlabNodes - 1; i >= 0; --i) {
    char* block = slab + stride * static_cast<std::size_t>(i);
    auto* h = reinterpret_cast<Header*>(block);
    h->pool = this;
    h->cls = static_cast<std::uint32_t>(cls);
    h->owner_slot = static_cast<std::uint32_t>(slot);
    if (i == 0) continue;
    auto* fn = reinterpret_cast<FreeNode*>(block + kHeaderBytes);
    fn->next = head;
    head = fn;
  }
  local_[static_cast<std::size_t>(slot)].head[static_cast<std::size_t>(cls)] =
      head;
  count_miss(slot);
  return slab + kHeaderBytes;
}

void* NodePool::allocate_oversize(int slot, std::size_t size) {
  char* block = static_cast<char*>(::operator new(
      kHeaderBytes + size, std::align_val_t{util::kCacheLine}));
  auto* h = reinterpret_cast<Header*>(block);
  h->pool = this;
  h->cls = kOversizeClass;
  h->owner_slot = 0;
  count_miss(slot);
  return block + kHeaderBytes;
}

NodePool::FreeNode* NodePool::take_from_depot(int slot, int cls) {
  std::lock_guard<std::mutex> lk(depot_mutex_);
  FreeNode* const first = depot_[cls];
  FreeNode* last = nullptr;
  FreeNode* n = first;
  for (int i = 0; i < kSlabNodes && n != nullptr; ++i, n = n->next) {
    // Free, so no thread reads the header until this slot hands it out.
    header_of(n)->owner_slot = static_cast<std::uint32_t>(slot);
    last = n;
  }
  if (last == nullptr) return nullptr;
  depot_[cls] = last->next;
  last->next = nullptr;
  return first;
}

void NodePool::drain_slot(int slot) {
  if (!enabled_ || slot < 0) return;
  auto& local = local_[static_cast<std::size_t>(slot)];
  auto& returns = returns_[static_cast<std::size_t>(slot)];
  std::lock_guard<std::mutex> lk(depot_mutex_);
  for (std::size_t cls = 0; cls < kClassCount; ++cls) {
    // The return stack goes in last, so its blocks are taken first.
    for (FreeNode* n : {std::exchange(local.head[cls], nullptr),
                        returns.head[cls].exchange(
                            nullptr, std::memory_order_acquire)}) {
      while (n != nullptr) {
        FreeNode* next = n->next;
        n->next = depot_[cls];
        depot_[cls] = n;
        n = next;
      }
    }
  }
}

std::size_t NodePool::local_free_count(int slot) const {
  std::size_t n = 0;
  const auto& local = local_[static_cast<std::size_t>(slot)];
  for (int cls = 0; cls < kClassCount; ++cls) {
    for (const FreeNode* fn = local.head[static_cast<std::size_t>(cls)];
         fn != nullptr; fn = fn->next) {
      ++n;
    }
  }
  return n;
}

std::size_t NodePool::foreign_return_count(int slot) const {
  std::size_t n = 0;
  const auto& returns = returns_[static_cast<std::size_t>(slot)];
  for (int cls = 0; cls < kClassCount; ++cls) {
    for (const FreeNode* fn = returns.head[static_cast<std::size_t>(cls)].load(
             std::memory_order_acquire);
         fn != nullptr; fn = fn->next) {
      ++n;
    }
  }
  return n;
}

}  // namespace zstm::object
