#include "common/metrics.hpp"

#if DSSQ_METRICS_ENABLED

#include "common/thread_registry.hpp"

namespace dssq::metrics {

namespace detail {
Slot g_slots[kSlotCapacity + 1];
constinit thread_local Slot* t_slot = nullptr;
}  // namespace detail

namespace {

using detail::g_slots;
using detail::kSlotCapacity;

ThreadRegistry& slot_registry() {
  static ThreadRegistry registry(kSlotCapacity);
  return registry;
}

// RAII lease: a thread claims the lowest free slot on first use and returns
// it at thread exit.  The slot's counters are deliberately NOT cleared on
// either transition — totals are sums over all slots, and zeroing on reuse
// would silently drop the previous tenant's contribution.  The registry's
// mutex orders the old tenant's last store before the new tenant's first
// load, so the single-writer load+store in add() stays exact across reuse.
struct SlotLease {
  std::size_t id;
  SlotLease() noexcept {
    try {
      id = slot_registry().acquire();
    } catch (...) {
      id = kSlotCapacity;  // registry exhausted: share the overflow slot
    }
    detail::t_slot = &g_slots[id];
  }
  ~SlotLease() {
    // Any add() after this point (a later thread_local destructor) is
    // counted in the overflow slot with a fetch_add.
    detail::t_slot = &g_slots[kSlotCapacity];
    if (id < kSlotCapacity) slot_registry().release(id);
  }
};

}  // namespace

namespace detail {
Slot& lease_slot() noexcept {
  thread_local SlotLease lease;
  return *t_slot;
}
}  // namespace detail

std::size_t slot_id() noexcept {
  const detail::Slot* s = detail::t_slot;
  if (s == nullptr) s = &detail::lease_slot();
  return static_cast<std::size_t>(s - g_slots);
}

std::size_t max_slots() noexcept { return kSlotCapacity; }

std::uint64_t slot_value(std::size_t slot, Counter c) noexcept {
  if (slot > kSlotCapacity) return 0;
  return g_slots[slot].c[static_cast<std::size_t>(c)].load(
      std::memory_order_relaxed);
}

Snapshot snapshot() noexcept {
  Snapshot s;
  for (std::size_t slot = 0; slot <= kSlotCapacity; ++slot) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      s.values[i] += g_slots[slot].c[i].load(std::memory_order_relaxed);
    }
  }
  return s;
}

void reset() noexcept {
  for (std::size_t slot = 0; slot <= kSlotCapacity; ++slot) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      g_slots[slot].c[i].store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace dssq::metrics

#endif  // DSSQ_METRICS_ENABLED
