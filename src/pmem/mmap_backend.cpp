#include "pmem/mmap_backend.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>

#include "common/cacheline.hpp"

namespace dssq::pmem {

namespace {

std::size_t page_size() noexcept {
  static const std::size_t size =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

}  // namespace

void MmapBackend::flush(const void* addr, std::size_t n) noexcept {
  if (hook_ != nullptr) hook_(hook_state_, "pmem:flush");
  if (mode_ == Mode::kClwb) {
    // DAX mapping: the CPU write-back instructions reach the persistence
    // domain directly; ClwbBackend implements the tier selection (and the
    // flush metrics, so we do not double-count here).
    ClwbBackend{}.flush(addr, n);
    return;
  }
  metrics::add(metrics::Counter::kFlushCalls);
  metrics::add(metrics::Counter::kFlushLines,
               cache_lines_spanned(reinterpret_cast<std::uintptr_t>(addr), n));
  trace::flush_event();
  if (fd_ < 0 || mode_ == Mode::kShm) return;  // disengaged, or tmpfs
  // Page-cache mapping: initiate write-back of the affected pages.  msync
  // wants a page-aligned range inside the mapping.
  const std::size_t page = page_size();
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t lo = (a & ~(page - 1));
  const std::uintptr_t hi = a + (n == 0 ? 1 : n);
  if (lo < base_ || hi > base_ + bytes_) return;  // not ours (DRAM scratch)
  ::msync(reinterpret_cast<void*>(lo), hi - lo, MS_ASYNC);
}

void MmapBackend::fence() noexcept {
  if (hook_ != nullptr) hook_(hook_state_, "pmem:fence");
  if (mode_ == Mode::kClwb) {
    ClwbBackend{}.fence();  // counts kFences itself
  } else {
    metrics::add(metrics::Counter::kFences);
    trace::fence_event();
    if (mode_ == Mode::kShm) {
      // tmpfs: the page cache already holds every retired store; only
      // compiler reordering across the persist point could matter.
      std::atomic_signal_fence(std::memory_order_seq_cst);
    } else if (fd_ >= 0) {
      // Await completion of the write-back initiated by prior flushes
      // (fdatasync is the file-granular SFENCE of the msync tier).
      ::fdatasync(fd_);
    }
  }
  if (hook_ != nullptr) hook_(hook_state_, "pmem:fence-done");
}

}  // namespace dssq::pmem
