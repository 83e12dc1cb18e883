// MmapBackend — persistence primitives for a file-backed (mmap'd) heap.
//
// This is the first backend whose flush/fence pair survives a *process*
// failure for real: the mapping is MAP_SHARED over a file, so the kernel's
// page cache — not the dying process — owns the data the moment a store
// retires.  A fresh process that re-maps the file observes every store the
// crashed process made, which is exactly the guarantee the fork/SIGKILL
// harness (src/harness/fork_crash.hpp, tools/crashrun) exercises.
//
// Power-failure durability is a second, stronger tier and depends on how
// the file is mapped:
//
//   kClwb  — the file sits on DAX-capable persistent memory and was mapped
//            with MAP_SYNC: CLWB + SFENCE reach the persistence domain
//            directly, byte-addressably (the paper's deployment model).
//   kMsync — page-cache file on a block device: flush() initiates write-back
//            with msync(MS_ASYNC) on the affected pages and fence() awaits
//            completion with fdatasync(), the portable mapping of the
//            CLWB/SFENCE contract onto POSIX.
//   kShm   — tmpfs file (memfd, /dev/shm): the page cache is the only
//            persistence domain, so a retired store already survives
//            SIGKILL and nothing survives power loss.  Both syscalls would
//            be no-ops (MS_ASYNC is ignored, shmem fsync is noop_fsync):
//            flush() makes none and fence() is a compiler barrier.
//
// PersistentHeap picks the mode at mmap time (MAP_SYNC when the filesystem
// grants it, shm when fstatfs reports tmpfs, msync otherwise).  Like every
// backend, flush/fence/persist carry the metrics counters on every tier,
// and a CrashHook can be armed so injection fires on flush AND fence
// (symmetric with EmulatedNvmBackend/SimContext).
//
// All mmap/msync system calls live in src/pmem/ — pmem_lint's
// mmap-confined rule keeps it that way.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pmem/backend.hpp"

namespace dssq::pmem {

class MmapBackend {
 public:
  enum class Mode : std::uint8_t {
    kMsync,  // page-cache file: msync(MS_ASYNC) + fdatasync
    kClwb,   // DAX/MAP_SYNC mapping: CLWB/CLFLUSHOPT + SFENCE
    kShm,    // tmpfs file: no syscall; fence is a compiler barrier
  };

  /// A disengaged backend (no mapping); flush/fence are no-ops.  Exists so
  /// contexts can default-construct before a heap is attached.
  MmapBackend() = default;

  MmapBackend(void* base, std::size_t bytes, int fd, Mode mode) noexcept
      : base_(reinterpret_cast<std::uintptr_t>(base)),
        bytes_(bytes),
        fd_(fd),
        mode_(mode) {}

  static constexpr const char* name() noexcept { return "mmap"; }
  /// Instance-level name including the sync mode: "mmap-msync",
  /// "mmap-clwb" or "mmap-shm" (the tier a bench series ran on).
  const char* mode_name() const noexcept {
    return mode_ == Mode::kClwb  ? "mmap-clwb"
           : mode_ == Mode::kShm ? "mmap-shm"
                                 : "mmap-msync";
  }
  Mode mode() const noexcept { return mode_; }

  /// Arm (or disarm with nullptr) crash injection; fires on flush() AND
  /// fence(), mirroring EmulatedNvmBackend and SimContext.
  void set_crash_hook(CrashHook hook, void* state) noexcept {
    hook_ = hook;
    hook_state_ = state;
  }

  void flush(const void* addr, std::size_t n) noexcept;
  void fence() noexcept;
  void persist(const void* addr, std::size_t n) noexcept {
    flush(addr, n);
    fence();
  }

 private:
  std::uintptr_t base_ = 0;
  std::size_t bytes_ = 0;
  int fd_ = -1;
  Mode mode_ = Mode::kMsync;
  CrashHook hook_ = nullptr;
  void* hook_state_ = nullptr;
};

}  // namespace dssq::pmem
