// PersistentHeap — a file-backed persistent heap mapped at a fixed base.
//
// The crash simulator (ShadowPool) proves the algorithms correct against
// an adversarial persistence model, but only *in-process*: the "crash" is
// a longjmp-style abandonment inside one address space.  PersistentHeap is
// the subsystem that takes the same algorithms through a real process
// failure: the heap lives in a file, a workload process is SIGKILLed
// mid-operation, and a *fresh* process re-maps the file and runs the
// Figure-6 recovery on whatever actually reached the page cache.
//
// ## Fixed-base mapping
//
// The DSS queue's detectability state X[1..n] stores raw node pointers
// (tagged in the 16 spare high bits — common/tagged_ptr.hpp), and the
// queue links nodes by raw pointer.  Those pointers are only meaningful if
// every attaching process maps the file at the SAME virtual address the
// creating process used.  The header therefore persists the mapping base;
// create() lets the kernel choose it (or honours an explicit hint) and
// open() re-maps with MAP_FIXED_NOREPLACE at the recorded base, refusing
// to open — rather than silently relocating — when the region is taken.
// The base and every address inside the heap must fit in the 48
// architectural address bits (checked at create), so tagged words
// round-trip heap pointers unchanged across process lifetimes.
//
// ## Segment header, heap state, and the generation protocol
//
// Offset 0 of the file holds the layout in two cache lines:
//
//   HeapHeader — IMMUTABLE after create(): magic, layout version, mapping
//     base, total size, root-block size, directory size, and a checksum
//     over all of the above.  Written once; any header that fails
//     validation (bad magic/version/checksum, size mismatch) makes open()
//     throw HeapOpenError — corrupt heaps are refused, never half-mapped.
//   HeapState — MUTABLE shared state: an atomic generation counter and an
//     atomic clean-shutdown flag.  These change while OTHER processes are
//     attached, so they cannot live under the header checksum (a
//     concurrent bump would tear it); each is a single 8-byte store,
//     which the x86 persistence model makes failure-atomic on its own.
//
// Every successful open() atomically increments the generation and clears
// the clean flag (persisted before user code runs) — per-attacher
// generation stamping, valid with any number of concurrent attachers.
// close() sets the flag after an msync of the whole range.  Under
// concurrent attach the flag is advisory (the LAST close wins); the
// multi-process serving layer derives crash facts from the slot-lease
// table (pmem/slot_lease.hpp), not from this flag.
//
// ## Positional allocation (the attach contract)
//
// raw_alloc is a bump allocator over the data region, and the cursor is
// deliberately volatile: every object in this repository performs ALL of
// its persistent allocation in its constructor, so a recovering process
// reconstructs pointers by replaying the same constructor sequence
// (NodeArena/DssQueue attach constructors do exactly this).  Allocation
// replay + fixed base ⇒ identical addresses, with no persistent allocator
// metadata to keep crash-consistent.
//
// A small user "root block" directly after the two header lines (root())
// gives callers a fixed-address place for bootstrap configuration.
//
// ## Named-object directory (multi-process discovery)
//
// Between the root block and the data region lives a persistent directory
// of `name → {type tag, root address}` bindings (pmem/directory.hpp).
// publish<T>() binds a name to a typed root object; lookup<T>() finds it
// from any concurrently attached process — the multi-process replacement
// for positional replay, which presumes exactly one attacher.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/cacheline.hpp"
#include "pmem/combiner.hpp"
#include "pmem/mmap_backend.hpp"

namespace dssq::pmem {

/// open()/create() failure with a human-readable reason (corrupt header,
/// unmappable base, bad geometry, ...).
struct HeapOpenError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Directory publish/lookup failure (duplicate binding with a different
/// target, torn entry, type-tag mismatch, table full).
struct DirectoryError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The persisted segment header at offset 0 of every heap file.  IMMUTABLE
/// after create(); 8-byte fields only, one cache line, checksummed.
struct alignas(kCacheLineSize) HeapHeader {
  std::uint64_t magic = 0;       // kMagic
  std::uint64_t version = 0;     // kVersion (layout revision)
  std::uint64_t base = 0;        // virtual address the file maps at
  std::uint64_t size = 0;        // mapped bytes (== file size)
  std::uint64_t root_bytes = 0;  // user root block size
  std::uint64_t dir_bytes = 0;   // named-object directory region size
  std::uint64_t reserved = 0;
  std::uint64_t checksum = 0;    // FNV-1a over the fields above
};
static_assert(sizeof(HeapHeader) == kCacheLineSize);

/// The mutable shared-state line directly after the header.  NOT under the
/// header checksum: these words change while other processes are attached,
/// and each update is a single failure-atomic 8-byte store.
struct alignas(kCacheLineSize) HeapState {
  std::atomic<std::uint64_t> generation{0};      // attaches so far (1 = create)
  std::atomic<std::uint64_t> clean_shutdown{0};  // 1 iff a close() completed
  std::uint64_t reserved[6] = {};
};
static_assert(sizeof(HeapState) == kCacheLineSize);

/// Compile-time type tag for directory bindings: FNV-1a of the decorated
/// function name, which embeds T.  Stable across processes of the same
/// binary (the only processes that may share a fixed-base heap anyway).
template <class T>
constexpr std::uint64_t type_tag_of() noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* p = __PRETTY_FUNCTION__; *p != '\0'; ++p) {
    hash ^= static_cast<unsigned char>(*p);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

class PersistentHeap {
 public:
  static constexpr std::uint64_t kMagic = 0x44535351'48454150ULL;  // DSSQHEAP
  /// v2: split header/state lines + named-object directory region.
  static constexpr std::uint64_t kVersion = 2;

  struct Options {
    std::size_t bytes = 64u << 20;            // heap size (create only)
    std::size_t root_bytes = kCacheLineSize;  // user root block (create only)
    /// Capacity of the named-object directory (create only).
    std::size_t dir_entries = 64;
    /// 0 = kernel chooses the base (create only; open always uses the
    /// recorded one).  A nonzero hint is mapped with MAP_FIXED_NOREPLACE
    /// and create fails if the region is occupied.
    std::uintptr_t base_hint = 0;
  };

  enum class OpenMode : std::uint8_t {
    kCreate,  // truncate/initialize; the file's previous contents are gone
    kOpen,    // attach to an existing heap; throws if absent or corrupt
  };

  PersistentHeap(const std::string& path, OpenMode mode, Options opt);
  /// Same with default Options (separate overload: a `= {}` default
  /// argument cannot name a nested class's member initializers before the
  /// enclosing class is complete).
  PersistentHeap(const std::string& path, OpenMode mode);

  /// Destruction without close() is deliberately crash-equivalent: the
  /// mapping is torn down but the clean-shutdown flag stays 0, so the next
  /// open() sees a crashed heap (tests rely on this).
  ~PersistentHeap();

  PersistentHeap(const PersistentHeap&) = delete;
  PersistentHeap& operator=(const PersistentHeap&) = delete;

  /// Orderly shutdown: msync the whole range, set the clean flag, persist
  /// the state line, unmap.  The heap is unusable afterwards.
  void close();

  // ---- context allocation (positional; see file comment) -----------------
  void* raw_alloc(std::size_t size, std::size_t align);

  MmapBackend& backend() noexcept { return backend_; }
  /// Fence coalescer shared by every context handle onto this heap: one
  /// fdatasync/msync drains the whole file, so combining is per-heap, not
  /// per-handle.  State is volatile — it dies with the process, which is
  /// exactly the crash semantics a raw fence has.
  FenceCombiner& combiner() noexcept { return combiner_; }
  void flush(const void* addr, std::size_t n) noexcept {
    backend_.flush(addr, n);
  }
  void fence() noexcept { backend_.fence(); }
  void persist(const void* addr, std::size_t n) noexcept {
    backend_.persist(addr, n);
  }

  // ---- named-object directory --------------------------------------------

  /// Bind `name` to a typed root object living inside this heap.  Crash-
  /// consistent (an interrupted publish is invisible to lookup) and
  /// idempotent for an identical rebinding; a conflicting rebinding
  /// throws DirectoryError.
  template <class T>
  void publish(const std::string& name, T* root) {
    dir_publish(name.c_str(), type_tag_of<T>(),
                reinterpret_cast<std::uintptr_t>(root));
  }

  /// Find a published root by name.  nullptr when the name is absent;
  /// throws DirectoryError on a type-tag mismatch or a torn/corrupt entry.
  template <class T>
  T* lookup(const std::string& name) const {
    return reinterpret_cast<T*>(dir_lookup(name.c_str(), type_tag_of<T>()));
  }

  /// Untyped publish/lookup (implemented in directory.cpp).
  void dir_publish(const char* name, std::uint64_t type_tag,
                   std::uint64_t addr);
  std::uint64_t dir_lookup(const char* name, std::uint64_t type_tag) const;

  void* dir_base() const noexcept;
  std::size_t dir_bytes() const noexcept;

  // ---- introspection -----------------------------------------------------
  void* base() noexcept { return reinterpret_cast<void*>(map_base_); }
  std::size_t size_bytes() const noexcept { return bytes_; }
  /// The fixed-size user root block (zeroed at create).
  void* root() noexcept;
  std::size_t root_bytes() const noexcept;
  /// True when this handle attached to an existing heap (OpenMode::kOpen).
  bool recovered() const noexcept { return recovered_; }
  /// True when, at attach time, the most recent detach was a close().
  bool previous_shutdown_clean() const noexcept { return was_clean_; }
  /// THIS attacher's generation stamp (1 = the creating lifetime).  Under
  /// concurrent attach each process holds a distinct stamp.
  std::uint64_t generation() const noexcept { return my_generation_; }
  const std::string& path() const noexcept { return path_; }
  int fd() const noexcept { return fd_; }
  bool contains(const void* p) const noexcept {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    return a >= map_base_ && a < map_base_ + bytes_;
  }

  /// Checksum of a header's non-checksum fields (exposed for corruption
  /// tests, which forge headers byte-by-byte).
  static std::uint64_t header_checksum(const HeapHeader& h) noexcept;

 private:
  void create(Options opt);
  void open(Options opt);
  HeapHeader* header() noexcept;
  HeapState* state() const noexcept;
  void persist_header();

  std::string path_;
  int fd_ = -1;
  std::uintptr_t map_base_ = 0;
  std::size_t bytes_ = 0;
  std::size_t data_cursor_ = 0;  // volatile bump offset (replayed on attach)
  std::uint64_t my_generation_ = 0;
  MmapBackend backend_;
  FenceCombiner combiner_;
  bool recovered_ = false;
  bool was_clean_ = false;
  bool closed_ = false;
};

/// Perf-style persistence context over a PersistentHeap: allocation bumps
/// the heap, flush/fence go to the mmap backend, and crash_point forwards
/// to the heap backend's crash hook (so the fork harness can SIGKILL at
/// algorithm-labelled points, not just at flush/fence).
class MmapContext {
 public:
  static constexpr bool kSimulated = false;

  explicit MmapContext(PersistentHeap& heap) noexcept : heap_(&heap) {}

  void* raw_alloc(std::size_t size, std::size_t align) {
    return heap_->raw_alloc(size, align);
  }
  void flush(const void* addr, std::size_t n) { heap_->flush(addr, n); }
  void fence() { heap_->fence(); }
  void persist(const void* addr, std::size_t n) { heap_->persist(addr, n); }

  /// Combined fence over the heap's shared coalescer.  The crash point
  /// fires BEFORE the announcement so a KillSwitch countdown can land a
  /// SIGKILL inside the combined flush→fence window — the window whose
  /// shape this optimization changes.  The shm tier's fence is a compiler
  /// barrier, so there is nothing to combine and it fences directly.
  void fence_combined() {
    crash_point("pmem:fence-combined");
    if (heap_->backend().mode() == MmapBackend::Mode::kShm ||
        !fence_combining_enabled()) {
      heap_->fence();
      return;
    }
    heap_->combiner().fence([this] { heap_->fence(); });
  }

  void persist_combined(const void* addr, std::size_t n) {
    heap_->flush(addr, n);
    fence_combined();
  }

  void crash_point(const char* label) {
    if (hook_ != nullptr) hook_(hook_state_, label);
  }

  /// Arm crash injection on algorithm points AND the backend's flush/fence.
  void set_crash_hook(CrashHook hook, void* state) noexcept {
    hook_ = hook;
    hook_state_ = state;
    heap_->backend().set_crash_hook(hook, state);
  }

  const char* backend_name() const noexcept {
    return heap_->backend().mode_name();
  }
  PersistentHeap& heap() noexcept { return *heap_; }

 private:
  PersistentHeap* heap_;
  CrashHook hook_ = nullptr;
  void* hook_state_ = nullptr;
};

}  // namespace dssq::pmem
