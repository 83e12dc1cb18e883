#include "pmem/persistent_heap.hpp"

#include <fcntl.h>
#include <linux/magic.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <new>

#include "common/tagged_ptr.hpp"
#include "pmem/directory.hpp"

namespace dssq::pmem {

namespace {

constexpr std::size_t align_up(std::size_t v, std::size_t a) noexcept {
  return (v + a - 1) & ~(a - 1);
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw HeapOpenError("PersistentHeap(" + path + "): " + what);
}

[[noreturn]] void fail_errno(const std::string& path, const std::string& what) {
  fail(path, what + ": " + std::strerror(errno));
}

/// Offset of the named-object directory region: header line, state line,
/// then the user root block, rounded to a fresh cache line.
std::size_t dir_start(std::size_t root_bytes) noexcept {
  return align_up(sizeof(HeapHeader) + sizeof(HeapState) + root_bytes,
                  kCacheLineSize);
}

/// First byte of the bump-allocation region: directly after the directory.
std::size_t data_start(std::size_t root_bytes, std::size_t dir_bytes) noexcept {
  return dir_start(root_bytes) + align_up(dir_bytes, kCacheLineSize);
}

struct MapResult {
  void* addr = MAP_FAILED;
  MmapBackend::Mode mode = MmapBackend::Mode::kMsync;
};

/// Map `bytes` of `fd` at `want` (0 = kernel's choice), preferring a DAX
/// MAP_SYNC mapping (CLWB tier) and falling back to a plain shared mapping:
/// the shm tier on tmpfs, the msync tier elsewhere.  A nonzero `want`
/// either lands exactly there or fails — never silently relocates.
MapResult map_file(int fd, std::size_t bytes, std::uintptr_t want) {
  MapResult r;
  int fixed = 0;
  if (want != 0) {
#ifdef MAP_FIXED_NOREPLACE
    fixed = MAP_FIXED_NOREPLACE;
#endif
  }
  void* hint = reinterpret_cast<void*>(want);
  const int prot = PROT_READ | PROT_WRITE;
#if defined(MAP_SYNC) && defined(MAP_SHARED_VALIDATE)
  r.addr = ::mmap(hint, bytes, prot, MAP_SHARED_VALIDATE | MAP_SYNC | fixed,
                  fd, 0);
  if (r.addr != MAP_FAILED) {
    r.mode = MmapBackend::Mode::kClwb;
    return r;
  }
#endif
  r.addr = ::mmap(hint, bytes, prot, MAP_SHARED | fixed, fd, 0);
  struct statfs sf {};
  r.mode = ::fstatfs(fd, &sf) == 0 && sf.f_type == TMPFS_MAGIC
               ? MmapBackend::Mode::kShm
               : MmapBackend::Mode::kMsync;
  if (r.addr != MAP_FAILED && want != 0 &&
      reinterpret_cast<std::uintptr_t>(r.addr) != want) {
    // Kernel without MAP_FIXED_NOREPLACE treated the address as a hint and
    // relocated; a relocated heap is useless (pointers would dangle).
    ::munmap(r.addr, bytes);
    r.addr = MAP_FAILED;
    errno = EEXIST;
  }
  return r;
}

}  // namespace

std::uint64_t PersistentHeap::header_checksum(const HeapHeader& h) noexcept {
  // FNV-1a over every field before `checksum`, field-wise (not byte-wise
  // over padding, of which HeapHeader has none before the checksum).
  const std::uint64_t fields[] = {h.magic, h.version,   h.base,    h.size,
                                  h.root_bytes, h.dir_bytes, h.reserved};
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint64_t f : fields) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (f >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

PersistentHeap::PersistentHeap(const std::string& path, OpenMode mode,
                               Options opt)
    : path_(path) {
  if (mode == OpenMode::kCreate) {
    create(opt);
  } else {
    open(opt);
  }
}

PersistentHeap::PersistentHeap(const std::string& path, OpenMode mode)
    : PersistentHeap(path, mode, Options{}) {}

void PersistentHeap::create(Options opt) {
  const std::size_t dir_bytes =
      align_up(Directory::bytes_for(opt.dir_entries), kCacheLineSize);
  if (opt.bytes < data_start(opt.root_bytes, dir_bytes) + kCacheLineSize) {
    fail(path_, "heap size too small for header + root block + directory");
  }
  const std::size_t bytes = align_up(opt.bytes, kCacheLineSize);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) fail_errno(path_, "open for create failed");
  if (::ftruncate(fd_, static_cast<off_t>(bytes)) != 0) {
    ::close(fd_);
    fd_ = -1;
    fail_errno(path_, "ftruncate failed");
  }
  MapResult m = map_file(fd_, bytes, opt.base_hint);
  if (m.addr == MAP_FAILED) {
    ::close(fd_);
    fd_ = -1;
    fail_errno(path_, "mmap failed");
  }
  const auto base = reinterpret_cast<std::uintptr_t>(m.addr);
  if (!fits_in_address_bits(base + bytes)) {
    // Tagged words can only carry 48 address bits; a heap beyond them
    // could never round-trip its own pointers.
    ::munmap(m.addr, bytes);
    ::close(fd_);
    fd_ = -1;
    fail(path_, "mapping exceeds the 48-bit tagged-pointer address space");
  }
  map_base_ = base;
  bytes_ = bytes;
  backend_ = MmapBackend(m.addr, bytes, fd_, m.mode);
  data_cursor_ = data_start(opt.root_bytes, dir_bytes);

  HeapHeader* hdr = header();
  hdr->magic = kMagic;
  hdr->version = kVersion;
  hdr->base = base;
  hdr->size = bytes;
  hdr->root_bytes = opt.root_bytes;
  hdr->dir_bytes = dir_bytes;
  hdr->reserved = 0;
  persist_header();
  state()->generation.store(1, std::memory_order_relaxed);
  state()->clean_shutdown.store(0, std::memory_order_relaxed);
  backend_.persist(state(), sizeof(HeapState));
  my_generation_ = 1;
  Directory::format(dir_base(), dir_bytes, backend_);
  recovered_ = false;
  was_clean_ = false;
}

void PersistentHeap::open(Options opt) {
  (void)opt;  // geometry comes from the header, never the caller
  fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0) fail_errno(path_, "open failed");

  // Validate the header from a plain read BEFORE mapping anything: a
  // corrupt or foreign file must be refused without side effects.
  HeapHeader h{};
  const ssize_t got = ::pread(fd_, &h, sizeof(h), 0);
  if (got != static_cast<ssize_t>(sizeof(h))) {
    ::close(fd_);
    fd_ = -1;
    fail(path_, "file too small to hold a heap header");
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    fail_errno(path_, "fstat failed");
  }
  std::string reason;
  if (h.magic != kMagic) {
    reason = "bad magic (not a dssq heap, or header destroyed)";
  } else if (h.version != kVersion) {
    reason = "unsupported layout version " + std::to_string(h.version);
  } else if (h.checksum != header_checksum(h)) {
    reason = "header checksum mismatch (torn or corrupted header)";
  } else if (h.size != static_cast<std::uint64_t>(st.st_size)) {
    reason = "header size disagrees with file size (truncated?)";
  } else if (h.base == 0 || !fits_in_address_bits(h.base + h.size)) {
    reason = "recorded mapping base is not a valid 48-bit address";
  } else if (data_start(h.root_bytes, h.dir_bytes) + kCacheLineSize >
             h.size) {
    reason = "root block + directory larger than the heap";
  }
  if (!reason.empty()) {
    ::close(fd_);
    fd_ = -1;
    fail(path_, "refusing to open: " + reason);
  }

  MapResult m = map_file(fd_, h.size, h.base);
  if (m.addr == MAP_FAILED) {
    ::close(fd_);
    fd_ = -1;
    fail_errno(path_,
               "cannot re-map at recorded base 0x" +
                   std::to_string(h.base) +
                   " (address range occupied in this process?)");
  }
  map_base_ = h.base;
  bytes_ = h.size;
  backend_ = MmapBackend(m.addr, bytes_, fd_, m.mode);
  data_cursor_ = data_start(h.root_bytes, h.dir_bytes);
  recovered_ = true;
  Directory::attach_check(dir_base(), h.dir_bytes, path_);

  // Start this lifetime: per-attacher generation stamping.  The atomic
  // fetch_add is valid with any number of concurrently attached processes
  // (MAP_SHARED aliases the same physical line); the clean flag is read
  // before this attach clears it.
  was_clean_ =
      state()->clean_shutdown.load(std::memory_order_relaxed) == 1;
  my_generation_ =
      state()->generation.fetch_add(1, std::memory_order_acq_rel) + 1;
  state()->clean_shutdown.store(0, std::memory_order_release);
  backend_.persist(state(), sizeof(HeapState));
}

PersistentHeap::~PersistentHeap() {
  if (closed_) return;
  // Crash-equivalent teardown: no msync, clean flag stays 0.
  if (map_base_ != 0) ::munmap(reinterpret_cast<void*>(map_base_), bytes_);
  if (fd_ >= 0) ::close(fd_);
}

void PersistentHeap::close() {
  if (closed_) return;
  ::msync(reinterpret_cast<void*>(map_base_), bytes_, MS_SYNC);
  state()->clean_shutdown.store(1, std::memory_order_release);
  backend_.persist(state(), sizeof(HeapState));
  ::munmap(reinterpret_cast<void*>(map_base_), bytes_);
  ::close(fd_);
  map_base_ = 0;
  bytes_ = 0;
  fd_ = -1;
  backend_ = MmapBackend{};
  closed_ = true;
}

void* PersistentHeap::raw_alloc(std::size_t size, std::size_t align) {
  const std::size_t offset = align_up(data_cursor_, align);
  if (offset + size > bytes_) throw std::bad_alloc();
  data_cursor_ = offset + size;
  return reinterpret_cast<void*>(map_base_ + offset);
}

void* PersistentHeap::root() noexcept {
  return reinterpret_cast<void*>(map_base_ + sizeof(HeapHeader) +
                                 sizeof(HeapState));
}

std::size_t PersistentHeap::root_bytes() const noexcept {
  return reinterpret_cast<const HeapHeader*>(map_base_)->root_bytes;
}

void* PersistentHeap::dir_base() const noexcept {
  const auto* hdr = reinterpret_cast<const HeapHeader*>(map_base_);
  return reinterpret_cast<void*>(map_base_ + dir_start(hdr->root_bytes));
}

std::size_t PersistentHeap::dir_bytes() const noexcept {
  return reinterpret_cast<const HeapHeader*>(map_base_)->dir_bytes;
}

HeapHeader* PersistentHeap::header() noexcept {
  return reinterpret_cast<HeapHeader*>(map_base_);
}

HeapState* PersistentHeap::state() const noexcept {
  return reinterpret_cast<HeapState*>(map_base_ + sizeof(HeapHeader));
}

void PersistentHeap::persist_header() {
  HeapHeader* hdr = header();
  hdr->checksum = header_checksum(*hdr);
  backend_.persist(hdr, sizeof(HeapHeader));
}

void PersistentHeap::dir_publish(const char* name, std::uint64_t type_tag,
                                 std::uint64_t addr) {
  Directory dir(dir_base(), dir_bytes());
  dir.publish(name, type_tag, addr, backend_);
}

std::uint64_t PersistentHeap::dir_lookup(const char* name,
                                         std::uint64_t type_tag) const {
  Directory dir(dir_base(), dir_bytes());
  return dir.lookup(name, type_tag);
}

}  // namespace dssq::pmem
