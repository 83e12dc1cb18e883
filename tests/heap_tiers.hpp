// Heap directories per MmapBackend page-cache tier.  PersistentHeap picks
// its tier from the filesystem the heap file lives on (fstatfs), so a test
// chooses the tier by choosing the directory: testing::TempDir() runs
// mmap-msync unless on_tmpfs() says otherwise, and shm_heap_dir() runs
// mmap-shm, or comes back empty with the reason for GTEST_SKIP.
#pragma once

#include <linux/magic.h>
#include <sys/vfs.h>

#include <string>

namespace dssq::test {

struct HeapDir {
  std::string dir;     // ends in '/'; empty when unavailable
  std::string reason;  // why it is unavailable
};

inline bool on_tmpfs(const std::string& dir) {
  struct statfs sf {};
  return ::statfs(dir.c_str(), &sf) == 0 && sf.f_type == TMPFS_MAGIC;
}

/// /dev/shm: tmpfs, so heaps there run the mmap-shm tier.
inline HeapDir shm_heap_dir() {
  struct statfs sf {};
  if (::statfs("/dev/shm", &sf) != 0) return {"", "no /dev/shm on this host"};
  if (sf.f_type != TMPFS_MAGIC) return {"", "/dev/shm is not tmpfs here"};
  return {"/dev/shm/", ""};
}

}  // namespace dssq::test
