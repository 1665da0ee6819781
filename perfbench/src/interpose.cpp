#include "interpose.hpp"

#include <dlfcn.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_threads{0};
std::atomic<std::uint64_t> g_fsyncs{0};
std::atomic<bool> g_count_allocs{false};

// Allocation counts are sharded by thread so that counting does not turn
// every operator new into a contended atomic on one cache line.
constexpr std::size_t kShards = 64;
struct alignas(64) Shard {
  std::atomic<std::uint64_t> n{0};
};
Shard g_alloc_shards[kShards];
std::atomic<std::size_t> g_next_shard{0};
thread_local const std::size_t t_shard =
    g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;

void count_alloc() noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_shards[t_shard].n.fetch_add(1, std::memory_order_relaxed);
  }
}

template <typename Fn>
Fn next_symbol(const char* name) {
  void* sym = dlsym(RTLD_NEXT, name);
  if (sym == nullptr) std::abort();
  return reinterpret_cast<Fn>(sym);
}

void* counted_alloc(std::size_t n) {
  count_alloc();
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  count_alloc();
  const auto a = std::max<std::size_t>(static_cast<std::size_t>(al), sizeof(void*));
  void* p = nullptr;
  return posix_memalign(&p, a, n == 0 ? 1 : n) == 0 ? p : nullptr;
}

}  // namespace

namespace pb::counters {

Snapshot now() noexcept {
  Snapshot s{g_threads.load(std::memory_order_relaxed),
             g_fsyncs.load(std::memory_order_relaxed), 0};
  for (const Shard& sh : g_alloc_shards) s.allocs += sh.n.load(std::memory_order_relaxed);
  return s;
}

void count_allocations(bool on) noexcept {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

}  // namespace pb::counters

// ---- interposed C symbols (resolved ahead of libc for the whole process) ----

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) {
  using Fn = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*), void*);
  static const Fn real = next_symbol<Fn>("pthread_create");
  g_threads.fetch_add(1, std::memory_order_relaxed);
  return real(thread, attr, start, arg);
}

extern "C" int fsync(int fd) {
  using Fn = int (*)(int);
  static const Fn real = next_symbol<Fn>("fsync");
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return real(fd);
}

extern "C" int fdatasync(int fd) {
  using Fn = int (*)(int);
  static const Fn real = next_symbol<Fn>("fdatasync");
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return real(fd);
}

// ---- counting global allocation functions ----

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
