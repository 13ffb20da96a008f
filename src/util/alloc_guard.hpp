// Process-wide allocation counting for hot-path enforcement
// (docs/STATIC_ANALYSIS.md "Runtime enforcement: AllocGuard").
//
// A binary opts in by placing IFET_ALLOC_GUARD_INSTALL() at namespace
// scope in exactly one TU; that defines replacement global operator
// new/delete which forward to malloc/free and bump process-wide atomic
// counters. Binaries that do not install the guard still compile against
// DenyAllocScope — the counters simply never move.
//
// DenyAllocScope is a snapshot, not a switch: it records the global
// allocation count at construction and reports the delta. Because the
// counters are global atomics, allocations made by other threads —
// including ThreadPool workers servicing a parallel_for dispatched inside
// the scope — are counted too, which is exactly what a steady-state
// "this region allocates nothing anywhere" bench assertion needs.
// Scopes nest trivially (each holds its own snapshot).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace ifet {
namespace alloc_guard {

/// Total operator-new calls observed since process start (0 until a TU
/// installs the guard). Monotonic; never reset.
inline std::atomic<std::uint64_t>& allocation_count() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

/// Total operator-delete calls observed. Kept for leak-shaped debugging;
/// DenyAllocScope only reads allocation_count().
inline std::atomic<std::uint64_t>& deallocation_count() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

/// Total bytes requested through operator new. Monotonic; never reset.
inline std::atomic<std::uint64_t>& allocated_bytes() {
  static std::atomic<std::uint64_t> bytes{0};
  return bytes;
}

inline void note_alloc(std::size_t size) {
  allocation_count().fetch_add(1, std::memory_order_relaxed);
  allocated_bytes().fetch_add(size, std::memory_order_relaxed);
}

inline void note_free() {
  deallocation_count().fetch_add(1, std::memory_order_relaxed);
}

}  // namespace alloc_guard

/// RAII allocation probe: `allocations()` is the number of operator-new
/// calls (process-wide, all threads) since this scope was constructed, and
/// `bytes()` the bytes they requested. Steady-state sections assert
/// `scope.allocations() == 0` after a warm-up pass; decoders of hostile
/// input bound `scope.bytes()`.
class DenyAllocScope {
 public:
  DenyAllocScope()
      : start_(alloc_guard::allocation_count().load(
            std::memory_order_relaxed)),
        start_bytes_(
            alloc_guard::allocated_bytes().load(std::memory_order_relaxed)) {}

  DenyAllocScope(const DenyAllocScope&) = delete;
  DenyAllocScope& operator=(const DenyAllocScope&) = delete;

  std::uint64_t allocations() const {
    return alloc_guard::allocation_count().load(std::memory_order_relaxed) -
           start_;
  }

  std::uint64_t bytes() const {
    return alloc_guard::allocated_bytes().load(std::memory_order_relaxed) -
           start_bytes_;
  }

 private:
  std::uint64_t start_;
  std::uint64_t start_bytes_;
};

}  // namespace ifet

// Defines the replacement allocation functions. Use at namespace scope in
// ONE translation unit of the opting-in binary. The operators are noinline:
// once GCC inlines a malloc-backed operator new into a caller it pairs the
// malloc against the library operator delete and emits a bogus
// -Wmismatched-new-delete at the (header) call site, where no pragma in
// this TU can reach; keeping the bodies out of line keeps the diagnostic
// silent and the counters honest under any optimization level.
#define IFET_ALLOC_GUARD_INSTALL()                                        \
  __attribute__((noinline)) void* operator new(std::size_t size) {        \
    ::ifet::alloc_guard::note_alloc(size);                                \
    if (void* p = std::malloc(size ? size : 1)) return p;                 \
    throw std::bad_alloc();                                               \
  }                                                                       \
  __attribute__((noinline)) void* operator new[](std::size_t size) {      \
    ::ifet::alloc_guard::note_alloc(size);                                \
    if (void* p = std::malloc(size ? size : 1)) return p;                 \
    throw std::bad_alloc();                                               \
  }                                                                       \
  __attribute__((noinline)) void operator delete(void* p) noexcept {      \
    ::ifet::alloc_guard::note_free();                                     \
    std::free(p);                                                         \
  }                                                                       \
  __attribute__((noinline)) void operator delete[](void* p) noexcept {    \
    ::ifet::alloc_guard::note_free();                                     \
    std::free(p);                                                         \
  }                                                                       \
  __attribute__((noinline)) void operator delete(void* p,                 \
                                                 std::size_t) noexcept {  \
    ::ifet::alloc_guard::note_free();                                     \
    std::free(p);                                                         \
  }                                                                       \
  __attribute__((noinline)) void operator delete[](                       \
      void* p, std::size_t) noexcept {                                    \
    ::ifet::alloc_guard::note_free();                                     \
    std::free(p);                                                         \
  }                                                                       \
  static_assert(true, "IFET_ALLOC_GUARD_INSTALL requires a semicolon")
