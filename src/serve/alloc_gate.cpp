// Counting global allocator. Link harvest_allocgate into a binary to route
// every operator new/delete variant through these wrappers; the per-thread
// counters back serve's zero-allocation assertions.
#include "serve/alloc_gate.h"

#include <cstdlib>
#include <new>

namespace harvest::serve {
namespace detail {

thread_local std::uint64_t t_alloc_count = 0;
thread_local std::uint64_t t_alloc_bytes = 0;

void* counted_alloc(std::size_t size) {
  ++t_alloc_count;
  t_alloc_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  ++t_alloc_count;
  t_alloc_bytes += size;
  if (align < sizeof(void*)) align = sizeof(void*);
  // aligned_alloc requires size to be a multiple of align.
  const std::size_t padded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, padded == 0 ? align : padded);
}

}  // namespace detail

std::uint64_t thread_allocation_count() { return detail::t_alloc_count; }
std::uint64_t thread_allocation_bytes() { return detail::t_alloc_bytes; }

}  // namespace harvest::serve

namespace {

void* throw_if_null(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return throw_if_null(harvest::serve::detail::counted_alloc(size));
}

void* operator new[](std::size_t size) {
  return throw_if_null(harvest::serve::detail::counted_alloc(size));
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return harvest::serve::detail::counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return harvest::serve::detail::counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  return throw_if_null(harvest::serve::detail::counted_alloc_aligned(
      size, static_cast<std::size_t>(align)));
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return throw_if_null(harvest::serve::detail::counted_alloc_aligned(
      size, static_cast<std::size_t>(align)));
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return harvest::serve::detail::counted_alloc_aligned(
      size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return harvest::serve::detail::counted_alloc_aligned(
      size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
