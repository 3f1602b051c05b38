// Global operator new/delete replacements behind alloc_counting.hpp.

#include "alloc_counting.hpp"

#include <cstdlib>
#include <new>

void* operator new(std::size_t size) {
  if (pam::testing_alloc::g_counting) {
    ++pam::testing_alloc::g_allocs;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
