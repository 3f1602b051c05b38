// Counts heap allocations made by a test binary that links
// alloc_counting.cpp, which replaces the global (unaligned) operator
// new/delete.  Link it into a test with target_sources in
// tests/CMakeLists.txt.
//
//   AllocWindow window;        // counting starts
//   ...steady-state work...
//   EXPECT_EQ(window.allocs(), 0u);

#pragma once

#include <cstddef>

namespace pam::testing_alloc {

inline bool g_counting = false;
inline std::size_t g_allocs = 0;

/// RAII counting window; windows do not nest.
class AllocWindow {
 public:
  AllocWindow() noexcept : start_(g_allocs) { g_counting = true; }
  ~AllocWindow() { g_counting = false; }
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;

  [[nodiscard]] std::size_t allocs() const noexcept { return g_allocs - start_; }

 private:
  std::size_t start_;
};

}  // namespace pam::testing_alloc
