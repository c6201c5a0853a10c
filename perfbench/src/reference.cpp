#include "reference.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

constexpr int kValues = 20000;
constexpr int kEntries = 3000;

struct Entry {
  std::uint32_t key = 0;
  std::uint32_t length = 0;
  char text[12] = {};
};

/// The reference's working memory, allocated once, so that its timed work
/// never calls the allocator the flow uses.
struct Buffers {
  std::vector<std::uint32_t> values = std::vector<std::uint32_t>(kValues);
  std::vector<Entry> table = std::vector<Entry>(kEntries);
};

/// Sorting, binary search over a flat table and short decimal text: the same
/// kinds of work as the flow, with no allocation and no libmframe code.
std::uint64_t referenceWork(Buffers& b) {
  std::mt19937 rng(12345);
  for (std::uint32_t& x : b.values) x = rng();
  std::sort(b.values.begin(), b.values.end());
  for (int i = 0; i < kEntries; ++i) {
    Entry& e = b.table[i];
    e.key = b.values[(i * 7919) % kValues];
    e.length = static_cast<std::uint32_t>(
        std::to_chars(e.text, e.text + sizeof e.text, b.values[i]).ptr - e.text);
  }
  std::sort(b.table.begin(), b.table.end(),
            [](const Entry& x, const Entry& y) { return x.key < y.key; });
  std::uint64_t h = 0;
  for (int i = 0; i < kValues; i += 3) {
    const std::uint32_t key = b.values[i];
    const auto it = std::lower_bound(
        b.table.begin(), b.table.end(), key,
        [](const Entry& e, std::uint32_t k) { return e.key < k; });
    if (it != b.table.end() && it->key == key) h = h * 31 + it->length + it->text[0];
    else h = h * 31 + 1;
  }
  return h;
}

}  // namespace

double timeReference() {
  static Buffers buffers;
  static const std::uint64_t expected = referenceWork(buffers);
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t h = referenceWork(buffers);
  const auto end = std::chrono::steady_clock::now();
  if (h != expected) throw std::logic_error("reference work changed its result");
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace perfbench
