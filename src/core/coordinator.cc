#include "core/coordinator.h"

#include <algorithm>

namespace mergepurge {

std::vector<Fragment> MakeOwnedFragments(size_t n, size_t p) {
  std::vector<Fragment> fragments;
  if (n == 0 || p == 0) return fragments;
  if (p > n) p = n;

  // Distribute n positions as evenly as possible.
  const size_t base = n / p;
  const size_t extra = n % p;
  size_t cursor = 0;
  for (size_t i = 0; i < p; ++i) {
    Fragment fragment;
    fragment.begin = cursor;
    fragment.end = cursor + base + (i < extra ? 1 : 0);
    fragments.push_back(fragment);
    cursor = fragment.end;
  }
  return fragments;
}

std::vector<std::vector<Fragment>> MakeBlockCyclicFragments(size_t n,
                                                            size_t p,
                                                            size_t m,
                                                            size_t w) {
  std::vector<std::vector<Fragment>> per_site(p == 0 ? 1 : p);
  if (n == 0) return per_site;
  const size_t overlap = w > 0 ? w - 1 : 0;

  // Block k owns [k*stride, (k+1)*stride): with its band of the w-1
  // records before it, that is M records ("The CP stores the last w-1 of
  // the block sent to site 1 and reads M-(w-1) records from disk, for a
  // total of M records"). A block of M <= w-1 records owns one position.
  const size_t stride = m > overlap ? m - overlap : 1;
  size_t site = 0;
  for (size_t begin = 0; begin < n; begin += stride) {
    Fragment block;
    block.begin = begin;
    block.end = std::min(n, begin + stride);
    per_site[site % per_site.size()].push_back(block);
    ++site;
  }
  return per_site;
}

}  // namespace mergepurge
