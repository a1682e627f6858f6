// Fragmentation of a sorted record list for parallel window scanning
// (paper §4.1, figure 5). The paper's coordinator ships each processor
// its fragment plus a band of the w-1 records before it. Here a fragment
// is the range of positions a processor OWNS; the band is lookback only
// (the owned-range rule in core/window_scanner.h). Owned fragments tile
// the order, so their scans compare exactly the pairs of the global scan,
// each once (tested in tests/parallel_test.cc and
// tests/window_property_test.cc).

#ifndef MERGEPURGE_CORE_COORDINATOR_H_
#define MERGEPURGE_CORE_COORDINATOR_H_

#include <cstddef>
#include <vector>

namespace mergepurge {

// Half-open range [begin, end) of owned positions in the sorted order. Its
// scan also reads the up to w-1 positions before `begin`.
struct Fragment {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

// Splits n positions into at most p owned fragments of near-equal size
// that tile [0, n). Returns fewer than p fragments when n < p.
std::vector<Fragment> MakeOwnedFragments(size_t n, size_t p);

// The paper's memory-bounded variant: the coordinator streams blocks of at
// most m records — a w-1 band plus m-(w-1) owned positions — and deals
// them round-robin to p sites; site s processes blocks s, s+p, s+2p, ...
// Returns the per-site lists of owned fragments, which tile [0, n). Any
// tiling compares exactly the serial pairs, so m needs no floor: a block
// of m <= w-1 records owns one position.
std::vector<std::vector<Fragment>> MakeBlockCyclicFragments(size_t n,
                                                            size_t p,
                                                            size_t m,
                                                            size_t w);

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_COORDINATOR_H_
