// Tests for pair-set disk persistence and the closure over stored pass
// files (io/pairs_io.h).

#include <cstdio>

#include <gtest/gtest.h>

#include "core/multipass.h"
#include "io/pairs_io.h"

namespace mergepurge {
namespace {

TEST(PairsIoTest, RoundTrip) {
  PairSet pairs;
  pairs.Add(3, 9);
  pairs.Add(1, 2);
  pairs.Add(0, 100000);
  std::string path = testing::TempDir() + "/pairs_roundtrip.mpp";
  ASSERT_TRUE(WritePairSetFile(pairs, path).ok());
  Result<PairSet> loaded = ReadPairSetFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), pairs.size());
  pairs.ForEach([&](TupleId a, TupleId b) {
    EXPECT_TRUE(loaded->Contains(a, b));
  });
  std::remove(path.c_str());
}

TEST(PairsIoTest, EmptySetRoundTrip) {
  PairSet pairs;
  std::string path = testing::TempDir() + "/pairs_empty.mpp";
  ASSERT_TRUE(WritePairSetFile(pairs, path).ok());
  Result<PairSet> loaded = ReadPairSetFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
  std::remove(path.c_str());
}

TEST(PairsIoTest, RejectsBadFiles) {
  std::string path = testing::TempDir() + "/pairs_bad.mpp";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("NOTMAGIC\n1 2\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadPairSetFile(path).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("MPP1\n5 3\n", f);  // lo >= hi.
    std::fclose(f);
  }
  EXPECT_FALSE(ReadPairSetFile(path).ok());
  EXPECT_FALSE(ReadPairSetFile("/nonexistent.mpp").ok());
  std::remove(path.c_str());
}

TEST(PairsIoTest, ClosureFromFilesMatchesInMemoryClosure) {
  // The paper's pipelined operation: each pass stores pairs on disk; the
  // closure runs over the stored files.
  PairSet pass1, pass2;
  pass1.Add(0, 1);
  pass2.Add(1, 2);
  pass2.Add(4, 5);
  std::string path1 = testing::TempDir() + "/pass1.mpp";
  std::string path2 = testing::TempDir() + "/pass2.mpp";
  ASSERT_TRUE(WritePairSetFile(pass1, path1).ok());
  ASSERT_TRUE(WritePairSetFile(pass2, path2).ok());

  auto from_disk = ClosureFromFiles({path1, path2}, 6);
  ASSERT_TRUE(from_disk.ok()) << from_disk.status().ToString();
  auto in_memory = TransitiveClosure({&pass1, &pass2}, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      EXPECT_EQ((*from_disk)[i] == (*from_disk)[j],
                in_memory[i] == in_memory[j]);
    }
  }
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(PairsIoTest, ClosureRejectsOutOfRangeIds) {
  PairSet pairs;
  pairs.Add(0, 99);
  std::string path = testing::TempDir() + "/pairs_range.mpp";
  ASSERT_TRUE(WritePairSetFile(pairs, path).ok());
  EXPECT_FALSE(ClosureFromFiles({path}, 10).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mergepurge
