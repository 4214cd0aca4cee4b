#include "src/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace perfbench {
namespace {

struct Parsed {
  bool ok = false;
  std::string error;
  std::string workload = "w";
  uint64_t seed = 7;
};

Parsed ParseArgs(std::vector<const char*> args) {
  Parsed p;
  FlagSet flags;
  flags.String("workload", &p.workload, "workload");
  flags.Uint("seed", &p.seed, 0, 1000, "seed");
  args.insert(args.begin(), "prog");
  p.ok = flags.Parse(static_cast<int>(args.size()), args.data(), &p.error);
  return p;
}

TEST(FlagsTest, AcceptsSpaceAndEqualsForms) {
  Parsed p = ParseArgs({"--workload", "get_uniform", "--seed=42"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.workload, "get_uniform");
  EXPECT_EQ(p.seed, 42u);
}

TEST(FlagsTest, KeepsDefaultsForFlagsNotGiven) {
  Parsed p = ParseArgs({});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.workload, "w");
  EXPECT_EQ(p.seed, 7u);
}

TEST(FlagsTest, RejectsUnknownFlag) {
  Parsed p = ParseArgs({"--sed", "3"});
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.error.find("unknown flag --sed"), std::string::npos);
}

TEST(FlagsTest, RejectsMalformedNumbers) {
  for (const char* bad : {"abc", "12x", "-1", "+3", " 4", "1.5", ""}) {
    Parsed p = ParseArgs({"--seed", bad});
    EXPECT_FALSE(p.ok) << "accepted '" << bad << "'";
  }
}

TEST(FlagsTest, RejectsOutOfRange) {
  Parsed p = ParseArgs({"--seed=1001"});
  EXPECT_FALSE(p.ok);
  EXPECT_FALSE(ParseArgs({"--seed=99999999999999999999999"}).ok);
}

TEST(FlagsTest, RejectsMissingValueRepeatsAndPositionals) {
  EXPECT_FALSE(ParseArgs({"--seed"}).ok);
  EXPECT_FALSE(ParseArgs({"--seed", "1", "--seed", "2"}).ok);
  EXPECT_FALSE(ParseArgs({"get_uniform"}).ok);
  EXPECT_FALSE(ParseArgs({"-seed", "1"}).ok);
  EXPECT_FALSE(ParseArgs({"--"}).ok);
}

}  // namespace
}  // namespace perfbench
