#include "crew/common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace crew {
namespace {

// One flag of every type, with distinctive defaults.
struct Declared {
  int samples = 96;
  uint64_t seed = 7;
  double fraction = 0.5;
  bool verbose = false;
  std::string name = "crew";
  FlagParser flags;

  Declared() {
    flags.Add("samples", &samples, "perturbation samples");
    flags.Add("seed", &seed, "base seed");
    flags.Add("fraction", &fraction, "share of units");
    flags.Add("verbose", &verbose, "chatty output");
    flags.Add("name", &name, "experiment name");
  }

  Status Parse(std::vector<std::string> args) {
    std::vector<const char*> argv = {"prog"};
    for (const std::string& a : args) argv.push_back(a.c_str());
    return flags.Parse(static_cast<int>(argv.size()), argv.data());
  }
};

// Parse must refuse `args` with InvalidArgument naming `culprit`.
void ExpectRefused(std::vector<std::string> args, const std::string& culprit) {
  Declared d;
  const Status status = d.Parse(args);
  ASSERT_FALSE(status.ok()) << culprit;
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << culprit;
  EXPECT_NE(status.message().find(culprit), std::string::npos)
      << status.ToString();
}

TEST(FlagsTest, DefaultsKeptWhenAbsent) {
  Declared d;
  ASSERT_TRUE(d.Parse({}).ok());
  EXPECT_EQ(d.samples, 96);
  EXPECT_EQ(d.seed, 7u);
  EXPECT_DOUBLE_EQ(d.fraction, 0.5);
  EXPECT_FALSE(d.verbose);
  EXPECT_EQ(d.name, "crew");
}

TEST(FlagsTest, EqualsForm) {
  Declared d;
  ASSERT_TRUE(d.Parse({"--samples=128", "--name=t3", "--fraction=0.75"}).ok());
  EXPECT_EQ(d.samples, 128);
  EXPECT_EQ(d.name, "t3");
  EXPECT_DOUBLE_EQ(d.fraction, 0.75);
  EXPECT_EQ(d.seed, 7u);  // untouched
}

TEST(FlagsTest, SpaceSeparatedForm) {
  Declared d;
  ASSERT_TRUE(d.Parse({"--samples", "64", "--seed", "11", "--verbose",
                       "false"})
                  .ok());
  EXPECT_EQ(d.samples, 64);
  EXPECT_EQ(d.seed, 11u);
  EXPECT_FALSE(d.verbose);
}

TEST(FlagsTest, NegativeIntInSpaceSeparatedForm) {
  Declared d;
  ASSERT_TRUE(d.Parse({"--samples", "-1"}).ok());
  EXPECT_EQ(d.samples, -1);
}

TEST(FlagsTest, BareBoolFlagIsTrue) {
  Declared d;
  ASSERT_TRUE(d.Parse({"--verbose", "--samples=3"}).ok());
  EXPECT_TRUE(d.verbose);
  EXPECT_EQ(d.samples, 3);
  Declared last;
  ASSERT_TRUE(last.Parse({"--verbose"}).ok());
  EXPECT_TRUE(last.verbose);
}

TEST(FlagsTest, BoolVariants) {
  for (const char* yes : {"true", "TRUE", "1", "yes"}) {
    Declared d;
    ASSERT_TRUE(d.Parse({std::string("--verbose=") + yes}).ok()) << yes;
    EXPECT_TRUE(d.verbose) << yes;
  }
  for (const char* no : {"false", "0", "no", "No"}) {
    Declared d;
    d.verbose = true;
    ASSERT_TRUE(d.Parse({std::string("--verbose=") + no}).ok()) << no;
    EXPECT_FALSE(d.verbose) << no;
  }
}

TEST(FlagsTest, Uint64Maximum) {
  Declared d;
  ASSERT_TRUE(d.Parse({"--seed=18446744073709551615"}).ok());
  EXPECT_EQ(d.seed, 18446744073709551615ULL);
}

TEST(FlagsTest, LastOccurrenceWins) {
  Declared d;
  ASSERT_TRUE(d.Parse({"--samples=1", "--samples=2"}).ok());
  EXPECT_EQ(d.samples, 2);
}

TEST(FlagsTest, StringMayBeEmpty) {
  Declared d;
  ASSERT_TRUE(d.Parse({"--name="}).ok());
  EXPECT_EQ(d.name, "");
}

TEST(FlagsTest, PositionalArgumentIsRefused) {
  ExpectRefused({"oops"}, "oops");
  ExpectRefused({"--samples=3", "oops"}, "oops");
  ExpectRefused({"-samples=3"}, "-samples=3");
}

TEST(FlagsTest, UndeclaredNameIsRefused) {
  ExpectRefused({"--sampels=8"}, "--sampels");
  ExpectRefused({"--help"}, "--help");
  ExpectRefused({"--"}, "--");
}

TEST(FlagsTest, UnparsableValueIsRefused) {
  ExpectRefused({"--samples=abc"}, "--samples");
  ExpectRefused({"--samples=12x"}, "--samples");
  ExpectRefused({"--samples="}, "--samples");
  ExpectRefused({"--samples=4.5"}, "--samples");
  ExpectRefused({"--samples=99999999999"}, "--samples");  // > INT_MAX
  ExpectRefused({"--seed=-1"}, "--seed");
  ExpectRefused({"--seed", "-1"}, "--seed");
  ExpectRefused({"--seed=18446744073709551616"}, "--seed");  // > 2^64 - 1
  ExpectRefused({"--fraction=half"}, "--fraction");
  ExpectRefused({"--fraction="}, "--fraction");
}

TEST(FlagsTest, BadBoolValueIsRefused) {
  ExpectRefused({"--verbose=maybe"}, "--verbose");
  ExpectRefused({"--verbose=off"}, "--verbose");
  ExpectRefused({"--verbose", "oops"}, "--verbose");
  ExpectRefused({"--verbose="}, "--verbose");
}

TEST(FlagsTest, NonBoolFlagWithoutValueIsRefused) {
  ExpectRefused({"--samples"}, "--samples");
  ExpectRefused({"--samples", "--verbose"}, "--samples");
  ExpectRefused({"--name"}, "--name");
}

TEST(FlagsTest, UsageListsEveryDeclaredFlag) {
  Declared d;
  const std::string usage = d.flags.Usage();
  for (const char* line :
       {"--samples", "int", "perturbation samples", "(default: 96)",
        "--seed", "uint64", "(default: 7)", "--fraction", "double",
        "(default: 0.5)", "--verbose", "bool", "(default: false)", "--name",
        "string", "experiment name", "(default: crew)"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
  }
}

TEST(FlagsTest, UsageShowsDeclaredDefaultsAfterParse) {
  Declared d;
  ASSERT_TRUE(d.Parse({"--samples=5"}).ok());
  EXPECT_NE(d.flags.Usage().find("(default: 96)"), std::string::npos);
}

TEST(FlagsDeathTest, ParseOrExitPrintsReasonAndUsageThenExitsTwo) {
  Declared d;
  const char* argv[] = {"prog", "--sampels=8"};
  EXPECT_EXIT(d.flags.ParseOrExit(2, argv), ::testing::ExitedWithCode(2),
              "unknown flag --sampels(.|\n)*--samples +int +perturbation");
}

}  // namespace
}  // namespace crew
