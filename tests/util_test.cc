// Unit tests for util: string helpers, config parsing, CSV, env.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "util/config.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/str.h"

namespace ccsim {
namespace {

TEST(StrTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  abc  "), "abc");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("\t a b \n"), "a b");
}

TEST(StrTest, SplitBasic) {
  auto fields = Split("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(StrTest, SplitKeepsEmptyFields) {
  auto fields = Split(",a,,b,", ',');
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_EQ(fields[0], "");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[4], "");
}

TEST(StrTest, SplitNoSeparator) {
  auto fields = Split("abc", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "abc");
}

TEST(StrTest, ParseIntValid) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-7").value(), -7);
  EXPECT_EQ(ParseInt(" 100 ").value(), 100);
  EXPECT_EQ(ParseInt("0").value(), 0);
}

TEST(StrTest, ParseIntInvalid) {
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("abc").has_value());
  EXPECT_FALSE(ParseInt("42x").has_value());
  EXPECT_FALSE(ParseInt("4.2").has_value());
}

TEST(StrTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.25").value(), 0.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("7").value(), 7.0);
}

TEST(StrTest, ParseDoubleInvalid) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("1.2.3").has_value());
  EXPECT_FALSE(ParseDouble("x").has_value());
}

TEST(StrTest, ParseBool) {
  EXPECT_TRUE(ParseBool("true").value());
  EXPECT_TRUE(ParseBool("TRUE").value());
  EXPECT_TRUE(ParseBool("1").value());
  EXPECT_FALSE(ParseBool("false").value());
  EXPECT_FALSE(ParseBool("0").value());
  EXPECT_FALSE(ParseBool("maybe").has_value());
}

TEST(StrTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StringPrintf("empty"), "empty");
}

TEST(StrTest, StartsWith) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(ConfigTest, ParseTextBasic) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.ParseText("a = 1\nb=hello\n# comment\n\nc = 2.5", &error));
  EXPECT_EQ(config.GetInt("a").value(), 1);
  EXPECT_EQ(config.GetString("b").value(), "hello");
  EXPECT_DOUBLE_EQ(config.GetDouble("c").value(), 2.5);
}

TEST(ConfigTest, ParseTextInlineComment) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.ParseText("a = 1 # trailing", &error));
  EXPECT_EQ(config.GetInt("a").value(), 1);
}

TEST(ConfigTest, ParseTextMalformed) {
  Config config;
  std::string error;
  EXPECT_FALSE(config.ParseText("just a line without equals", &error));
  EXPECT_FALSE(error.empty());
}

TEST(ConfigTest, ParseArgs) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.ParseArgs({"mpl=25", "write_prob=0.5"}, &error));
  EXPECT_EQ(config.GetInt("mpl").value(), 25);
  EXPECT_DOUBLE_EQ(config.GetDouble("write_prob").value(), 0.5);
}

TEST(ConfigTest, ParseArgsMalformed) {
  Config config;
  std::string error;
  EXPECT_FALSE(config.ParseArgs({"justakey"}, &error));
}

TEST(ConfigTest, MissingKeysReturnNullopt) {
  Config config;
  EXPECT_FALSE(config.GetInt("absent").has_value());
  EXPECT_EQ(config.GetIntOr("absent", 9), 9);
  EXPECT_DOUBLE_EQ(config.GetDoubleOr("absent", 1.5), 1.5);
  EXPECT_EQ(config.GetStringOr("absent", "dflt"), "dflt");
  EXPECT_TRUE(config.GetBoolOr("absent", true));
}

TEST(ConfigTest, LastSetWins) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.ParseArgs({"k=1", "k=2"}, &error));
  EXPECT_EQ(config.GetInt("k").value(), 2);
}

// What Config::CheckAllRead prints; empty when every key was read.
std::string UnreadReport(const Config& config) {
  std::ostringstream err;
  const bool all_read = config.CheckAllRead(err);
  EXPECT_EQ(all_read, err.str().empty());
  return err.str();
}

TEST(ConfigTest, KeysReadThroughHasOrAnyGetterAreNotReported) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.ParseArgs({"has=x", "s=x", "i=1", "d=1.5", "b=true",
                                "so=x", "io=1", "do=1.5", "bo=true"},
                               &error));
  EXPECT_TRUE(config.Has("has"));
  EXPECT_TRUE(config.GetString("s").has_value());
  EXPECT_TRUE(config.GetInt("i").has_value());
  EXPECT_TRUE(config.GetDouble("d").has_value());
  EXPECT_TRUE(config.GetBool("b").has_value());
  EXPECT_EQ(config.GetStringOr("so", ""), "x");
  EXPECT_EQ(config.GetIntOr("io", 0), 1);
  EXPECT_DOUBLE_EQ(config.GetDoubleOr("do", 0.0), 1.5);
  EXPECT_TRUE(config.GetBoolOr("bo", false));
  EXPECT_EQ(UnreadReport(config), "");
}

TEST(ConfigTest, KeyOnlySetIsReported) {
  Config config;
  std::string error;
  ASSERT_TRUE(
      config.ParseText("mpl = 5\nwrite_prb = 0.9\nmpll = 3\n", &error));
  EXPECT_EQ(config.GetIntOr("mpl", 1), 5);
  EXPECT_EQ(UnreadReport(config),
            "unknown key: mpll=3\nunknown key: write_prb=0.9\n");
}

TEST(ConfigTest, LookingUpAnAbsentKeyAddsNothing) {
  Config config;
  EXPECT_FALSE(config.Has("absent"));
  EXPECT_EQ(config.GetIntOr("absent", 3), 3);
  EXPECT_EQ(UnreadReport(config), "");
  // A lookup before the key was set does not count as reading it.
  config.Set("absent", "1");
  EXPECT_EQ(UnreadReport(config), "unknown key: absent=1\n");
}

TEST(CsvTest, WritesQuotedFields) {
  std::string path = testing::TempDir() + "/ccsim_csv_test.csv";
  {
    CsvWriter csv(path);
    ASSERT_TRUE(csv.ok());
    csv.WriteRow({"plain", "with,comma", "with\"quote"});
    csv.WriteRow({CsvWriter::Field(1.5), CsvWriter::Field(int64_t{42})});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "plain,\"with,comma\",\"with\"\"quote\"");
  EXPECT_EQ(line2, "1.5,42");
}

TEST(EnvTest, UnsetReturnsFallback) {
  unsetenv("CCSIM_TEST_UNSET");
  EXPECT_FALSE(GetEnv("CCSIM_TEST_UNSET").has_value());
  EXPECT_EQ(GetEnvInt("CCSIM_TEST_UNSET", 3), 3);
  EXPECT_DOUBLE_EQ(GetEnvDouble("CCSIM_TEST_UNSET", 2.5), 2.5);
}

TEST(EnvTest, SetValueParsed) {
  setenv("CCSIM_TEST_SET", "17", 1);
  EXPECT_EQ(GetEnvInt("CCSIM_TEST_SET", 3), 17);
  setenv("CCSIM_TEST_SET", "2.25", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("CCSIM_TEST_SET", 0.0), 2.25);
  unsetenv("CCSIM_TEST_SET");
}

TEST(EnvTest, EmptyTreatedAsUnset) {
  setenv("CCSIM_TEST_EMPTY", "", 1);
  EXPECT_FALSE(GetEnv("CCSIM_TEST_EMPTY").has_value());
  unsetenv("CCSIM_TEST_EMPTY");
}

// A set-but-malformed knob is a hard, clearly worded error — a silently
// ignored CCSIM_BATCHES=12abc would run a different experiment than asked.
TEST(EnvDeathTest, MalformedIntegerIsAHardError) {
  setenv("CCSIM_BATCHES", "12abc", 1);
  EXPECT_DEATH(GetEnvInt("CCSIM_BATCHES", 20),
               "malformed environment variable CCSIM_BATCHES=\"12abc\"");
  unsetenv("CCSIM_BATCHES");
}

TEST(EnvDeathTest, MalformedDoubleIsAHardError) {
  setenv("CCSIM_BATCH_SECONDS", "fifteen", 1);
  EXPECT_DEATH(GetEnvDouble("CCSIM_BATCH_SECONDS", 15.0),
               "malformed environment variable "
               "CCSIM_BATCH_SECONDS=\"fifteen\"");
  unsetenv("CCSIM_BATCH_SECONDS");
}

TEST(EnvDeathTest, ErrorNamesTheDefaultToFallBackTo) {
  setenv("CCSIM_TEST_BAD", "1.5.2", 1);
  EXPECT_DEATH(GetEnvDouble("CCSIM_TEST_BAD", 7.5),
               "unset it to use the default \\(7.5\\)");
  unsetenv("CCSIM_TEST_BAD");
}

TEST(CsvWriterTest, FinishReportsFullDevice) {
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  CsvWriter csv("/dev/full");
  ASSERT_TRUE(csv.ok()) << "open succeeds; only the flush can fail";
  for (int i = 0; i < 4096; ++i) {
    csv.WriteRow({"spill", CsvWriter::Field(static_cast<int64_t>(i))});
  }
  EXPECT_FALSE(csv.Finish()) << "ENOSPC must surface, not vanish";
}

TEST(CsvWriterTest, FinishOkOnHealthyFile) {
  std::string path = ::testing::TempDir() + "/csv_finish_ok.csv";
  CsvWriter csv(path);
  ASSERT_TRUE(csv.ok());
  csv.WriteRow({"a", "b"});
  EXPECT_TRUE(csv.Finish());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ccsim
