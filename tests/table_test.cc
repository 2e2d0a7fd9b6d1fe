#include "src/util/table.h"

#include <gtest/gtest.h>

#include "src/util/cli.h"

namespace spinfer {
namespace {

TEST(TableTest, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "23"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("23"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(FormatF(1.6666, 2), "1.67");
  EXPECT_EQ(FormatF(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatBytes(1024), "1.00 KiB");
  EXPECT_EQ(FormatBytes(15461882265ull), "14.40 GiB");
  EXPECT_EQ(FormatSI(28672.0), "28.7K");
}

TEST(CliTest, ParsesForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "0.5", "--flag", "--name=x",
                        "--off=false", "--zero=0", "--no=no"};
  CliFlags flags(9, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", 0.0), 0.5);
  EXPECT_TRUE(flags.GetBool("flag", false));
  EXPECT_FALSE(flags.GetBool("off", true));
  EXPECT_FALSE(flags.GetBool("zero", true));
  EXPECT_FALSE(flags.GetBool("no", true));
  EXPECT_EQ(flags.GetString("name", ""), "x");
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_FALSE(flags.Has("missing"));
}

// A bad command line is the user's error, not a broken invariant: each form
// exits 1 with an error line naming the argument, flag or value.
TEST(CliDeathTest, BadInputExitsOneNamingIt) {
  const char* stray[] = {"prog", "--threads=4", "stray"};
  EXPECT_EXIT(CliFlags(3, const_cast<char**>(stray)),
              ::testing::ExitedWithCode(1), "error: unexpected argument 'stray'");
  const char* typo[] = {"prog", "--treads=4"};
  EXPECT_EXIT(CliFlags(2, const_cast<char**>(typo)).RestrictTo({"threads"}),
              ::testing::ExitedWithCode(1), "error: unknown flag --treads");
  const char* word[] = {"prog", "--threads=four", "--scale=0.5x", "--measure=ture"};
  const CliFlags flags(4, const_cast<char**>(word));
  EXPECT_EXIT(flags.GetInt("threads", 0), ::testing::ExitedWithCode(1),
              "error: --threads takes an integer, got 'four'");
  EXPECT_EXIT(flags.GetDouble("scale", 1.0), ::testing::ExitedWithCode(1),
              "error: --scale takes a number, got '0.5x'");
  EXPECT_EXIT(flags.GetBool("measure", false), ::testing::ExitedWithCode(1),
              "error: --measure takes true or false, got 'ture'");
}

}  // namespace
}  // namespace spinfer
