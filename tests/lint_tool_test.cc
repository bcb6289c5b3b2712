// Fixture tests for tools/nela_lint: each known-bad snippet in
// tools/nela_lint/testdata must trigger exactly its rule (and nothing
// else), the clean fixture must stay silent, and the suppression /
// scoping mechanics must behave. The tree-wide self-check (the current
// sources are lint-clean) is the separate NelaLintTree ctest, which runs
// the real binary over the real file list.

#include "nela_lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nela_lint/lexer.h"

namespace nela::lint {
namespace {

#ifndef NELA_LINT_TESTDATA_DIR
#error "build must define NELA_LINT_TESTDATA_DIR"
#endif

std::string ReadTestdata(const std::string& name) {
  const std::string path = std::string(NELA_LINT_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Lints a fixture as if it lived in library code (src/), where every rule
// is in scope.
std::vector<Finding> LintAsLibrary(const std::string& name) {
  return LintFile("src/fake/" + name, ReadTestdata(name));
}

std::set<std::string> RulesOf(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& finding : findings) rules.insert(finding.rule);
  return rules;
}

struct FixtureCase {
  const char* file;
  const char* rule;
};

class LintFixtureTest : public ::testing::TestWithParam<FixtureCase> {};

TEST_P(LintFixtureTest, BadSnippetTriggersExactlyItsRule) {
  const FixtureCase& param = GetParam();
  const std::vector<Finding> findings = LintAsLibrary(param.file);
  ASSERT_FALSE(findings.empty()) << param.file << " should trigger "
                                 << param.rule;
  EXPECT_EQ(RulesOf(findings), std::set<std::string>{param.rule})
      << FormatFinding(findings.front());
  for (const Finding& finding : findings) {
    EXPECT_GT(finding.line, 0);
    EXPECT_EQ(finding.path, "src/fake/" + std::string(param.file));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintFixtureTest,
    ::testing::Values(FixtureCase{"bad_raw_random.cc", "raw-random"},
                      FixtureCase{"bad_raw_time.cc", "raw-time"},
                      FixtureCase{"bad_raw_thread.cc", "raw-thread"},
                      FixtureCase{"bad_stdout_io.cc", "stdout-io"},
                      FixtureCase{"bad_untagged_send.cc", "untagged-send"},
                      FixtureCase{"bad_bare_todo.cc", "bare-todo"},
                      FixtureCase{"bad_raw_file_io.cc", "raw-file-io"},
                      FixtureCase{"bad_shard_path.cc", "shard-path"},
                      FixtureCase{"bad_raw_lock.cc", "raw-lock"},
                      FixtureCase{"bad_coordinate_taint.cc",
                                  "coordinate-taint"}),
    [](const ::testing::TestParamInfo<FixtureCase>& param_info) {
      std::string name = param_info.param.rule;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(LintFixtureTest, EveryRuleHasAFixture) {
  // Adding a rule without a known-bad fixture must fail here.
  std::set<std::string> covered;
  for (const FixtureCase& c :
       {FixtureCase{"", "raw-random"}, FixtureCase{"", "raw-time"},
        FixtureCase{"", "raw-thread"}, FixtureCase{"", "stdout-io"},
        FixtureCase{"", "untagged-send"}, FixtureCase{"", "bare-todo"},
        FixtureCase{"", "raw-file-io"}, FixtureCase{"", "shard-path"},
        FixtureCase{"", "raw-lock"}, FixtureCase{"", "coordinate-taint"}}) {
    covered.insert(c.rule);
  }
  for (const std::string& rule : RuleNames()) {
    EXPECT_TRUE(covered.count(rule)) << "rule without fixture: " << rule;
  }
}

TEST(LintFixtureTest, CleanFixtureIsSilent) {
  const std::vector<Finding> findings = LintAsLibrary("clean.cc");
  std::string formatted;
  for (const Finding& finding : findings) {
    formatted += FormatFinding(finding) + "\n";
  }
  EXPECT_TRUE(findings.empty()) << formatted;
}

TEST(LintScopingTest, UntaggedSendCountsPositionalArguments) {
  // The bad fixture holds all three shapes; each must be reported on its
  // own line: positional Send, positional SendWithRetry, bare net::Message.
  const std::vector<Finding> findings = LintAsLibrary("bad_untagged_send.cc");
  EXPECT_EQ(findings.size(), 3u);
  std::set<int> lines;
  for (const Finding& finding : findings) lines.insert(finding.line);
  EXPECT_EQ(lines.size(), 3u);
}

TEST(LintScopingTest, ShardLayoutHomeMaySpellShardPaths) {
  // The literal lives in the string stream, not the code stream, so only
  // the literal-scanning rule may see it -- and only outside the layout's
  // home directory.
  const std::string body =
      // nela-lint: allow(shard-path) the needle is this test's subject
      "std::string d() { return std::string(\"shard-\") + \"0\"; }\n";
  EXPECT_TRUE(LintFile("src/durability/shard_layout.cc", body).empty());
  const std::vector<Finding> findings = LintFile("src/sim/driver.cc", body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "shard-path");
  // Tests and tools are in scope too: the layout contract binds the whole
  // tree, not just the library.
  EXPECT_FALSE(LintFile("tests/some_test.cc", body).empty());
}

TEST(LintScopingTest, RngHomeMayUseRawSources) {
  const std::string body = "int f() { return rand(); }\n";
  EXPECT_TRUE(LintFile("src/util/rng.cc", body).empty());
  EXPECT_FALSE(LintFile("src/bounding/nbound.cc", body).empty());
  // The baseline mechanisms draw all randomness from the request's seeded
  // sub-stream; the raw-random rule covers src/mechanisms like any other
  // library directory (a platform RNG there would break the per-request
  // determinism the leak-contract proptests rely on).
  EXPECT_FALSE(LintFile("src/mechanisms/geo_ind.cc", body).empty());
  const std::vector<Finding> findings =
      LintFile("src/mechanisms/dummy_locations.cc",
               "std::mt19937 gen(42);\n");
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, "raw-random");
}

TEST(LintScopingTest, TimerHomeMayReadClocks) {
  const std::string body = "auto t = Clock::now();\n";
  EXPECT_TRUE(LintFile("src/util/timer.h", body).empty());
  EXPECT_FALSE(LintFile("src/sim/sharded_service_driver.cc", body).empty());
}

TEST(LintScopingTest, ThreadPoolInternalsMaySpawnThreads) {
  const std::string body = "std::thread worker([]{});\n";
  EXPECT_TRUE(LintFile("src/util/thread_pool.cc", body).empty());
  // The work-stealing deque is part of the pool's implementation and
  // shares its exemption; everything else still gets flagged.
  EXPECT_TRUE(LintFile("src/util/steal_deque.h", body).empty());
  EXPECT_FALSE(LintFile("tests/some_test.cc", body).empty());
  EXPECT_FALSE(LintFile("src/graph/wpg_builder.cc", body).empty());
}

TEST(LintScopingTest, FileIoHomesMayTouchFiles) {
  const std::string body = "std::FILE* f = fopen(\"x\", \"rb\");\n";
  EXPECT_TRUE(LintFile("src/durability/wal.cc", body).empty());
  EXPECT_TRUE(LintFile("src/data/dataset_io.cc", body).empty());
  EXPECT_TRUE(LintFile("src/util/csv.cc", body).empty());
  EXPECT_FALSE(LintFile("src/cluster/registry.cc", body).empty());
  // Tests/tools/bench are not library code; the rule stays out of them.
  EXPECT_TRUE(LintFile("tests/durability_test.cc", body).empty());
}

TEST(LintScopingTest, StdoutRuleIsLibraryOnly) {
  const std::string body = "#include <iostream>\nvoid f(){std::cout << 1;}\n";
  EXPECT_FALSE(LintFile("src/core/stages.cc", body).empty());
  EXPECT_TRUE(LintFile("bench/bench_micro.cc", body).empty());
  EXPECT_TRUE(LintFile("examples/quickstart.cpp", body).empty());
}

TEST(LintScopingTest, NetInternalsAreExemptFromSendRule) {
  const std::string body =
      "bool f(Network& n) { return n.Send(0, 1, MessageKind::kControl, 8); "
      "}\n";
  EXPECT_TRUE(LintFile("src/net/retry.cc", body).empty());
  EXPECT_FALSE(LintFile("src/cluster/registry.cc", body).empty());
}

TEST(LintScopingTest, RawLockIsTreeWideWithNoHomeDirectory) {
  const std::string body = "void f(std::mutex& mu) { mu.lock(); }\n";
  EXPECT_FALSE(LintFile("src/cluster/registry.cc", body).empty());
  EXPECT_FALSE(LintFile("tests/some_test.cc", body).empty());
  EXPECT_FALSE(LintFile("bench/bench_micro.cc", body).empty());
  // Even the RAII home's path grants nothing: util/mutex.h passes only via
  // its per-line, justified allow comments.
  EXPECT_FALSE(LintFile("src/util/mutex.h", body).empty());
  const std::string allowed =
      "void f(std::mutex& mu) { mu.lock(); }"
      "  // nela-lint: allow(raw-lock) RAII home\n";
  EXPECT_TRUE(LintFile("src/util/mutex.h", allowed).empty());
}

TEST(LintScopingTest, RawLockFlagsEachManipulation) {
  // lock(), unlock(), try_lock(), ->unlock(): one finding per line.
  const std::vector<Finding> findings = LintAsLibrary("bad_raw_lock.cc");
  EXPECT_EQ(findings.size(), 4u);
}

TEST(LintScopingTest, CoordinateTaintFlagsEachMutant) {
  // Local-laundered kControl, helper-to-field-write, undeclared
  // kRawCoordinate, non-literal tag: one finding per mutant, each on its
  // own line.
  const std::vector<Finding> findings =
      LintAsLibrary("bad_coordinate_taint.cc");
  EXPECT_EQ(findings.size(), 4u);
  std::set<int> lines;
  for (const Finding& finding : findings) lines.insert(finding.line);
  EXPECT_EQ(lines.size(), 4u);
}

TEST(LintScopingTest, CoordinateTaintIsLibraryScopedLikeUntaggedSend) {
  const std::string body =
      "void f(net::Network& n, const geo::Point& own) {\n"
      "  net::Message m;\n"
      "  m.payload.Add(net::FieldTag::kControl, 0, own.x);\n"
      "  n.Send(m);\n"
      "}\n";
  EXPECT_FALSE(LintFile("src/mechanisms/geo_ind.cc", body).empty());
  // Net internals move bytes, not coordinates; tests/tools are out of the
  // library scope entirely.
  EXPECT_TRUE(LintFile("src/net/network.cc", body).empty());
  EXPECT_TRUE(LintFile("tests/some_test.cc", body).empty());
}

TEST(LintSuppressionTest, SameLineAndPreviousLineAllowMarkers) {
  const std::string same_line =
      "int f() { return rand(); }  // nela-lint: allow(raw-random) seeded "
      "upstream\n";
  EXPECT_TRUE(LintFile("src/fake/a.cc", same_line).empty());

  const std::string prev_line =
      "// nela-lint: allow(raw-random) seeded upstream\n"
      "int f() { return rand(); }\n";
  EXPECT_TRUE(LintFile("src/fake/a.cc", prev_line).empty());

  const std::string wrong_rule =
      "int f() { return rand(); }  // nela-lint: allow(raw-time)\n";
  EXPECT_FALSE(LintFile("src/fake/a.cc", wrong_rule).empty());
}

TEST(LintMatchingTest, StringsAndCommentsAreNotCode) {
  const std::string body =
      "// calling rand() here would be bad\n"
      "const char* kDoc = \"rand() std::cout time(nullptr)\";\n"
      "/* std::thread worker; */\n";
  EXPECT_TRUE(LintFile("src/fake/a.cc", body).empty());
}

TEST(LintMatchingTest, MultiLineArgumentListsAreBalanced) {
  const std::string body =
      "void f(net::Network& n) {\n"
      "  n.Send(0,\n"
      "         1,\n"
      "         net::MessageKind::kControl,\n"
      "         16);\n"
      "}\n";
  const std::vector<Finding> findings = LintFile("src/fake/a.cc", body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "untagged-send");
  EXPECT_EQ(findings[0].line, 2);
}

// IWYU-style header hygiene for util/thread_annotations.h: any file whose
// *code* (not comments or strings -- the lexer decides) uses a capability
// macro must include util/thread_annotations.h directly, or util/mutex.h
// which is documented to re-export it. Tree-wide misc-include-cleaner is
// disabled in .clang-tidy (see its comment block); this pins the one
// include relation the thread-safety layer depends on.
TEST(ThreadAnnotationHygieneTest, MacroUsersIncludeTheHeaderDirectly) {
  const std::set<std::string> kMacros = {
      "CAPABILITY",      "SCOPED_CAPABILITY", "GUARDED_BY",
      "PT_GUARDED_BY",   "ACQUIRED_BEFORE",   "ACQUIRED_AFTER",
      "REQUIRES",        "REQUIRES_SHARED",   "ACQUIRE",
      "ACQUIRE_SHARED",  "RELEASE",           "RELEASE_SHARED",
      "TRY_ACQUIRE",     "EXCLUDES",          "ASSERT_CAPABILITY",
      "RETURN_CAPABILITY", "NO_THREAD_SAFETY_ANALYSIS"};
  const std::string root = NELA_LINT_SOURCE_DIR;
  std::vector<std::string> missing;
  for (const std::string& dir : {std::string("src"), std::string("tools")}) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             root + "/" + dir)) {
      const std::string path = entry.path().string();
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc") continue;
      if (path.find("thread_annotations.h") != std::string::npos) continue;
      std::ifstream in(path, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string contents = buffer.str();
      bool uses_macro = false;
      for (const Token& token : Lex(contents)) {
        if (token.kind == TokenKind::kIdentifier &&
            kMacros.count(token.text) != 0) {
          uses_macro = true;
          break;
        }
      }
      if (!uses_macro) continue;
      if (contents.find("#include \"util/thread_annotations.h\"") ==
              std::string::npos &&
          contents.find("#include \"util/mutex.h\"") == std::string::npos) {
        missing.push_back(path);
      }
    }
  }
  EXPECT_TRUE(missing.empty())
      << missing.size() << " file(s) use capability macros without a direct "
      << "include of util/thread_annotations.h or util/mutex.h, first: "
      << missing.front();
}

TEST(LintMatchingTest, CompileCommandsFileListIsExtracted) {
  const std::string json =
      "[{\"directory\": \"/b\", \"command\": \"g++ -c x.cc\",\n"
      "  \"file\": \"/repo/src/a.cc\"},\n"
      " {\"directory\": \"/b\", \"file\": \"/repo/src/b.cc\"},\n"
      " {\"directory\": \"/b\", \"file\": \"/repo/src/a.cc\"}]\n";
  const std::vector<std::string> files = FilesFromCompileCommands(json);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/repo/src/a.cc");
  EXPECT_EQ(files[1], "/repo/src/b.cc");
}

}  // namespace
}  // namespace nela::lint
