// Fixture self-tests for the detlint rule engine (tools/detlint).
//
// Every rule is demonstrated three ways: a violation fixture the checker
// must catch (with exact line numbers), a clean fixture of near-miss
// look-alikes it must stay silent on, and a suppressed fixture showing the
// sanctioned escape hatch. The suppression meta-diagnostics (missing
// justification, unknown rule) have their own fixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "detlint.hpp"

namespace {

std::string fixture(const std::string& name) {
  return std::string(DETLINT_FIXTURE_DIR) + "/" + name;
}

std::vector<detlint::Diagnostic> lint(const std::vector<std::string>& names) {
  std::vector<std::string> paths;
  paths.reserve(names.size());
  for (const auto& n : names) paths.push_back(fixture(n));
  return detlint::run_rules(paths);
}

std::vector<int> lines_of(const std::vector<detlint::Diagnostic>& diags,
                          const std::string& rule) {
  std::vector<int> lines;
  for (const auto& d : diags) {
    if (d.rule == rule) lines.push_back(d.line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// ---- no-wallclock-entropy --------------------------------------------------

TEST(DetlintWallclock, CatchesEveryEntropySource) {
  const auto diags = lint({"wallclock_violation.cc"});
  EXPECT_EQ(lines_of(diags, "no-wallclock-entropy"),
            (std::vector<int>{8, 11, 13}));
  // rand/srand/random_device moved to the dedicated no-unseeded-rng rule.
  EXPECT_EQ(lines_of(diags, "no-unseeded-rng"),
            (std::vector<int>{14, 15, 17}));
  EXPECT_EQ(diags.size(), 6u) << detlint::render_text(diags);
}

TEST(DetlintWallclock, SilentOnLookalikesCommentsAndStrings) {
  const auto diags = lint({"wallclock_clean.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

TEST(DetlintWallclock, SuppressedOnSameLineAndLineAbove) {
  const auto diags = lint({"wallclock_suppressed.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

TEST(DetlintWallclock, BadSuppressionsAreDiagnosedAndDoNotSuppress) {
  const auto diags = lint({"wallclock_bad_suppression.cc"});
  // The unjustified allow leaves the rand() finding live AND reports the
  // bad suppression; the bogus rule id is reported separately.
  EXPECT_EQ(lines_of(diags, "no-unseeded-rng"), (std::vector<int>{6}));
  EXPECT_EQ(lines_of(diags, "suppression-missing-justification"),
            (std::vector<int>{6}));
  EXPECT_EQ(lines_of(diags, "suppression-unknown-rule"),
            (std::vector<int>{10}));
  EXPECT_EQ(diags.size(), 3u) << detlint::render_text(diags);
}

TEST(DetlintWallclock, DirectiveLookalikesAreNeitherParsedNorSuppressing) {
  const auto diags = lint({"suppression_lookalikes.cc"});
  // The angle-bracket doc placeholders and the in-string marker produce no
  // bad-suppression diagnostics, and the in-string marker (directly above
  // the rand() call) suppresses nothing.
  EXPECT_EQ(lines_of(diags, "no-unseeded-rng"), (std::vector<int>{15}));
  EXPECT_EQ(diags.size(), 1u) << detlint::render_text(diags);
}

// ---- no-unseeded-rng ---------------------------------------------------------

TEST(DetlintRng, CatchesSyscallAndLibraryEntropySources) {
  const auto diags = lint({"rng_violation.cc"});
  EXPECT_EQ(lines_of(diags, "no-unseeded-rng"),
            (std::vector<int>{8, 11, 12, 14, 15, 18, 19}));
  EXPECT_EQ(diags.size(), 7u) << detlint::render_text(diags);
}

TEST(DetlintRng, SilentOnSeededStreamsAndLookalikes) {
  const auto diags = lint({"rng_clean.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

TEST(DetlintRng, SuppressedWithJustification) {
  const auto diags = lint({"rng_suppressed.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

// ---- no-unordered-iteration ------------------------------------------------

TEST(DetlintUnordered, CatchesRangeForBeginAndStdBegin) {
  const auto diags = lint({"unordered_iter_violation.cc"});
  EXPECT_EQ(lines_of(diags, "no-unordered-iteration"),
            (std::vector<int>{13, 17, 20, 31}));
  EXPECT_EQ(diags.size(), 4u) << detlint::render_text(diags);
}

TEST(DetlintUnordered, SilentOnLookupsSnapshotsAndOrderedContainers) {
  const auto diags = lint({"unordered_iter_clean.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

TEST(DetlintUnordered, SuppressedWithJustification) {
  const auto diags = lint({"unordered_iter_suppressed.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

TEST(DetlintUnordered, ConnectsHeaderDeclarationToSourceIteration) {
  // The unordered member is declared in the .hh, iterated in the .cc.
  const auto diags = lint({"unordered_decl.hh", "unordered_use.cc"});
  ASSERT_EQ(diags.size(), 1u) << detlint::render_text(diags);
  EXPECT_EQ(diags[0].rule, "no-unordered-iteration");
  EXPECT_NE(diags[0].file.find("unordered_use.cc"), std::string::npos);
  EXPECT_EQ(diags[0].line, 7);
  // Scanning the .cc alone (declaration unseen) finds nothing — the
  // cross-file pass is what makes the rule useful.
  EXPECT_TRUE(lint({"unordered_use.cc"}).empty());
}

// ---- no-pointer-keys ---------------------------------------------------------

TEST(DetlintPointerKeys, CatchesPointerKeysAndPointerHash) {
  const auto diags = lint({"pointer_key_violation.cc"});
  EXPECT_EQ(lines_of(diags, "no-pointer-keys"),
            (std::vector<int>{10, 11, 12, 13}));
  EXPECT_EQ(diags.size(), 4u) << detlint::render_text(diags);
}

TEST(DetlintPointerKeys, SilentOnSequenceContainersAndPointerValues) {
  const auto diags = lint({"pointer_key_clean.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

TEST(DetlintPointerKeys, SuppressedWithJustification) {
  const auto diags = lint({"pointer_key_suppressed.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

// ---- no-mutable-static -------------------------------------------------------

TEST(DetlintMutableStatic, CatchesStaticsThreadLocalsAndNamedGlobals) {
  const auto diags = lint({"mutable_static_violation.cc"});
  EXPECT_EQ(lines_of(diags, "no-mutable-static"),
            (std::vector<int>{6, 7, 8, 9, 12}));
  EXPECT_EQ(diags.size(), 5u) << detlint::render_text(diags);
}

TEST(DetlintMutableStatic, SilentOnConstantsAndStaticFunctions) {
  const auto diags = lint({"mutable_static_clean.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

TEST(DetlintMutableStatic, SuppressedWithJustification) {
  const auto diags = lint({"mutable_static_suppressed.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

TEST(DetlintMutableStatic, FileLevelAllowCoversWholeFile) {
  const auto diags = lint({"mutable_static_file_allow.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

// ---- path-scoped exemptions (ISSUE 10: the wall-clocked shm backend) ---------

TEST(DetlintExemption, DropsOnlyInsideTheExemptSubtree) {
  std::vector<detlint::Exemption> ex = {
      {"exempt_tree/backend/shm", "no-wallclock-entropy", "shm fixture", 0}};
  const auto diags = detlint::run_rules(
      {fixture("exempt_tree/backend/shm/shm_clock.cc"),
       fixture("exempt_tree/sim/engine_clock.cc")},
      ex);
  // Inside backend/shm both wall-clock reads are absorbed; the identical
  // read under sim/ still fires (the shm file's rand() also survives — the
  // exemption is rule-scoped, covered by the next test).
  ASSERT_EQ(lines_of(diags, "no-wallclock-entropy"), (std::vector<int>{7}));
  for (const auto& d : diags) {
    if (d.rule == "no-wallclock-entropy") {
      EXPECT_NE(d.file.find("sim/engine_clock.cc"), std::string::npos);
    }
  }
  EXPECT_EQ(ex[0].hits, 2);
}

TEST(DetlintExemption, IsRuleScopedNotBlanket) {
  std::vector<detlint::Exemption> ex = {
      {"exempt_tree/backend/shm", "no-wallclock-entropy", "shm fixture", 0}};
  const auto diags =
      detlint::run_rules({fixture("exempt_tree/backend/shm/shm_clock.cc")}, ex);
  // rand() in the exempt subtree is a different rule and must survive.
  EXPECT_EQ(lines_of(diags, "no-unseeded-rng"), (std::vector<int>{20}));
  EXPECT_EQ(diags.size(), 1u) << detlint::render_text(diags);
}

TEST(DetlintExemption, MatchesWholePathComponentsOnly) {
  // "backend/shm" must not cover "backend/shmx" — the name merely starts
  // with the exempt component.
  std::vector<detlint::Exemption> ex = {
      {"exempt_tree/backend/shm", "no-wallclock-entropy", "shm fixture", 0}};
  const auto diags = detlint::run_rules(
      {fixture("exempt_tree/backend/shmx/lookalike_clock.cc")}, ex);
  EXPECT_EQ(lines_of(diags, "no-wallclock-entropy"), (std::vector<int>{8}));
  EXPECT_EQ(ex[0].hits, 0);
}

TEST(DetlintExemption, RejectsUnknownRuleAndMissingJustification) {
  std::vector<detlint::Exemption> unknown = {
      {"src/backend/shm", "no-such-rule", "why", 0}};
  EXPECT_THROW(detlint::run_rules({fixture("wallclock_clean.cc")}, unknown),
               std::invalid_argument);
  std::vector<detlint::Exemption> unjustified = {
      {"src/backend/shm", "no-wallclock-entropy", "", 0}};
  EXPECT_THROW(
      detlint::run_rules({fixture("wallclock_clean.cc")}, unjustified),
      std::invalid_argument);
}

TEST(DetlintExemption, DoesNotAbsorbSuppressionMetaDiagnostics) {
  // An exemption for the checker rule cannot silence the bad-suppression
  // bookkeeping in the same subtree: meta-diagnostics stay unconditional.
  std::vector<detlint::Exemption> ex = {
      {"fixtures", "no-unseeded-rng", "testing meta passthrough", 0}};
  const auto diags =
      detlint::run_rules({fixture("wallclock_bad_suppression.cc")}, ex);
  EXPECT_EQ(lines_of(diags, "no-unseeded-rng"), (std::vector<int>{}));
  EXPECT_EQ(lines_of(diags, "suppression-missing-justification"),
            (std::vector<int>{6}));
  EXPECT_EQ(lines_of(diags, "suppression-unknown-rule"),
            (std::vector<int>{10}));
  EXPECT_EQ(ex[0].hits, 1);
}

TEST(DetlintExemption, JsonReportCarriesTheExemptionInventory) {
  std::vector<detlint::Exemption> ex = {
      {"exempt_tree/backend/shm", "no-wallclock-entropy",
       "real-process backend is wall-clocked by design", 0}};
  const auto diags = detlint::run_rules(
      {fixture("exempt_tree/backend/shm/shm_clock.cc")}, ex);
  const std::string json = detlint::render_json(diags, 1, ex);
  EXPECT_NE(json.find("\"path\": \"exempt_tree/backend/shm\""),
            std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"no-wallclock-entropy\""),
            std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"real-process backend is wall-clocked "
                      "by design\""),
            std::string::npos);
  EXPECT_NE(json.find("\"exempted_count\": 2"), std::string::npos);
  // The two-argument renderer stays byte-compatible: an empty exemptions
  // array, same diagnostics.
  EXPECT_NE(detlint::render_json(diags, 1).find("\"exemptions\": []"),
            std::string::npos);
}

// ---- routing-table fixtures (fabric subsystem shapes) ------------------------

TEST(DetlintRoutingTable, CatchesAddressKeyedAndSeedFromClock) {
  const auto diags = lint({"routing_table_violation.cc"});
  EXPECT_EQ(lines_of(diags, "no-pointer-keys"), (std::vector<int>{13}));
  EXPECT_EQ(lines_of(diags, "no-wallclock-entropy"), (std::vector<int>{16}));
  EXPECT_EQ(lines_of(diags, "no-unordered-iteration"),
            (std::vector<int>{20}));
  EXPECT_EQ(diags.size(), 3u) << detlint::render_text(diags);
}

TEST(DetlintRoutingTable, SilentOnFlatTablesAndSeededMix) {
  // The shape src/fabric/router.cpp actually uses: flat vectors, a
  // configuration-provided tie-break seed, table-order digests.
  const auto diags = lint({"routing_table_clean.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

// ---- fiber/scheduler fixtures (simulator-core shapes) ------------------------

TEST(DetlintFiberSched, CatchesPoolGlobalsTlsAndWallclockSeeds) {
  const auto diags = lint({"fiber_sched_violation.cc"});
  EXPECT_EQ(lines_of(diags, "no-mutable-static"), (std::vector<int>{11, 12}));
  EXPECT_EQ(lines_of(diags, "no-wallclock-entropy"), (std::vector<int>{16}));
  EXPECT_EQ(lines_of(diags, "no-unseeded-rng"), (std::vector<int>{18}));
  EXPECT_EQ(diags.size(), 4u) << detlint::render_text(diags);
}

TEST(DetlintFiberSched, SilentOnInstancePoolsAndSpanFedWidths) {
  // Scheduler shapes the rule must accept: pool state as instance members,
  // a width policy fed by virtual-time spread, and the current-process TLS
  // of src/sim/engine.cpp carrying its justification.
  const auto diags = lint({"fiber_sched_clean.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

// ---- workload fixtures (traffic-engine shapes) -------------------------------

TEST(DetlintWorkload, CatchesWallclockArrivalsAndHashOrderShardDrains) {
  // The two determinism hazards a traffic engine invites: arrival gaps
  // sampled from the wall clock (src/workload samples from seeded splitmix64
  // streams instead) and KV shard maps drained in hash order.
  const auto diags = lint({"workload_traffic_violation.cc"});
  EXPECT_EQ(lines_of(diags, "no-wallclock-entropy"), (std::vector<int>{11}));
  EXPECT_EQ(lines_of(diags, "no-unseeded-rng"), (std::vector<int>{13}));
  EXPECT_EQ(lines_of(diags, "no-unordered-iteration"),
            (std::vector<int>{21, 24}));
  EXPECT_EQ(diags.size(), 4u) << detlint::render_text(diags);
}

TEST(DetlintWorkload, SilentOnSeededArrivalsAndKeyedShardAccess) {
  // The shape src/workload actually uses: splitmix64 gap streams, keyed
  // find() lookups, sorted-key snapshots, std::map drains.
  const auto diags = lint({"workload_traffic_clean.cc"});
  EXPECT_TRUE(diags.empty()) << detlint::render_text(diags);
}

// ---- compile database driver -------------------------------------------------

TEST(DetlintCompdb, ParsesCMakeShapeAndResolvesRelativePaths) {
  const std::string path = ::testing::TempDir() + "/detlint_compdb.json";
  {
    std::ofstream out(path);
    out << R"([
{
  "directory": "/repo/build",
  "command": "/usr/bin/c++ -o x.o -c /repo/src/sim/engine.cpp",
  "file": "/repo/src/sim/engine.cpp",
  "output": "x.o"
},
{
  "directory": "/repo/build",
  "command": "/usr/bin/c++ -o y.o -c ../bench/bench_util.cpp",
  "file": "../bench/bench_util.cpp"
},
{
  "directory": "/repo/build",
  "file": "/repo/src/shmem/transport.cpp"
}
])";
  }
  const auto files = detlint::compdb_files(path);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_NE(std::find(files.begin(), files.end(),
                      "/repo/build/../bench/bench_util.cpp"),
            files.end());
  const auto kept = detlint::filter_by_prefix(files, {"src"});
  ASSERT_EQ(kept.size(), 2u);  // the bench TU is filtered out
  for (const auto& f : kept) {
    EXPECT_NE(f.find("/src/"), std::string::npos) << f;
  }
  std::remove(path.c_str());
}

TEST(DetlintCompdb, SiblingHeadersJoinTheScan) {
  // unordered_use.cc's directory holds unordered_decl.hh; pulling sibling
  // headers in is what connects declaration to iteration under --compdb.
  const auto files =
      detlint::with_sibling_headers({fixture("unordered_use.cc")});
  EXPECT_NE(std::find(files.begin(), files.end(), fixture("unordered_decl.hh")),
            files.end());
  const auto diags = detlint::run_rules(files);
  EXPECT_EQ(lines_of(diags, "no-unordered-iteration"), (std::vector<int>{7}));
}

// ---- report rendering --------------------------------------------------------

TEST(DetlintReport, TextAndJsonCarryEveryDiagnostic) {
  const auto diags = lint({"pointer_key_violation.cc"});
  ASSERT_FALSE(diags.empty());
  const std::string text = detlint::render_text(diags);
  EXPECT_NE(text.find("no-pointer-keys"), std::string::npos);
  EXPECT_NE(text.find(":10:"), std::string::npos);
  const std::string json = detlint::render_json(diags, 1);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostic_count\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"no-pointer-keys\""), std::string::npos);
  // Every catalogue rule is listed so report consumers can diff coverage.
  for (const auto& r : detlint::rule_catalogue()) {
    EXPECT_NE(json.find("\"" + r.id + "\""), std::string::npos);
  }
}

TEST(DetlintReport, CatalogueNamesAreStable) {
  // CI artifacts and DESIGN.md reference these ids; renaming one is a
  // breaking change to the suppression inventory.
  std::vector<std::string> ids;
  for (const auto& r : detlint::rule_catalogue()) ids.push_back(r.id);
  EXPECT_EQ(ids, (std::vector<std::string>{
                     "no-wallclock-entropy", "no-unseeded-rng",
                     "no-unordered-iteration", "no-pointer-keys",
                     "no-mutable-static"}));
}

}  // namespace
