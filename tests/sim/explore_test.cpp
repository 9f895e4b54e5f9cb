// Replay-based exploration driver (sim/explore.hpp): script format
// round-trips, a two-process same-timestamp race enumerates both orders,
// counterexamples carry the reproducing script, limits truncate honestly,
// and a default-following hook leaves the golden schedule digest untouched.
#include "sim/explore.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim_test_util.hpp"

namespace ntbshmem::sim {
namespace {

using testing::numbered;

std::uint64_t fnv_order(const std::vector<std::string>& order) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::string& s : order) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0x1f;
    h *= 1099511628211ull;
  }
  return h ? h : 1;
}

TEST(ExploreScript, FormatParseRoundTrip) {
  const std::vector<Choice> script = {
      {Choice::Kind::kDispatch, 1, 3},
      {Choice::Kind::kDispatch, 0, 2},
      {Choice::Kind::kFault, 1, 2},
      {Choice::Kind::kFault, 0, 2},
  };
  const std::string text = format_script(script);
  EXPECT_EQ(text, "d1.d0.f1.f0");
  const std::vector<Choice> back = parse_script(text);
  ASSERT_EQ(back.size(), script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(back[i].kind, script[i].kind) << "choice " << i;
    EXPECT_EQ(back[i].chosen, script[i].chosen) << "choice " << i;
  }
}

TEST(ExploreScript, EmptyScriptIsDash) {
  EXPECT_EQ(format_script({}), "-");
  EXPECT_TRUE(parse_script("-").empty());
  EXPECT_TRUE(parse_script("").empty());
}

TEST(ExploreScript, MalformedInputThrows) {
  EXPECT_THROW(parse_script("x2"), std::invalid_argument);
  EXPECT_THROW(parse_script("d"), std::invalid_argument);
  EXPECT_THROW(parse_script("d1..d0"), std::invalid_argument);
  EXPECT_THROW(parse_script("d1.f9z"), std::invalid_argument);
}

// Two processes ready at t=0 is the smallest possible race: the explorer
// must run exactly two paths and observe both dispatch orders.
TEST(ExploreRace, TwoProcessRaceEnumeratesBothOrders) {
  std::vector<std::vector<std::string>> orders;
  Explorer explorer;
  const ExploreReport report = explorer.explore(
      [&](ScriptedHook& hook, std::vector<Choice> prefix,
          std::unordered_set<std::uint64_t>* visited) -> PathOutcome {
        Engine eng;
        std::vector<std::string> order;
        eng.spawn("a", [&] { order.push_back("a"); });
        eng.spawn("b", [&] { order.push_back("b"); });
        hook.begin_path(std::move(prefix), [&] { return fnv_order(order); },
                        visited);
        eng.set_branch_hook(&hook);
        eng.run();
        eng.set_branch_hook(nullptr);
        orders.push_back(order);
        return {};
      },
      ExploreLimits{});

  EXPECT_EQ(report.paths, 2u);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.branch_points, 2u);  // one two-way branch per path
  ASSERT_EQ(orders.size(), 2u);
  const std::vector<std::string> ab = {"a", "b"};
  const std::vector<std::string> ba = {"b", "a"};
  EXPECT_EQ(orders[0], ab);  // default path first (index 0 = unhooked order)
  EXPECT_EQ(orders[1], ba);
}

// A "violation" on the non-default order must come back as a counterexample
// whose script replays that exact order.
TEST(ExploreRace, CounterexampleScriptReproducesTheBadOrder) {
  Explorer explorer;
  const ExploreReport report = explorer.explore(
      [&](ScriptedHook& hook, std::vector<Choice> prefix,
          std::unordered_set<std::uint64_t>* visited) -> PathOutcome {
        Engine eng;
        std::vector<std::string> order;
        eng.spawn("a", [&] { order.push_back("a"); });
        eng.spawn("b", [&] { order.push_back("b"); });
        hook.begin_path(std::move(prefix), [&] { return fnv_order(order); },
                        visited);
        eng.set_branch_hook(&hook);
        eng.run();
        eng.set_branch_hook(nullptr);
        if (order.front() == "b") {
          return {PathOutcome::Status::kViolation, "b ran first"};
        }
        return {};
      },
      ExploreLimits{});

  EXPECT_EQ(report.violations, 1u);
  ASSERT_EQ(report.counterexamples.size(), 1u);
  const Counterexample& ce = report.counterexamples.front();
  EXPECT_EQ(ce.outcome.detail, "b ran first");
  EXPECT_EQ(format_script(ce.script), "d1");
}

TEST(ExploreRace, PathLimitTruncatesHonestly) {
  ExploreLimits limits;
  limits.max_paths = 1;
  Explorer explorer;
  const ExploreReport report = explorer.explore(
      [&](ScriptedHook& hook, std::vector<Choice> prefix,
          std::unordered_set<std::uint64_t>* visited) -> PathOutcome {
        Engine eng;
        std::vector<std::string> order;
        eng.spawn("a", [&] { order.push_back("a"); });
        eng.spawn("b", [&] { order.push_back("b"); });
        hook.begin_path(std::move(prefix), [&] { return fnv_order(order); },
                        visited);
        eng.set_branch_hook(&hook);
        eng.run();
        eng.set_branch_hook(nullptr);
        return {};
      },
      limits);
  EXPECT_EQ(report.paths, 1u);
  EXPECT_TRUE(report.truncated);  // the d1 sibling was scheduled but cut
}

// The branch hook must be a pure observer on the default path: following
// index 0 everywhere reproduces the unhooked schedule bit for bit.
TEST(ExploreParity, DefaultScriptMatchesUnhookedDigest) {
  const auto run = [](BranchHook* hook) {
    Engine eng;
    eng.enable_schedule_digest();
    for (int p = 0; p < 3; ++p) {
      eng.spawn(numbered("p", p), [&eng] {
        for (int step = 0; step < 4; ++step) {
          eng.wait_for(usec(1));  // all three collide at every microsecond
        }
      });
    }
    if (hook != nullptr) eng.set_branch_hook(hook);
    eng.run();
    eng.set_branch_hook(nullptr);
    return eng.schedule_digest().value();
  };

  const std::uint64_t golden = run(nullptr);

  ScriptedHook hook;
  hook.begin_path({}, [] { return 1ull; }, nullptr);
  const std::uint64_t hooked = run(&hook);

  EXPECT_EQ(hooked, golden);
  EXPECT_FALSE(hook.records().empty());  // branches were actually consulted
  for (const BranchRecord& rec : hook.records()) {
    EXPECT_EQ(rec.choice.chosen, 0u);  // defaults only
    EXPECT_FALSE(rec.fresh);           // no visited set armed
  }
  EXPECT_EQ(hook.executed().size(), hook.records().size());
}

}  // namespace
}  // namespace ntbshmem::sim
