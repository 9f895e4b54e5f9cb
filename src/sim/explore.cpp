#include "sim/explore.hpp"

#include <sstream>
#include <stdexcept>

#include "common/fnv.hpp"

namespace ntbshmem::sim {

namespace {

std::uint64_t branch_key(std::uint64_t state_hash, Choice::Kind kind,
                         std::uint32_t options) {
  std::uint64_t h = fnv::kOffset;
  h = fnv::fold_u64(h, state_hash);
  h = fnv::fold_u64(h, static_cast<std::uint64_t>(kind));
  h = fnv::fold_u64(h, options);
  return h;
}

}  // namespace

std::string format_script(const std::vector<Choice>& script) {
  if (script.empty()) return "-";
  std::ostringstream oss;
  for (std::size_t i = 0; i < script.size(); ++i) {
    if (i != 0) oss << '.';
    oss << (script[i].kind == Choice::Kind::kDispatch ? 'd' : 'f')
        << script[i].chosen;
  }
  return oss.str();
}

std::vector<Choice> parse_script(const std::string& text) {
  std::vector<Choice> out;
  if (text.empty() || text == "-") return out;
  std::istringstream iss(text);
  std::string tok;
  while (std::getline(iss, tok, '.')) {
    if (tok.size() < 2 || (tok[0] != 'd' && tok[0] != 'f')) {
      throw std::invalid_argument("bad choice token '" + tok +
                                  "' (want d<N> or f<0|1>)");
    }
    Choice c;
    c.kind = tok[0] == 'd' ? Choice::Kind::kDispatch : Choice::Kind::kFault;
    std::size_t pos = 0;
    const unsigned long v = std::stoul(tok.substr(1), &pos);
    if (pos != tok.size() - 1) {
      throw std::invalid_argument("bad choice token '" + tok + "'");
    }
    if (c.kind == Choice::Kind::kFault && v > 1) {
      throw std::invalid_argument("fault choice must be f0 or f1, got " + tok);
    }
    c.chosen = static_cast<std::uint32_t>(v);
    c.options = c.kind == Choice::Kind::kFault ? 2 : 0;  // rediscovered
    out.push_back(c);
  }
  return out;
}

void ScriptedHook::begin_path(std::vector<Choice> prefix, StateFn state_fn,
                              std::unordered_set<std::uint64_t>* visited) {
  prefix_ = std::move(prefix);
  state_fn_ = std::move(state_fn);
  visited_ = visited;
  records_.clear();
}

std::uint32_t ScriptedHook::decide(Choice::Kind kind, std::uint32_t options) {
  const std::size_t pos = records_.size();
  BranchRecord rec;
  rec.choice.kind = kind;
  rec.choice.options = options;
  rec.state_key =
      branch_key(state_fn_ ? state_fn_() : 0, kind, options);
  rec.fresh = visited_ != nullptr && visited_->insert(rec.state_key).second;
  std::uint32_t chosen = 0;  // default: dispatch index 0 / fault skip
  if (pos < prefix_.size()) {
    const Choice& want = prefix_[pos];
    if (want.kind != kind || want.chosen >= options) {
      throw std::logic_error(
          "replay diverged at branch " + std::to_string(pos) + ": script has " +
          format_script({want}) + " but the simulation offered " +
          std::to_string(options) +
          (kind == Choice::Kind::kDispatch ? " dispatch options"
                                           : " fault options"));
    }
    chosen = want.chosen;
  }
  rec.choice.chosen = chosen;
  records_.push_back(rec);
  return chosen;
}

std::size_t ScriptedHook::choose_dispatch(std::size_t n) {
  return decide(Choice::Kind::kDispatch, static_cast<std::uint32_t>(n));
}

bool ScriptedHook::choose_fault(int /*site*/, const std::string& /*key*/) {
  return decide(Choice::Kind::kFault, 2) == 1;
}

std::vector<Choice> ScriptedHook::executed() const {
  std::vector<Choice> out;
  out.reserve(records_.size());
  for (const BranchRecord& r : records_) out.push_back(r.choice);
  return out;
}

ExploreReport Explorer::explore(const PathFn& run_path,
                                const ExploreLimits& limits) {
  ExploreReport report;
  std::unordered_set<std::uint64_t> visited;
  std::vector<std::vector<Choice>> stack;
  stack.push_back({});  // the all-defaults path
  while (!stack.empty()) {
    if (report.paths >= limits.max_paths ||
        visited.size() >= limits.max_states) {
      report.truncated = true;
      break;
    }
    std::vector<Choice> prefix = std::move(stack.back());
    stack.pop_back();
    ScriptedHook hook;
    const PathOutcome outcome = run_path(hook, std::move(prefix), &visited);
    report.paths++;
    report.branch_points += hook.records().size();
    if (outcome.status != PathOutcome::Status::kOk) {
      report.violations++;
      report.counterexamples.push_back({hook.executed(), outcome});
      if (limits.stop_at_first_violation) break;
    }
    // Expand unexplored siblings — only at branch points whose state was
    // first discovered on this path (fresh), and only past the prescribed
    // prefix (the parent already owns the earlier positions).
    const std::vector<BranchRecord>& recs = hook.records();
    const std::vector<Choice> executed = hook.executed();
    for (std::size_t i = hook.prefix().size(); i < recs.size(); ++i) {
      if (i >= limits.max_depth) {
        report.truncated = true;
        break;
      }
      if (!recs[i].fresh) continue;
      for (std::uint32_t alt = 0; alt < recs[i].choice.options; ++alt) {
        if (alt == recs[i].choice.chosen) continue;
        std::vector<Choice> next(executed.begin(),
                                 executed.begin() +
                                     static_cast<std::ptrdiff_t>(i));
        Choice c = recs[i].choice;
        c.chosen = alt;
        next.push_back(c);
        stack.push_back(std::move(next));
      }
    }
  }
  report.states = visited.size();
  if (!stack.empty()) report.truncated = true;
  return report;
}

}  // namespace ntbshmem::sim
