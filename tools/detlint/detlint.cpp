#include "detlint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "../tracecheck/json.hpp"

namespace detlint {
namespace {

namespace fs = std::filesystem;

// ---- Source model ----------------------------------------------------------

// One scanned file: raw lines (for suppression comments) and a "code view"
// with comments and string/char literals blanked out, preserving line
// structure so offsets map 1:1 to line numbers.
struct Source {
  std::string path;
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;
  std::string code;  // code_lines joined with '\n'
  std::vector<std::size_t> line_starts;  // offset of each line in `code`

  int line_of(std::size_t offset) const {
    auto it = std::upper_bound(line_starts.begin(), line_starts.end(), offset);
    return static_cast<int>(it - line_starts.begin());  // 1-based
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("detlint: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else if (c != '\r') {
      cur.push_back(c);
    }
  }
  lines.push_back(cur);
  return lines;
}

// Blanks comments and string/character literals (including raw strings) with
// spaces, keeping newlines, so rule regexes never fire on prose or literals.
std::string strip_noncode(const std::string& text) {
  std::string out(text.size(), ' ');
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  St st = St::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      out[i] = '\n';
      if (st == St::kLineComment) st = St::kCode;
      continue;
    }
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          // R"delim( — capture the delimiter up to the '('.
          std::size_t j = i + 2;
          raw_delim.clear();
          while (j < text.size() && text[j] != '(') raw_delim += text[j++];
          st = St::kRaw;
          i = j;  // at '(' (or end)
        } else if (c == '"') {
          st = St::kString;
        } else if (c == '\'') {
          st = St::kChar;
        } else {
          out[i] = c;
        }
        break;
      case St::kLineComment:
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          st = St::kCode;
          ++i;
        }
        break;
      case St::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          st = St::kCode;
        }
        break;
      case St::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        }
        break;
      case St::kRaw: {
        // Ends at )delim"
        if (c == ')') {
          const std::string closer = raw_delim + "\"";
          if (text.compare(i + 1, closer.size(), closer) == 0) {
            i += closer.size();
            st = St::kCode;
          }
        }
        break;
      }
    }
  }
  return out;
}

Source load_source(const std::string& path) {
  Source s;
  s.path = path;
  const std::string text = read_file(path);
  s.raw_lines = split_lines(text);
  s.code = strip_noncode(text);
  s.code_lines = split_lines(s.code);
  std::size_t off = 0;
  for (const auto& line : s.code_lines) {
    s.line_starts.push_back(off);
    off += line.size() + 1;
  }
  return s;
}

// ---- Suppressions ----------------------------------------------------------

struct Suppressions {
  // rule -> set of raw line numbers carrying a valid line suppression.
  std::map<std::string, std::set<int>> line_allows;
  std::set<std::string> file_allows;
  std::vector<Diagnostic> meta;  // bad-suppression diagnostics
};

bool known_rule(const std::string& id) {
  for (const auto& r : rule_catalogue()) {
    if (r.id == id) return true;
  }
  return false;
}

std::string trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t");
  if (a == std::string::npos) return "";
  std::size_t b = s.find_last_not_of(" \t");
  return s.substr(a, b - a + 1);
}

// True when `pos` falls inside a double-quoted string literal, judged by
// counting unescaped quotes earlier on the line. Directives live in
// comments; a marker inside a string (e.g. a linter printing its own
// syntax in a diagnostic message) is output text, not a suppression.
bool inside_string_literal(const std::string& line, std::size_t pos) {
  bool in_string = false;
  for (std::size_t i = 0; i < pos && i < line.size(); ++i) {
    if (line[i] == '\\' && in_string) {
      ++i;  // skip the escaped character
    } else if (line[i] == '"') {
      in_string = !in_string;
    }
  }
  return in_string;
}

// A real directive names kebab-case rules. Anything else — angle-bracket
// placeholders in documentation, prose that happens to end in ")" — is not
// a suppression and must not be diagnosed as a malformed one. A typo here
// simply fails to suppress, so the underlying diagnostic still surfaces.
bool plausible_rule_list(const std::string& rule_list) {
  if (trim(rule_list).empty()) return false;
  for (char c : rule_list) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == ',' || c == ' ' || c == '\t';
    if (!ok) return false;
  }
  return true;
}

Suppressions collect_suppressions(const Source& src) {
  Suppressions sup;
  static const std::regex re(
      R"(detlint:allow(-file)?\s*\(([^)]*)\))");
  for (std::size_t li = 0; li < src.raw_lines.size(); ++li) {
    const std::string& line = src.raw_lines[li];
    const int lineno = static_cast<int>(li) + 1;
    auto begin = std::sregex_iterator(line.begin(), line.end(), re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const bool file_wide = (*it)[1].matched;
      const std::string rule_list = (*it)[2].str();
      if (inside_string_literal(line, static_cast<std::size_t>(it->position(0))) ||
          !plausible_rule_list(rule_list)) {
        continue;
      }
      // The justification is the text after "): " to end of line.
      const std::size_t after = static_cast<std::size_t>(it->position(0)) +
                                static_cast<std::size_t>(it->length(0));
      std::string rest = line.substr(after);
      std::string justification;
      const std::string rtrim = trim(rest);
      if (!rtrim.empty() && rtrim[0] == ':') {
        justification = trim(rtrim.substr(1));
      }
      if (justification.empty()) {
        sup.meta.push_back(
            {"suppression-missing-justification", src.path, lineno,
             "detlint:allow(" + rule_list +
                 ") needs a justification: \"// detlint:allow(rule): why\""});
        continue;  // an unjustified suppression suppresses nothing
      }
      // Split the rule list on commas.
      std::stringstream ss(rule_list);
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        rule = trim(rule);
        if (rule.empty()) continue;
        if (!known_rule(rule)) {
          sup.meta.push_back({"suppression-unknown-rule", src.path, lineno,
                              "unknown rule '" + rule +
                                  "' in detlint:allow (see --list-rules)"});
          continue;
        }
        if (file_wide) {
          sup.file_allows.insert(rule);
        } else {
          sup.line_allows[rule].insert(lineno);
        }
      }
    }
  }
  return sup;
}

bool suppressed(const Suppressions& sup, const std::string& rule, int line) {
  if (sup.file_allows.count(rule) != 0) return true;
  auto it = sup.line_allows.find(rule);
  if (it == sup.line_allows.end()) return false;
  // A line suppression covers its own line and the line below it.
  return it->second.count(line) != 0 || it->second.count(line - 1) != 0;
}

// ---- Rule: no-wallclock-entropy -------------------------------------------

struct Pattern {
  std::regex re;
  std::string what;
};

const std::vector<Pattern>& wallclock_patterns() {
  static const std::vector<Pattern> pats = [] {
    std::vector<Pattern> v;
    auto add = [&v](const char* re, const char* what) {
      v.push_back({std::regex(re), what});
    };
    add(R"(\bsystem_clock\b)", "std::chrono::system_clock");
    add(R"(\bsteady_clock\b)", "std::chrono::steady_clock");
    add(R"(\bhigh_resolution_clock\b)", "std::chrono::high_resolution_clock");
    // time( / clock( but not .time(, ::time_, wait_time(, Time( ...
    add(R"((^|[^\w.>])std::time\s*\()", "std::time()");
    add(R"((^|[^\w.:>])time\s*\()", "time()");
    add(R"((^|[^\w.:>])clock\s*\()", "clock()");
    add(R"(\bgettimeofday\b)", "gettimeofday()");
    add(R"(\bclock_gettime\b)", "clock_gettime()");
    return v;
  }();
  return pats;
}

void check_wallclock(const Source& src, std::vector<Diagnostic>& out) {
  for (std::size_t li = 0; li < src.code_lines.size(); ++li) {
    const std::string& line = src.code_lines[li];
    if (line.empty()) continue;
    for (const auto& p : wallclock_patterns()) {
      if (std::regex_search(line, p.re)) {
        out.push_back({"no-wallclock-entropy", src.path,
                       static_cast<int>(li) + 1,
                       p.what +
                           " is a wall-clock/entropy source; sim code must "
                           "derive all times and randomness from the engine "
                           "clock and seeded streams"});
      }
    }
  }
}

// ---- Rule: no-unseeded-rng -------------------------------------------------

// Unseeded / OS-entropy randomness. Split out of no-wallclock-entropy so a
// workload that legitimately needs a clock (never) and one that needs a
// scratch RNG justify different things: every random stream in sim-visible
// code must be seeded from RuntimeOptions/FaultSpec so a run is replayable
// from its seed alone.
const std::vector<Pattern>& rng_patterns() {
  static const std::vector<Pattern> pats = [] {
    std::vector<Pattern> v;
    auto add = [&v](const char* re, const char* what) {
      v.push_back({std::regex(re), what});
    };
    add(R"(\brand\s*\()", "rand()");
    add(R"(\bsrand\s*\()", "srand()");
    add(R"(\brandom_device\b)", "std::random_device");
    add(R"(\bgetrandom\b)", "getrandom()");
    add(R"(\bgetentropy\b)", "getentropy()");
    return v;
  }();
  return pats;
}

void check_rng(const Source& src, std::vector<Diagnostic>& out) {
  for (std::size_t li = 0; li < src.code_lines.size(); ++li) {
    const std::string& line = src.code_lines[li];
    if (line.empty()) continue;
    for (const auto& p : rng_patterns()) {
      if (std::regex_search(line, p.re)) {
        out.push_back({"no-unseeded-rng", src.path, static_cast<int>(li) + 1,
                       p.what +
                           " draws unseeded/OS randomness; sim code must use "
                           "a deterministic generator seeded from "
                           "RuntimeOptions (fault_seed, splitmix streams) so "
                           "every run replays from its seed"});
      }
    }
  }
}

// ---- Rule: no-unordered-iteration -----------------------------------------

// Finds identifiers declared with std::unordered_map / std::unordered_set
// type in a file's code view. Handles multiline declarations by matching
// angle brackets over the joined text.
void collect_unordered_decls(const Source& src, std::set<std::string>& names) {
  static const std::regex decl_re(R"(\bstd\s*::\s*unordered_(map|set)\s*<)");
  auto begin = std::sregex_iterator(src.code.begin(), src.code.end(), decl_re);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    // Walk from the '<' to its matching '>'.
    std::size_t pos = static_cast<std::size_t>(it->position(0)) +
                      static_cast<std::size_t>(it->length(0));
    int depth = 1;
    while (pos < src.code.size() && depth > 0) {
      if (src.code[pos] == '<') ++depth;
      if (src.code[pos] == '>') --depth;
      ++pos;
    }
    if (depth != 0) continue;
    // Skip whitespace / reference / pointer markers, then read an
    // identifier. `>::iterator`, `>;`, `>()` etc. yield no identifier.
    while (pos < src.code.size() &&
           (std::isspace(static_cast<unsigned char>(src.code[pos])) ||
            src.code[pos] == '&' || src.code[pos] == '*')) {
      ++pos;
    }
    std::string name;
    while (pos < src.code.size() &&
           (std::isalnum(static_cast<unsigned char>(src.code[pos])) ||
            src.code[pos] == '_')) {
      name += src.code[pos++];
    }
    if (name.empty() || name == "const") continue;
    names.insert(name);
  }
}

std::string escape_regex(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      out += c;
    } else {
      out += '\\';
      out += c;
    }
  }
  return out;
}

void check_unordered_iteration(const Source& src,
                               const std::set<std::string>& names,
                               std::vector<Diagnostic>& out) {
  if (names.empty()) return;
  std::string alt;
  for (const auto& n : names) {
    if (!alt.empty()) alt += "|";
    alt += escape_regex(n);
  }
  // Range-for directly over a tracked container (a wrapped call like
  // `sorted_items(m)` does not match: the identifier must abut the ')').
  const std::regex range_re(R"(for\s*\([^;{}]*?:\s*()" + alt + R"()\s*\))");
  // Explicit iterator walks: m.begin() / m.cbegin() / std::begin(m).
  const std::regex begin_re(R"(\b()" + alt + R"()\s*\.\s*c?r?begin\s*\()");
  const std::regex std_begin_re(R"(\bstd\s*::\s*begin\s*\(\s*()" + alt +
                                R"()\s*\))");
  for (const auto& re : {range_re, begin_re, std_begin_re}) {
    auto begin = std::sregex_iterator(src.code.begin(), src.code.end(), re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      out.push_back(
          {"no-unordered-iteration", src.path,
           src.line_of(static_cast<std::size_t>(it->position(1))),
           "'" + name +
               "' is a std::unordered_ container; iterating it visits hash "
               "order, which is not deterministic — iterate a "
               "sorted_items()/sorted_keys() snapshot (common/sorted.hpp) "
               "instead"});
    }
  }
}

// ---- Rule: no-pointer-keys -------------------------------------------------

void check_pointer_keys(const Source& src, std::vector<Diagnostic>& out) {
  static const std::regex key_re(
      R"(\b(std\s*::\s*)?(unordered_)?(multi)?(map|set)\s*<\s*(const\s+)?[A-Za-z_][\w:]*\s*\*)");
  static const std::regex hash_re(R"(\bstd\s*::\s*hash\s*<[^<>]*\*\s*>)");
  for (const auto& re : {key_re, hash_re}) {
    auto begin = std::sregex_iterator(src.code.begin(), src.code.end(), re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      out.push_back(
          {"no-pointer-keys", src.path,
           src.line_of(static_cast<std::size_t>(it->position(0))),
           "pointer values as container keys order/hash by address, which "
           "ASLR and allocation history make run-dependent — key by a "
           "stable id (interned index, sequence number) instead"});
    }
  }
}

// ---- Rule: no-mutable-static -----------------------------------------------

void check_mutable_static(const Source& src, std::vector<Diagnostic>& out) {
  // Declarations opened by `static` / `thread_local` that are not constants
  // and not function declarations.
  static const std::regex static_re(
      R"(^\s*(?:static\s+thread_local|thread_local\s+static|static|thread_local)\b([^;{=(]*)([;{=(]))");
  static const std::regex const_re(R"(\b(const|constexpr|consteval)\b)");
  // Named globals by repo convention (g_ prefix), e.g. `std::mutex g_mu;`.
  // The leading lookahead keeps statements that merely *use* a global
  // (`return g_ctx;`, `delete g_ptr;`) from matching the declaration shape.
  static const std::regex global_re(
      R"(^\s*(?!return\b|co_return\b|delete\b|throw\b)[A-Za-z_][\w:<>(),\s*&]*[\s&*]g_\w+\s*(\{|=(?!=)|;))");
  for (std::size_t li = 0; li < src.code_lines.size(); ++li) {
    const std::string& line = src.code_lines[li];
    if (line.empty()) continue;
    const int lineno = static_cast<int>(li) + 1;
    std::smatch m;
    if (std::regex_search(line, m, static_re)) {
      const std::string decl = m[1].str();
      const std::string stop = m[2].str();
      // `static T f(...)` is a function — skip; `static const`/`constexpr`
      // are immutable — skip.
      if (stop != "(" && !std::regex_search(decl, const_re)) {
        out.push_back(
            {"no-mutable-static", src.path, lineno,
             "mutable static/thread_local state survives across runs and "
             "engines, breaking run-to-run reproducibility — move it into "
             "the model object or make it const/constexpr"});
        continue;
      }
    }
    if (std::regex_search(line, m, global_re)) {
      out.push_back(
          {"no-mutable-static", src.path, lineno,
           "mutable global (g_*) state survives across runs and engines, "
           "breaking run-to-run reproducibility — scope it to the model "
           "object or justify with a suppression"});
    }
  }
}

// ---- JSON helpers ----------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Shared by filter_by_prefix and path-scoped exemptions: `prefix` matches
// at the start of `file` or as an interior path-component run, so
// "src/backend/shm" covers "/repo/src/backend/shm/futex.hpp" but not
// "/repo/src/backend/shm_lookalike/x.cpp".
bool path_in_tree(const std::string& file, const std::string& prefix) {
  if (file.rfind(prefix, 0) == 0) {
    return file.size() == prefix.size() || file[prefix.size()] == '/';
  }
  return file.find("/" + prefix + "/") != std::string::npos;
}

void validate_exemptions(const std::vector<Exemption>& exemptions) {
  for (const auto& e : exemptions) {
    if (e.path.empty() || e.reason.empty()) {
      throw std::invalid_argument(
          "detlint: exemption needs a path and a justification "
          "(PATH:RULE:REASON), got \"" + e.path + ":" + e.rule + ":" +
          e.reason + "\"");
    }
    bool known = false;
    for (const auto& r : rule_catalogue()) known = known || r.id == e.rule;
    if (!known) {
      throw std::invalid_argument("detlint: exemption names unknown rule \"" +
                                  e.rule + "\"");
    }
  }
}

}  // namespace

// ---- Public API ------------------------------------------------------------

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> rules = {
      {"no-wallclock-entropy",
       "no wall-clock sources (system_clock, time(), clock_gettime, ...) in "
       "sim-visible code"},
      {"no-unseeded-rng",
       "no unseeded/OS randomness (rand(), srand(), std::random_device, "
       "getrandom, getentropy); seed every stream from RuntimeOptions"},
      {"no-unordered-iteration",
       "no iteration over std::unordered_map/unordered_set; use "
       "common/sorted.hpp snapshots"},
      {"no-pointer-keys",
       "no pointer-valued keys or std::hash<T*> in associative containers"},
      {"no-mutable-static",
       "no mutable static/thread_local/global state in model code"},
  };
  return rules;
}

std::vector<Diagnostic> run_rules(const std::vector<std::string>& files) {
  std::vector<Exemption> none;
  return run_rules(files, none);
}

std::vector<Diagnostic> run_rules(const std::vector<std::string>& files,
                                  std::vector<Exemption>& exemptions) {
  validate_exemptions(exemptions);
  std::vector<Source> sources;
  sources.reserve(files.size());
  for (const auto& f : files) sources.push_back(load_source(f));

  // Unordered-container member declarations live in headers; collect the
  // names across every scanned file before flagging iterations anywhere.
  std::set<std::string> unordered_names;
  for (const auto& src : sources) collect_unordered_decls(src, unordered_names);

  std::vector<Diagnostic> diags;
  for (const auto& src : sources) {
    const Suppressions sup = collect_suppressions(src);
    std::vector<Diagnostic> local;
    check_wallclock(src, local);
    check_rng(src, local);
    check_unordered_iteration(src, unordered_names, local);
    check_pointer_keys(src, local);
    check_mutable_static(src, local);
    for (auto& d : local) {
      if (suppressed(sup, d.rule, d.line)) continue;
      // Path-scoped exemptions absorb checker diagnostics only; the
      // suppression meta-diagnostics below stay unconditionally on.
      Exemption* exempt = nullptr;
      for (auto& e : exemptions) {
        if (e.rule == d.rule && path_in_tree(d.file, e.path)) {
          exempt = &e;
          break;
        }
      }
      if (exempt != nullptr) {
        ++exempt->hits;
        continue;
      }
      diags.push_back(std::move(d));
    }
    for (const auto& d : sup.meta) diags.push_back(d);
  }
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return diags;
}

std::vector<std::string> compdb_files(const std::string& compdb_path) {
  namespace json = ntbshmem::tracecheck::json;
  const json::Value db = json::parse(read_file(compdb_path));
  if (!db.is_array()) {
    throw std::runtime_error("detlint: " + compdb_path +
                             " is not a JSON array");
  }
  std::vector<std::string> files;
  for (const json::Value& entry : db.arr) {
    if (!entry.at("file").is_string()) {
      throw std::runtime_error("detlint: " + compdb_path +
                               " has an entry without a \"file\" string");
    }
    // A relative file resolves against its own entry's directory.
    std::string file = entry.at("file").str;
    const std::string& directory = entry.at("directory").str;
    if (!file.empty() && file[0] != '/' && !directory.empty()) {
      file = directory + "/" + file;
    }
    files.push_back(std::move(file));
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::vector<std::string> with_sibling_headers(std::vector<std::string> files) {
  std::set<std::string> have(files.begin(), files.end());
  std::set<fs::path> dirs;
  for (const auto& f : files) dirs.insert(fs::path(f).parent_path());
  for (const auto& dir : dirs) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".hpp" && ext != ".hh" && ext != ".hxx") {
        continue;
      }
      const std::string p = entry.path().string();
      if (have.insert(p).second) files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::string> filter_by_prefix(
    const std::vector<std::string>& files,
    const std::vector<std::string>& prefixes) {
  std::vector<std::string> out;
  for (const auto& f : files) {
    for (const auto& p : prefixes) {
      if (path_in_tree(f, p)) {
        out.push_back(f);
        break;
      }
    }
  }
  return out;
}

std::string render_text(const std::vector<Diagnostic>& diags) {
  std::ostringstream ss;
  for (const auto& d : diags) {
    ss << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message
       << "\n";
  }
  return ss.str();
}

std::string render_json(const std::vector<Diagnostic>& diags,
                        std::size_t files_scanned) {
  return render_json(diags, files_scanned, {});
}

std::string render_json(const std::vector<Diagnostic>& diags,
                        std::size_t files_scanned,
                        const std::vector<Exemption>& exemptions) {
  std::ostringstream ss;
  ss << "{\n  \"files_scanned\": " << files_scanned
     << ",\n  \"diagnostic_count\": " << diags.size() << ",\n  \"rules\": [";
  bool first = true;
  for (const auto& r : rule_catalogue()) {
    ss << (first ? "" : ", ") << "\"" << json_escape(r.id) << "\"";
    first = false;
  }
  ss << "],\n  \"exemptions\": [";
  first = true;
  for (const auto& e : exemptions) {
    ss << (first ? "\n" : ",\n") << "    {\"path\": \"" << json_escape(e.path)
       << "\", \"rule\": \"" << json_escape(e.rule) << "\", \"reason\": \""
       << json_escape(e.reason) << "\", \"exempted_count\": " << e.hits
       << "}";
    first = false;
  }
  ss << (first ? "" : "\n  ") << "],\n  \"diagnostics\": [";
  first = true;
  for (const auto& d : diags) {
    ss << (first ? "\n" : ",\n") << "    {\"file\": \"" << json_escape(d.file)
       << "\", \"line\": " << d.line << ", \"rule\": \"" << json_escape(d.rule)
       << "\", \"message\": \"" << json_escape(d.message) << "\"}";
    first = false;
  }
  ss << (first ? "" : "\n  ") << "]\n}\n";
  return ss.str();
}

}  // namespace detlint
