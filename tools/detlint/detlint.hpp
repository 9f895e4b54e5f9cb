// detlint — determinism lint for the ntbshmem source tree.
//
// A standalone, dependency-free checker that enforces the repo-specific
// determinism rules of DESIGN.md §4d over the simulation-visible sources
// (src/). It is deliberately textual — a pattern engine over
// comment-stripped source, not a compiler plugin — so it runs anywhere the
// repo builds, costs milliseconds, and its rules stay auditable in one
// file. The flip side is that every rule is a heuristic; false positives
// are expected occasionally and are silenced with an inline suppression
// that *must* carry a justification:
//
//   // detlint:allow(<rule-id>): why this site is safe
//
// placed on the offending line or the line directly above. A whole file
// opts out of one rule with `// detlint:allow-file(<rule-id>): why`
// anywhere in the file. (The angle brackets mark the placeholder; a real
// directive writes the bare rule id.) A suppression without a
// justification, or naming an unknown rule, is itself a diagnostic — the
// suppression inventory stays honest.
//
// Whole subtrees can be exempted from one rule with a path-scoped
// Exemption (CLI: --exempt PATH:RULE:REASON). This exists for code that is
// *intentionally* outside the determinism contract — e.g. the real-process
// shm backend (src/backend/shm) is clocked by CLOCK_MONOTONIC and sleeps
// in futexes by design, so no-wallclock-entropy does not apply there.
// Exemptions are rule-scoped (the other rules still fire inside the
// subtree), require a justification like inline suppressions, and report
// how many diagnostics they absorbed so the inventory stays auditable.
//
// Rule catalogue (rationale lives in DESIGN.md §4d):
//   no-wallclock-entropy    wall-clock time sources (system_clock, time(),
//                           gettimeofday, ...) in sim code
//   no-unseeded-rng         unseeded/OS randomness (rand(),
//                           std::random_device, getrandom, ...); use a
//                           generator seeded from RuntimeOptions
//   no-unordered-iteration  iterating std::unordered_{map,set} (hash order is
//                           not deterministic across histories/libraries);
//                           use common/sorted.hpp snapshots instead
//   no-pointer-keys         pointer-keyed map/set or std::hash<T*> (ASLR
//                           makes pointer order/hash run-dependent)
//   no-mutable-static       mutable static / thread_local / g_-prefixed
//                           global state in model code (state that survives
//                           a run breaks run-to-run reproducibility)
#pragma once

#include <string>
#include <vector>

namespace detlint {

struct Diagnostic {
  std::string rule;
  std::string file;
  int line = 0;  // 1-based
  std::string message;
};

struct RuleInfo {
  std::string id;
  std::string summary;
};

// Path-scoped rule exemption: diagnostics of `rule` in files under `path`
// (matched like filter_by_prefix — as a leading prefix or an interior
// path-component run, so "src/backend/shm" covers
// "/repo/src/backend/shm/futex.hpp") are dropped. `reason` is mandatory,
// mirroring inline suppressions. run_rules fills `hits` with the number of
// diagnostics the exemption absorbed, so a stale exemption (hits == 0) is
// visible in reports.
struct Exemption {
  std::string path;
  std::string rule;
  std::string reason;
  int hits = 0;
};

// The stable rule catalogue (checker rules only; the suppression
// meta-diagnostics `suppression-missing-justification` and
// `suppression-unknown-rule` are always on and not suppressible).
const std::vector<RuleInfo>& rule_catalogue();

// Runs every rule over `files` (paths are read from disk). Unordered-
// container declarations are collected across ALL files first, so a member
// declared in foo.hpp and iterated in foo.cpp is still caught. Diagnostics
// are sorted by (file, line, rule). Throws std::runtime_error on unreadable
// files.
std::vector<Diagnostic> run_rules(const std::vector<std::string>& files);

// As above, but drops diagnostics covered by a path-scoped exemption and
// counts the drops into each Exemption's `hits`. Throws
// std::invalid_argument if an exemption names an unknown rule, or has an
// empty path or reason — exemptions are validated as strictly as inline
// suppressions, just up front instead of via meta-diagnostics.
std::vector<Diagnostic> run_rules(const std::vector<std::string>& files,
                                  std::vector<Exemption>& exemptions);

// Extracts the "file" entries from a compile_commands.json, each relative
// path resolved against its own entry's "directory". Throws
// std::runtime_error on unreadable or malformed input.
std::vector<std::string> compdb_files(const std::string& compdb_path);

// For every directory containing one of `files`, adds the *.h/*.hpp files
// found there (non-recursive). Compile databases list only translation
// units; this pulls in the sibling headers where member declarations live.
std::vector<std::string> with_sibling_headers(std::vector<std::string> files);

// Keeps only paths that contain one of `prefixes` as a path component run
// (e.g. prefix "src" keeps "/repo/src/sim/engine.cpp"). Used to scope a
// compile database down to the sim-visible tree.
std::vector<std::string> filter_by_prefix(
    const std::vector<std::string>& files,
    const std::vector<std::string>& prefixes);

std::string render_text(const std::vector<Diagnostic>& diags);
std::string render_json(const std::vector<Diagnostic>& diags,
                        std::size_t files_scanned);

// As above plus an "exemptions" array recording each path-scoped exemption
// (path, rule, reason, exempted_count) so CI artifacts carry the full
// escape-hatch inventory, not just the surviving diagnostics.
std::string render_json(const std::vector<Diagnostic>& diags,
                        std::size_t files_scanned,
                        const std::vector<Exemption>& exemptions);

}  // namespace detlint
