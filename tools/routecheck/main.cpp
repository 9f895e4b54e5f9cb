// routecheck: routing deadlock verifier (DESIGN.md §4e / §4i).
//
// Builds the channel dependence graph for a topology × routing-table
// combination — either a shipped generator/mode pair or an arbitrary
// next-port matrix loaded from a fixture file — and certifies or refutes
// deadlock freedom under a forwarding discipline:
//
//   store-and-forward (default, the transport's per-hop consume+ack):
//     certification requires route soundness; CDG cycles are reported
//     informationally (the paper's right-only ring is cyclic yet safe).
//   cut-through (TransportTuning::cut_through_forwarding): a CDG cycle is
//     a hard refutation, printed as a witness cycle.
//
// Fixture format (whitespace-separated, '#' starts a comment):
//   hosts 4
//   topo ring:4
//   -1  0  0  0     # next_port[src=0][dst=0..3]
//    0 -1  0  0
//    0  0 -1  0
//    0  0  0 -1
//
// Exit codes: 0 = every requested combination certified, 1 = at least one
// refuted, 2 = usage/parse error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/depgraph.hpp"
#include "fabric/router.hpp"
#include "fabric/topology.hpp"

namespace {

using ntbshmem::fabric::Channel;
using ntbshmem::fabric::DepGraphReport;
using ntbshmem::fabric::Discipline;
using ntbshmem::fabric::RouteClass;
using ntbshmem::fabric::RoutingMode;
using ntbshmem::fabric::RoutingTable;
using ntbshmem::fabric::Topology;
using ntbshmem::fabric::WalkIssue;

void usage(std::ostream& out) {
  out << "usage: routecheck [options]\n"
         "  --topo=SPEC         ring:N | chordal:N:S1+S2 | torus:RxC |\n"
         "                      mesh:N\n"
         "  --mode=NAME         right | shortest | dor\n"
         "  --table=FILE        verify a next-port matrix fixture instead\n"
         "  --sweep             all generators x all compatible modes\n"
         "  --discipline=NAME   store-and-forward (default) | cut-through\n";
}

Topology parse_topo(const std::string& spec) {
  std::istringstream iss(spec);
  std::string kind;
  std::getline(iss, kind, ':');
  std::string rest;
  std::getline(iss, rest);
  if (kind == "ring") return Topology::ring(std::stoi(rest));
  if (kind == "mesh") return Topology::full_mesh(std::stoi(rest));
  if (kind == "torus") {
    const std::size_t x = rest.find('x');
    if (x == std::string::npos) {
      throw std::invalid_argument("torus spec wants RxC, got '" + rest + "'");
    }
    return Topology::torus2d(std::stoi(rest.substr(0, x)),
                             std::stoi(rest.substr(x + 1)));
  }
  if (kind == "chordal") {
    const std::size_t colon = rest.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("chordal spec wants N:S1+S2, got '" + rest +
                                  "'");
    }
    const int n = std::stoi(rest.substr(0, colon));
    std::vector<int> skips;
    std::istringstream skip_ss(rest.substr(colon + 1));
    std::string tok;
    while (std::getline(skip_ss, tok, '+')) skips.push_back(std::stoi(tok));
    return Topology::chordal(n, skips);
  }
  throw std::invalid_argument("unknown topology '" + kind +
                              "' (want ring | chordal | torus | mesh)");
}

RoutingMode parse_mode(const std::string& name) {
  if (name == "right") return RoutingMode::kRightOnly;
  if (name == "shortest") return RoutingMode::kShortest;
  if (name == "dor") return RoutingMode::kDimensionOrder;
  throw std::invalid_argument("unknown mode '" + name +
                              "' (want right | shortest | dor)");
}

// Strips '#' comments, returns whitespace-separated tokens.
std::vector<std::string> tokenize_fixture(std::istream& in) {
  std::vector<std::string> toks;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream iss(line);
    std::string tok;
    while (iss >> tok) toks.push_back(tok);
  }
  return toks;
}

struct Fixture {
  Topology topo = Topology::ring(2);
  std::vector<std::vector<int>> next;  // [src][dst]
};

Fixture load_fixture(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open fixture " + path);
  const std::vector<std::string> toks = tokenize_fixture(in);
  std::size_t i = 0;
  auto want = [&](const char* kw) {
    if (i >= toks.size() || toks[i] != kw) {
      throw std::invalid_argument("fixture " + path + ": expected '" +
                                  std::string(kw) + "'");
    }
    ++i;
  };
  want("hosts");
  const int n = std::stoi(toks.at(i++));
  want("topo");
  Fixture fx{parse_topo(toks.at(i++)), {}};
  if (fx.topo.num_hosts() != n) {
    throw std::invalid_argument("fixture " + path +
                                ": hosts count does not match topo spec");
  }
  fx.next.assign(static_cast<std::size_t>(n),
                 std::vector<int>(static_cast<std::size_t>(n), -1));
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (i >= toks.size()) {
        throw std::invalid_argument("fixture " + path +
                                    ": matrix ended early");
      }
      fx.next[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)] =
          std::stoi(toks[i++]);
    }
  }
  if (i != toks.size()) {
    throw std::invalid_argument("fixture " + path +
                                ": trailing tokens after matrix");
  }
  return fx;
}

void print_report(const std::string& label, const DepGraphReport& r,
                  Discipline disc) {
  std::cout << "routecheck: " << label << "\n"
            << "routecheck:   walks: " << r.pairs_walked << " pairs, "
            << (r.routes_sound ? "all sound" : "UNSOUND") << ", max "
            << r.max_walk_hops << " hops\n"
            << "routecheck:   cdg: " << r.channels_used << " channels, "
            << r.edges << " edges, "
            << (r.cdg_acyclic ? "acyclic" : "cyclic") << "\n";
  for (const WalkIssue& issue : r.issues) {
    std::cout << "routecheck:   issue [" << issue.route_class << "] "
              << issue.src << "->" << issue.dst << ": " << issue.what << "\n";
  }
  if (!r.cycle.empty()) {
    std::cout << "routecheck:   cycle:";
    for (const Channel& c : r.cycle) {
      std::cout << ' ' << ntbshmem::fabric::channel_name(c);
    }
    std::cout << (disc == Discipline::kCutThrough
                      ? "\n"
                      : "  (informational under store-and-forward)\n");
  }
  if (ntbshmem::fabric::certifies(r, disc)) {
    std::cout << "routecheck:   CERTIFIED deadlock-free\n";
  } else {
    std::cout << "routecheck:   REFUTED\n";
  }
}

bool check_table(const Topology& topo, RoutingMode mode, Discipline disc,
                 const std::string& label) {
  const RoutingTable rt = RoutingTable::build(topo, mode);
  const DepGraphReport r =
      ntbshmem::fabric::analyze_routing(topo, table_route_classes(rt));
  print_report(label, r, disc);
  return ntbshmem::fabric::certifies(r, disc);
}

bool sweep(Discipline disc) {
  struct Combo {
    const char* topo;
    const char* mode;
  };
  // All four generators x the three routing policies; combinations the
  // router itself rejects (mode/topology mismatch) are listed as n/a so
  // the sweep output proves they were considered, not skipped silently.
  const std::vector<Combo> combos = {
      {"ring:4", "right"},      {"ring:4", "shortest"},
      {"ring:4", "dor"},        {"chordal:6:3", "right"},
      {"chordal:6:3", "shortest"}, {"chordal:6:3", "dor"},
      {"torus:3x3", "right"},   {"torus:3x3", "shortest"},
      {"torus:3x3", "dor"},     {"mesh:5", "right"},
      {"mesh:5", "shortest"},   {"mesh:5", "dor"},
  };
  bool ok = true;
  for (const Combo& c : combos) {
    const std::string label =
        std::string("topo=") + c.topo + " mode=" + c.mode;
    try {
      ok = check_table(parse_topo(c.topo), parse_mode(c.mode), disc, label) &&
           ok;
    } catch (const std::invalid_argument& e) {
      std::cout << "routecheck: " << label << "\n"
                << "routecheck:   n/a (" << e.what() << ")\n";
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string topo_spec;
  std::string mode_name;
  std::string table_path;
  bool do_sweep = false;
  Discipline disc = Discipline::kStoreAndForward;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg.rfind("--topo=", 0) == 0) {
      topo_spec = arg.substr(7);
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode_name = arg.substr(7);
    } else if (arg.rfind("--table=", 0) == 0) {
      table_path = arg.substr(8);
    } else if (arg == "--sweep") {
      do_sweep = true;
    } else if (arg.rfind("--discipline=", 0) == 0) {
      const std::string d = arg.substr(13);
      if (d == "store-and-forward") {
        disc = Discipline::kStoreAndForward;
      } else if (d == "cut-through") {
        disc = Discipline::kCutThrough;
      } else {
        std::cerr << "routecheck: unknown discipline '" << d << "'\n";
        return 2;
      }
    } else {
      std::cerr << "routecheck: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    }
  }

  try {
    if (do_sweep) {
      return sweep(disc) ? 0 : 1;
    }
    if (!table_path.empty()) {
      const Fixture fx = load_fixture(table_path);
      const std::vector<RouteClass> classes = {
          {"table", [&fx](int me, int dst, int /*in*/) {
             return fx.next[static_cast<std::size_t>(me)]
                           [static_cast<std::size_t>(dst)];
           }}};
      const DepGraphReport r =
          ntbshmem::fabric::analyze_routing(fx.topo, classes);
      print_report("table=" + table_path, r, disc);
      return ntbshmem::fabric::certifies(r, disc) ? 0 : 1;
    }
    if (topo_spec.empty() || mode_name.empty()) {
      std::cerr << "routecheck: need --topo and --mode (or --table/--sweep)\n";
      usage(std::cerr);
      return 2;
    }
    return check_table(parse_topo(topo_spec), parse_mode(mode_name), disc,
                       "topo=" + topo_spec + " mode=" + mode_name)
               ? 0
               : 1;
  } catch (const std::exception& e) {
    std::cerr << "routecheck: error: " << e.what() << '\n';
    return 2;
  }
}
