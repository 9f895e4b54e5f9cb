// Reads back the Chrome trace-event JSON that obs::write_chrome_trace emits
// (one event per line, fields without optional whitespace), resolving each
// event's pid/tid to its process and thread names.
#pragma once

#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace ntbshmem::shmem::testing {

struct ChromeEvent {
  std::string process;  // process_name of the event's pid
  std::string thread;   // thread_name of its (pid, tid)
  std::string ph;
  std::string name;
  std::string cat;
  std::string id;       // async or flow id ("" when absent)
  sim::Time ts = 0;     // ns
};

// Raw value of the first `"key":` field on `line` (strings unquoted).
inline std::string chrome_field(const std::string& line,
                                const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  std::size_t start = at + tag.size();
  if (line[start] == '"') {
    ++start;
    return line.substr(start, line.find('"', start) - start);
  }
  std::size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(start, end - start);
}

// The event lines (metadata included), in file order.
inline std::vector<std::string> chrome_event_lines(const std::string& json) {
  std::vector<std::string> lines;
  std::istringstream in(json);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"ph\":\"") != std::string::npos) lines.push_back(line);
  }
  return lines;
}

// Non-metadata events in file order. Timestamps are microseconds with
// exactly three decimals, so they convert back to whole nanoseconds.
inline std::vector<ChromeEvent> parse_chrome_events(const std::string& json) {
  const std::vector<std::string> lines = chrome_event_lines(json);
  std::map<std::string, std::string> processes;  // pid -> name
  std::map<std::pair<std::string, std::string>, std::string> threads;
  for (const std::string& line : lines) {
    if (chrome_field(line, "ph") != "M") continue;
    const std::size_t args = line.find("\"args\":");
    const std::string label = chrome_field(line.substr(args), "name");
    const std::string pid = chrome_field(line, "pid");
    if (chrome_field(line, "name") == "process_name") {
      processes[pid] = label;
    } else {
      threads[{pid, chrome_field(line, "tid")}] = label;
    }
  }
  std::vector<ChromeEvent> events;
  for (const std::string& line : lines) {
    ChromeEvent e;
    e.ph = chrome_field(line, "ph");
    if (e.ph == "M") continue;
    const std::string pid = chrome_field(line, "pid");
    e.process = processes[pid];
    e.thread = threads[{pid, chrome_field(line, "tid")}];
    e.name = chrome_field(line, "name");
    e.cat = chrome_field(line, "cat");
    e.id = chrome_field(line, "id");
    const std::string ts = chrome_field(line, "ts");
    const std::size_t dot = ts.find('.');
    e.ts = std::stoll(ts.substr(0, dot)) * 1000 +
           std::stoll(ts.substr(dot + 1));
    events.push_back(e);
  }
  return events;
}

}  // namespace ntbshmem::shmem::testing
