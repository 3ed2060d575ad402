// Reply parsing and multiset comparison shared by the workload models.
#include <algorithm>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

namespace {

std::string TrimRight(std::string s) {
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

}  // namespace

bool ParseTable(const std::string& payload, std::vector<std::string>* rows,
                std::string* error) {
  rows->clear();
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < payload.size()) {
    size_t end = payload.find('\n', start);
    if (end == std::string::npos) end = payload.size();
    lines.push_back(payload.substr(start, end - start));
    start = end + 1;
  }
  if (lines.size() < 3 || lines[0].rfind("| ", 0) != 0 ||
      lines[1].rfind("+-", 0) != 0) {
    *error = "not a result table: " + payload.substr(0, 80);
    return false;
  }
  for (size_t i = 2; i + 1 < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.size() < 4 || line.rfind("| ", 0) != 0 ||
        line.compare(line.size() - 2, 2, " |") != 0) {
      *error = "malformed row: " + line;
      return false;
    }
    std::string body = line.substr(2, line.size() - 4);
    std::string row;
    size_t pos = 0;
    while (true) {
      size_t sep = body.find(" | ", pos);
      row += TrimRight(body.substr(pos, sep == std::string::npos
                                            ? std::string::npos
                                            : sep - pos));
      if (sep == std::string::npos) break;
      row += ',';
      pos = sep + 3;
    }
    rows->push_back(std::move(row));
  }
  const std::string& footer = lines.back();
  if (footer != "(" + std::to_string(rows->size()) + " rows)") {
    *error = "row count footer \"" + footer + "\" does not match " +
             std::to_string(rows->size()) + " rows";
    return false;
  }
  return true;
}

bool ParseAffected(const std::string& payload, size_t* affected,
                   std::string* error) {
  if (payload == "ok\n") {
    *affected = 0;
    return true;
  }
  const std::string suffix = " tuples affected)\n";
  if (payload.size() > suffix.size() + 1 && payload[0] == '(' &&
      payload.compare(payload.size() - suffix.size(), suffix.size(),
                      suffix) == 0) {
    const std::string digits =
        payload.substr(1, payload.size() - suffix.size() - 1);
    if (!digits.empty() &&
        std::all_of(digits.begin(), digits.end(),
                    [](char c) { return c >= '0' && c <= '9'; })) {
      *affected = std::stoull(digits);
      return true;
    }
  }
  *error = "not an affected count: " + payload.substr(0, 80);
  return false;
}

std::string CompareRows(std::vector<std::string> got,
                        std::vector<std::string> want, const char* what) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got == want) return "";
  std::string msg = std::string(what) + ": got " + std::to_string(got.size()) +
                    " rows, model has " + std::to_string(want.size());
  auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(),
                              want.end());
  if (g != got.end()) msg += "; first unexpected row " + *g;
  if (w != want.end()) msg += "; first missing row " + *w;
  return msg;
}

std::string ExpectAffected(const std::string& payload, size_t want,
                           const char* what) {
  size_t got = 0;
  std::string error;
  if (!ParseAffected(payload, &got, &error)) {
    return std::string(what) + ": " + error;
  }
  if (got != want) {
    return std::string(what) + ": " + std::to_string(got) +
           " tuples affected, model has " + std::to_string(want);
  }
  return "";
}

std::string Row(std::initializer_list<int64_t> cells) {
  std::string row;
  for (int64_t cell : cells) {
    if (!row.empty()) row += ',';
    row += std::to_string(cell);
  }
  return row;
}

}  // namespace perfbench
