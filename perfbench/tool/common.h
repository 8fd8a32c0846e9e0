// Shared helpers of perfbench_tool: flag lookup, whole-file I/O, a
// steady clock, and a flat JSON object printer for results that run.py
// reads back.
#ifndef PERFBENCH_TOOL_COMMON_H_
#define PERFBENCH_TOOL_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Args = std::vector<std::string>;

/// Value of --name=value, or `fallback` when absent.
inline std::string Flag(const Args& args, const std::string& name,
                        const std::string& fallback = "") {
  const std::string prefix = "--" + name + "=";
  for (const std::string& arg : args) {
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

/// Like Flag, but the flag must be present.
inline std::string RequiredFlag(const Args& args, const std::string& name) {
  const std::string value = Flag(args, name, "\x01");
  if (value == "\x01") throw std::runtime_error("missing --" + name + "=");
  return value;
}

inline int64_t IntFlag(const Args& args, const std::string& name,
                       int64_t fallback) {
  const std::string value = Flag(args, name);
  if (value.empty()) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end != value.c_str() + value.size()) {
    throw std::runtime_error("--" + name + " must be an integer");
  }
  return parsed;
}

inline double DoubleFlag(const Args& args, const std::string& name,
                         double fallback) {
  const std::string value = Flag(args, name);
  if (value.empty()) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size()) {
    throw std::runtime_error("--" + name + " must be a number");
  }
  return parsed;
}

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

inline void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A flat JSON object of numbers and strings, printed on one line.
class JsonLine {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    fields_.emplace_back(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (c == '\n') {
        quoted += "\\n";
        continue;
      }
      quoted += c;
    }
    quoted += '"';
    fields_.emplace_back(key, quoted);
  }
  /// A pre-rendered JSON value (array or object).
  void Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }
  std::string str() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Splits one-tree-per-line text into batches of `batch` trees, after
/// skipping the first `skip_trees` lines; a trailing partial batch is
/// dropped.
inline std::vector<std::string> SplitBatches(const std::string& text,
                                             size_t skip_trees, size_t batch,
                                             size_t max_batches = SIZE_MAX) {
  std::vector<std::string> out;
  std::string current;
  size_t line = 0;
  size_t in_batch = 0;
  size_t pos = 0;
  while (pos < text.size() && out.size() < max_batches) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    if (line++ >= skip_trees) {
      current.append(text, pos, nl - pos + 1);
      if (++in_batch == batch) {
        out.push_back(std::move(current));
        current.clear();
        in_batch = 0;
      }
    }
    pos = nl + 1;
  }
  return out;
}

// Subcommand entry points (one per source file).
int RunGen(const Args& args);
int RunOracleFrequent(const Args& args);
int RunCheckConsensus(const Args& args);
int RunFeed(const Args& args);
int RunTrace(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_COMMON_H_
