// Telemetry artifact validator.
//
// CI runs the bench binaries and then this checker over everything they
// produced, so a malformed BENCH_*.json, Chrome trace or decision JSONL
// fails the job instead of silently archiving garbage. Usage:
//
//   check_json [--jsonl] <file>...
//
// Default mode parses each file as one complete JSON document; --jsonl
// parses every non-empty line as its own document (the decision-log
// format). A benchmark report in the current telemetry schema must also
// carry its build stamp ("nproc", "compiler", "build_type"), so no timing
// is archived without the machine it was taken on; reports written
// before the stamp existed (schema v1, e.g. committed baselines) are
// only parsed. Exit code 0 iff every file validates; problems are
// reported with the file name and the parser's byte offset.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace {

bool check_file(const std::string& path, bool jsonl) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "check_json: cannot open " << path << "\n";
    return false;
  }
  if (jsonl) {
    std::string line;
    std::size_t line_number = 0;
    std::size_t documents = 0;
    while (std::getline(in, line)) {
      ++line_number;
      if (line.empty()) {
        continue;
      }
      try {
        (void)edgesched::obs::JsonValue::parse(line);
        ++documents;
      } catch (const std::exception& e) {
        std::cerr << "check_json: " << path << ":" << line_number << ": "
                  << e.what() << "\n";
        return false;
      }
    }
    std::cout << "check_json: " << path << ": " << documents
              << " JSONL document(s) ok\n";
    return true;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    const auto doc = edgesched::obs::JsonValue::parse(buffer.str());
    if (doc.type() == edgesched::obs::JsonValue::Type::kObject &&
        doc.contains("schema") &&
        doc.at("schema").type() == edgesched::obs::JsonValue::Type::kString &&
        doc.at("schema").as_string() == "edgesched-bench-telemetry-v2") {
      for (const char* key : {"nproc", "compiler", "build_type"}) {
        if (!doc.contains(key)) {
          std::cerr << "check_json: " << path << ": benchmark report lacks \""
                    << key << "\"\n";
          return false;
        }
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "check_json: " << path << ": " << e.what() << "\n";
    return false;
  }
  std::cout << "check_json: " << path << ": ok\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool jsonl = false;
  bool all_ok = true;
  std::size_t files = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jsonl") == 0) {
      jsonl = true;  // applies to the files that follow
      continue;
    }
    ++files;
    all_ok = check_file(argv[i], jsonl) && all_ok;
  }
  if (files == 0) {
    std::cerr << "usage: check_json [--jsonl] <file>...\n";
    return 2;
  }
  return all_ok ? 0 : 1;
}
