// audlint driver: lints the real tree. Usage: audlint [repo-root]
// (default "."). Registered as a ctest so protocol drift fails the build's
// test stage; see tools/audlint_core.h for the checks.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tools/audlint_core.h"

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = argc > 1 ? argv[1] : ".";
  const std::pair<const char*, const char*> sources[] = {
      {"protocol.h", "src/wire/protocol.h"},
      {"messages.h", "src/wire/messages.h"},
      {"server_stats_fields.h", "src/wire/server_stats_fields.h"},
      {"alib.h", "src/alib/alib.h"},
      {"alib.cc", "src/alib/alib.cc"},
      {"requests.cc", "src/alib/requests.cc"},
      {"PROTOCOL.md", "docs/PROTOCOL.md"},
      {"schema.lock", "docs/schema.lock"},
      {"lock_rank.h", "src/common/lock_rank.h"},
      {"DESIGN.md", "DESIGN.md"},
      {"status.h", "src/common/status.h"},
      {"status.cc", "src/common/status.cc"},
      {"audiond.cc", "tools/audiond.cc"},
      {"audioctl.cc", "tools/audioctl.cc"},
      {"audioload.cc", "tools/audioload.cc"},
      {"README.md", "README.md"},
  };

  std::map<std::string, std::string> files;
  bool read_ok = true;
  for (const auto& [key, rel] : sources) {
    std::string text;
    std::string path = root + "/" + rel;
    if (!ReadFile(path, &text)) {
      std::fprintf(stderr, "audlint: cannot read %s\n", path.c_str());
      read_ok = false;
      continue;
    }
    files[key] = std::move(text);
  }
  if (!read_ok) {
    return 2;
  }

  std::vector<std::string> problems = aud::audlint::LintTree(files);
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "audlint: %s\n", problem.c_str());
  }
  if (!problems.empty()) {
    std::fprintf(stderr, "audlint: %zu problem(s)\n", problems.size());
    return 1;
  }
  std::printf("audlint: ok\n");
  return 0;
}
