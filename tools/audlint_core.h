// audlint: the whole-program invariant linter. Cross-references the five
// places an opcode must be wired — the Opcode enum, the kOpcodeNames table,
// the dispatcher switch, the Alib veneer, and the PROTOCOL.md opcode index —
// and enforces the append-only reply rule against docs/schema.lock (the
// stats reply's fields are the rows of src/wire/server_stats_fields.h). v2
// adds whole-program drift checks beyond the protocol: lock ranks (LockRank
// enum vs the DESIGN.md lock table), error codes (ErrorCode enum vs the name
// switch vs PROTOCOL.md), and CLI flag documentation (every
// audiond/audioctl/audioload --flag must appear in README.md). Runs as a
// ctest (tools/audlint.cc) so drift fails CI the same commit it happens.
//
// The checker is a pure function over file contents so the unit test can
// lint in-memory fixture trees (tests/audlint_test.cc) without touching
// disk.

#ifndef TOOLS_AUDLINT_CORE_H_
#define TOOLS_AUDLINT_CORE_H_

#include <map>
#include <string>
#include <vector>

namespace aud {
namespace audlint {

// Canonical file keys the linter expects in the input map (basenames):
//   protocol.h protocol.cc messages.h messages.cc server_stats_fields.h
//   alib.h alib.cc requests.cc dispatcher.cc PROTOCOL.md schema.lock
//   lock_rank.h DESIGN.md status.h status.cc audiond.cc audioctl.cc
//   audioload.cc README.md
// A missing key is itself reported as a problem.
inline constexpr const char* kRequiredFiles[] = {
    "protocol.h",    "protocol.cc",   "messages.h",  "messages.cc",
    "server_stats_fields.h",          "alib.h",      "alib.cc",
    "requests.cc",   "dispatcher.cc", "PROTOCOL.md", "schema.lock",
    "lock_rank.h",   "DESIGN.md",     "status.h",    "status.cc",
    "audiond.cc",    "audioctl.cc",   "audioload.cc", "README.md",
};

// The X-macro that lists the stats table's rows (server_stats_fields.h).
inline constexpr const char* kStatsTableMacro = "AUD_SERVER_STATS_FIELDS";

// One opcode as parsed from the enum in protocol.h.
struct OpcodeEntry {
  std::string name;  // without the leading 'k', e.g. "CreateLoud"
  int value = -1;
};

// Parsed `enum class Opcode` contents; count is kOpcodeCount's value.
struct OpcodeEnum {
  std::vector<OpcodeEntry> entries;
  int count = -1;
};

// Parses the Opcode enum out of protocol.h text. Parse errors are appended
// to `problems`.
OpcodeEnum ParseOpcodeEnum(const std::string& protocol_h,
                           std::vector<std::string>* problems);

// Ordered member field names of `struct <name> { ... };` in a header.
std::vector<std::string> ParseStructFields(const std::string& header,
                                           const std::string& name);

// Row names of the stats table, in order: the first argument of each
// `X(...)` line of the `#define AUD_SERVER_STATS_FIELDS(X)` body.
std::vector<std::string> ParseStatsTable(const std::string& table);

// One enumerator of a `k`-prefixed enum with explicit values, e.g. LockRank
// or ErrorCode. `name` drops the leading 'k' ("EngineRoot", "BadValue").
struct EnumEntry {
  std::string name;
  int value = 0;
};

// Parses `enum class <enum_name>` out of header text into (name, value)
// pairs, in declaration order. Enumerators without an explicit `= value`
// are reported as problems (both enums audlint cares about are
// wire/doc-visible, so implicit values are drift waiting to happen).
std::vector<EnumEntry> ParseValuedEnum(const std::string& header,
                                       const std::string& enum_name,
                                       std::vector<std::string>* problems);

// Runs every check over the given file map and returns the list of
// problems (empty = clean tree).
std::vector<std::string> LintTree(const std::map<std::string, std::string>& files);

}  // namespace audlint
}  // namespace aud

#endif  // TOOLS_AUDLINT_CORE_H_
