// audlint: the whole-program invariant linter, for the drift the compiler
// cannot see. The opcode table (AUD_OPCODES in src/wire/protocol.h) and
// each message's AUD_FIELDS list are the single source of the protocol's
// vocabulary, and the compiler generates every other copy from them; what
// audlint checks against them is what lives outside the code:
//
//   * every opcode has an Alib entry point, and a PROTOCOL.md index row
//     with its number and reply type;
//   * versioned replies are append-only against docs/schema.lock, and every
//     current field is documented (the stats reply's fields are the rows of
//     src/wire/server_stats_fields.h);
//   * lock ranks (LockRank enum vs the DESIGN.md lock table), error codes
//     (ErrorCode enum vs the name switch vs PROTOCOL.md), and CLI flags
//     (every audiond/audioctl/audioload --flag appears in README.md, and
//     every flag a README flag table names is one the tool parses).
//
// Runs as a ctest (tools/audlint.cc) so drift fails CI the same commit it
// happens. The checker is a pure function over file contents so the unit
// test can lint in-memory fixture trees (tests/audlint_test.cc) without
// touching disk.

#ifndef TOOLS_AUDLINT_CORE_H_
#define TOOLS_AUDLINT_CORE_H_

#include <map>
#include <string>
#include <vector>

namespace aud {
namespace audlint {

// Canonical file keys the linter expects in the input map (basenames):
//   protocol.h messages.h server_stats_fields.h alib.h alib.cc requests.cc
//   PROTOCOL.md schema.lock lock_rank.h DESIGN.md status.h status.cc
//   audiond.cc audioctl.cc audioload.cc README.md
// A missing key is itself reported as a problem.
inline constexpr const char* kRequiredFiles[] = {
    "protocol.h",  "messages.h",  "server_stats_fields.h", "alib.h",
    "alib.cc",     "requests.cc", "PROTOCOL.md",           "schema.lock",
    "lock_rank.h", "DESIGN.md",   "status.h",              "status.cc",
    "audiond.cc",  "audioctl.cc", "audioload.cc",          "README.md",
};

// The X-macros that hold the opcode table (protocol.h) and the stats
// table's rows (server_stats_fields.h).
inline constexpr const char* kOpcodeTableMacro = "AUD_OPCODES";
inline constexpr const char* kStatsTableMacro = "AUD_SERVER_STATS_FIELDS";

// The stats reply's leading field: the version that gates its table rows.
inline constexpr const char* kStatsEnvelope = "stats_version";

// One row of the opcode table: X(name, value, request, reply, dispatch).
struct OpcodeTableRow {
  std::string name;   // without the leading 'k', e.g. "CreateLoud"
  int value = -1;
  std::string request;
  std::string reply;  // "void" when the request has none
  std::string dispatch;
};

// Parses the opcode table's rows out of protocol.h text, in order. Rows
// that do not have five arguments and a numeric value are reported.
std::vector<OpcodeTableRow> ParseOpcodeTable(const std::string& protocol_h,
                                             std::vector<std::string>* problems);

// The field names a struct lists with AUD_FIELDS(<name>, ...) in a header,
// in order; empty when the struct has no field list.
std::vector<std::string> ParseFieldList(const std::string& header, const std::string& name);

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
