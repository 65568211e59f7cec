// Unit tests for the audlint protocol drift checker (tools/audlint_core.cc).
//
// Each test builds a small in-memory fixture tree — a fake protocol with two
// opcodes wired end to end — and then mutates one layer to prove the linter
// catches exactly that class of drift. The real tree is linted by the
// `audlint` ctest (tools/audlint.cc); these tests prove the checker would
// actually fail if someone added an opcode row without its Alib entry point
// or its PROTOCOL.md row.

#include "tools/audlint_core.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace aud {
namespace audlint {
namespace {

using FileMap = std::map<std::string, std::string>;

// gmock is not available in every build environment, so these stand in for
// Contains(HasSubstr(...)) / IsEmpty() with messages that dump the list.
testing::AssertionResult HasProblem(const std::vector<std::string>& problems,
                                    const std::string& needle) {
  for (const std::string& p : problems) {
    if (p.find(needle) != std::string::npos) {
      return testing::AssertionSuccess();
    }
  }
  auto result = testing::AssertionFailure()
                << "no problem contains \"" << needle << "\"; got "
                << problems.size() << " problem(s):";
  for (const std::string& p : problems) {
    result << "\n  " << p;
  }
  return result;
}

testing::AssertionResult NoProblems(const std::vector<std::string>& problems) {
  if (problems.empty()) {
    return testing::AssertionSuccess();
  }
  auto result = testing::AssertionFailure()
                << "expected a clean tree; got " << problems.size()
                << " problem(s):";
  for (const std::string& p : problems) {
    result << "\n  " << p;
  }
  return result;
}

// A minimal consistent tree: two opcodes (NoOp, Ping), one versioned reply.
FileMap CleanTree() {
  FileMap files;
  files["protocol.h"] = R"(
#define AUD_OPCODES(X)                        \
  X(NoOp, 0, NoPayload, void, kState)         \
  /* A round trip. */                         \
  X(Ping, 1, NoPayload, PingReply, kState)
)";
  files["messages.h"] = R"(
inline constexpr uint32_t kPingVersion = 1;

struct PingReply {
  uint32_t value = 0;

  AUD_FIELDS(PingReply, value);
};
)";
  files["alib.h"] = R"(
void NoOp();
uint32_t Ping();
)";
  files["alib.cc"] = "";
  files["requests.cc"] = R"(
void AudioConnection::NoOp() { Send<Opcode::kNoOp>({}); }
uint32_t AudioConnection::Ping() { return Call<Opcode::kPing>({}).value().value; }
)";
  files["PROTOCOL.md"] = R"(
### Opcode index

| opcode | name | reply |
| ------ | ---- | ----- |
| 0      | NoOp | —     |
| 1      | Ping | PingReply |

PingReply carries a single `value` counter.
)";
  files["schema.lock"] = "PingReply 1 value\n";
  files["lock_rank.h"] = R"(
enum class LockRank : int {
  kUnranked = -1,    // exempt
  kServerState = 0,  // big lock
  kEgressQueue = 2,  // per-connection outbound queue
  kLogging = 7,      // leaf
};
)";
  files["DESIGN.md"] = R"(
Some prose about locks.

   | Lock | Guards | LockRank | Rank |
   |---|---|---|---|
   | `AudioServer::mu_` | everything | `kServerState` | 0 |
   | `EgressQueue::mu_` | outbound frames | `kEgressQueue` | 2 |
   | `g_log_mu` | stderr | `kLogging` | 7 |

More prose after the table.
)";
  files["status.h"] = R"(
enum class ErrorCode : uint8_t {
  kOk = 0,
  kBadResource = 1,
  kTimeout = 2,
};
)";
  files["status.cc"] = R"(
std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "Ok";
    case ErrorCode::kBadResource:
      return "BadResource";
    case ErrorCode::kTimeout:
      return "Timeout";
  }
  return "Unknown";
}
)";
  // The PROTOCOL.md fixture needs the error-code paragraph too.
  files["PROTOCOL.md"] += R"(
Error codes: `BadResource(1)`, `Timeout(2)`. The payload is a code.
)";
  files["server_stats_fields.h"] = "";
  files["audiond.cc"] = R"(
    if (arg == "--port") { port = Next(); }
    if (arg == "--verbose") { verbose = true; }
)";
  files["audioctl.cc"] = R"(
    if (arg == "--json") { json = true; }
)";
  files["audioload.cc"] = R"(
    if (arg == "--clients") { clients = Next(); }
)";
  files["README.md"] = R"(
Run `audiond --port 7800 --verbose` and query it with `audioctl --json`,
then load it with `audioload --clients 100`.

| `audiond` flag | Meaning |
|---|---|
| `--port N` / `--verbose` | listen port, debug logging |

The table ends at the first line that is not a row.
)";
  return files;
}

TEST(AudlintTest, CleanTreePasses) {
  EXPECT_TRUE(NoProblems(LintTree(CleanTree())));
}

TEST(AudlintTest, MissingInputFileReported) {
  FileMap files = CleanTree();
  files.erase("requests.cc");
  EXPECT_TRUE(HasProblem(LintTree(files), "missing input file: requests.cc"));
}

TEST(AudlintTest, ParseOpcodeTableReadsRows) {
  std::vector<std::string> problems;
  std::vector<OpcodeTableRow> rows = ParseOpcodeTable(CleanTree()["protocol.h"], &problems);
  EXPECT_TRUE(NoProblems(problems));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "NoOp");
  EXPECT_EQ(rows[0].reply, "void");
  EXPECT_EQ(rows[1].name, "Ping");
  EXPECT_EQ(rows[1].value, 1);
  EXPECT_EQ(rows[1].request, "NoPayload");
  EXPECT_EQ(rows[1].reply, "PingReply");
  EXPECT_EQ(rows[1].dispatch, "kState");
}

TEST(AudlintTest, MalformedOpcodeRowFlagged) {
  FileMap files = CleanTree();
  files["protocol.h"] = R"(
#define AUD_OPCODES(X)                        \
  X(NoOp, 0, NoPayload, void, kState)         \
  X(Ping, one, NoPayload, PingReply, kState)
)";
  EXPECT_TRUE(HasProblem(LintTree(files), "malformed opcode table row X(Ping, ...)"));
}

// The headline scenario: a new opcode lands in the table but nowhere else.
// The compiler generates its enumerator, name and dispatch class, and fails
// the dispatcher's switch; each layer outside the code must produce its own
// complaint.
TEST(AudlintTest, NewOpcodeWithoutCounterpartsFailsEveryLayer) {
  FileMap files = CleanTree();
  files["protocol.h"] = R"(
#define AUD_OPCODES(X)                        \
  X(NoOp, 0, NoPayload, void, kState)         \
  X(Ping, 1, NoPayload, PingReply, kState)    \
  X(Shout, 2, NoPayload, void, kState)
)";
  std::vector<std::string> problems = LintTree(files);
  EXPECT_TRUE(HasProblem(problems, "no wrapper references Opcode::kShout"));
  EXPECT_TRUE(HasProblem(problems, "opcode index has no row for Shout"));
}

TEST(AudlintTest, SubstringOpcodeReferenceDoesNotCount) {
  FileMap files = CleanTree();
  // `Opcode::kPingExtended` must not satisfy the kPing coverage check.
  files["requests.cc"] = R"(
void AudioConnection::NoOp() { Send<Opcode::kNoOp>({}); }
void AudioConnection::Ping() { Send<Opcode::kPingExtended>({}); }
)";
  EXPECT_TRUE(HasProblem(LintTree(files), "no wrapper references Opcode::kPing"));
}

TEST(AudlintTest, DocOpcodeNumberMismatchFlagged) {
  FileMap files = CleanTree();
  files["PROTOCOL.md"] = R"(
### Opcode index

| opcode | name | reply |
| ------ | ---- | ----- |
| 0      | NoOp | —     |
| 2      | Ping | PingReply |
)";
  EXPECT_TRUE(HasProblem(LintTree(files),
                         "opcode index says Ping = 2, protocol.h says 1"));
}

TEST(AudlintTest, DocReplyMismatchFlagged) {
  FileMap files = CleanTree();
  files["PROTOCOL.md"] = R"(
### Opcode index

| opcode | name | reply |
| ------ | ---- | ----- |
| 0      | NoOp | —     |
| 1      | Ping | —     |
)";
  EXPECT_TRUE(HasProblem(LintTree(files),
                         "opcode index says Ping replies —, protocol.h says PingReply"));
}

TEST(AudlintTest, DocUnknownOpcodeFlagged) {
  FileMap files = CleanTree();
  files["PROTOCOL.md"] += "| 7 | Whisper | — |\n";
  EXPECT_TRUE(HasProblem(LintTree(files), "lists unknown opcode Whisper = 7"));
}

TEST(AudlintTest, NumericTablesOutsideOpcodeIndexIgnored) {
  FileMap files = CleanTree();
  // Event-code style tables in later sections are not opcode rows.
  files["PROTOCOL.md"] += R"(
### Event codes

| code | event |
| ---- | ----- |
| 11   | TelephoneRing |
)";
  EXPECT_TRUE(NoProblems(LintTree(files)));
}

TEST(AudlintTest, ParseFieldListReadsOnlyItsOwnList) {
  std::string header = R"(
struct PingReplyV2 {
  uint32_t other = 0;

  AUD_FIELDS(PingReplyV2, other);
};

struct PingReply {
  struct Part {
    uint32_t inner = 0;

    AUD_FIELDS(Part, inner);
  };
  uint32_t value = 0;
  std::vector<Part> parts;

  AUD_FIELDS(PingReply, value,
             parts);
};
)";
  EXPECT_EQ(ParseFieldList(header, "PingReply"), (std::vector<std::string>{"value", "parts"}));
  EXPECT_TRUE(ParseFieldList(header, "GhostReply").empty());
}

TEST(AudlintTest, SchemaDriftWithoutLockUpdateFlagged) {
  FileMap files = CleanTree();
  // A field appended to the struct without a new lock line.
  files["messages.h"] = R"(
inline constexpr uint32_t kPingVersion = 1;

struct PingReply {
  uint32_t value = 0;
  uint32_t extra = 0;

  AUD_FIELDS(PingReply, value, extra);
};
)";
  EXPECT_TRUE(HasProblem(LintTree(files),
                         "PingReply v1 field list does not match messages.h"));
}

TEST(AudlintTest, ProperAppendOnlyEvolutionPasses) {
  FileMap files = CleanTree();
  files["messages.h"] = R"(
inline constexpr uint32_t kPingVersion = 2;

struct PingReply {
  uint32_t value = 0;
  uint32_t extra = 0;

  AUD_FIELDS(PingReply, value, extra);
};
)";
  files["schema.lock"] = "PingReply 1 value\nPingReply 2 value extra\n";
  files["PROTOCOL.md"] += "\nVersion 2 appends an `extra` counter.\n";
  EXPECT_TRUE(NoProblems(LintTree(files)));
}

TEST(AudlintTest, ReorderedFieldsBreakOldVersionPrefix) {
  FileMap files = CleanTree();
  // Fields reordered: v2 matches, but v1 is no longer a prefix.
  files["messages.h"] = R"(
inline constexpr uint32_t kPingVersion = 2;

struct PingReply {
  uint32_t extra = 0;
  uint32_t value = 0;

  AUD_FIELDS(PingReply, extra, value);
};
)";
  files["schema.lock"] = "PingReply 1 value\nPingReply 2 extra value\n";
  EXPECT_TRUE(HasProblem(LintTree(files),
                         "v1 is not a strict prefix of the current fields"));
}

TEST(AudlintTest, VersionConstantDisagreementFlagged) {
  FileMap files = CleanTree();
  files["messages.h"] = R"(
inline constexpr uint32_t kPingVersion = 2;

struct PingReply {
  uint32_t value = 0;

  AUD_FIELDS(PingReply, value);
};
)";
  EXPECT_TRUE(HasProblem(
      LintTree(files),
      "locked at version 1 but messages.h declares kPingVersion = 2"));
}

TEST(AudlintTest, LockedStructMissingFromHeaderFlagged) {
  FileMap files = CleanTree();
  files["schema.lock"] += "GhostReply 1 spooky\n";
  EXPECT_TRUE(
      HasProblem(LintTree(files), "struct GhostReply not found in messages.h"));
}

TEST(AudlintTest, EmptySchemaLockFlagged) {
  FileMap files = CleanTree();
  files["schema.lock"] = "# nothing locked yet\n";
  EXPECT_TRUE(HasProblem(LintTree(files), "no schemas locked"));
}

TEST(AudlintTest, MalformedLockLineFlagged) {
  FileMap files = CleanTree();
  files["schema.lock"] = "PingReply 1 value\nPingReply\n";
  EXPECT_TRUE(HasProblem(LintTree(files), "malformed line: PingReply"));
}

// Extends the clean tree with a locked ServerStatsReply (v1 -> v2) whose
// fields after stats_version are the rows of a stats table, so the schema
// and doc checks (7 and 8) have a table to read. doc_extra is appended to
// PROTOCOL.md.
FileMap TreeWithStatsReply(const std::string& doc_extra) {
  FileMap files = CleanTree();
  files["messages.h"] += R"(
struct ServerStatsReply {
  uint32_t stats_version = kServerStatsVersion;
#define AUD_STATS_MEMBER(name, type, ...) type name{};
  AUD_SERVER_STATS_FIELDS(AUD_STATS_MEMBER)
#undef AUD_STATS_MEMBER
  void Encode(ByteWriter* w) const;
  static ServerStatsReply Decode(ByteReader* r);
};
)";
  files["server_stats_fields.h"] = R"(
inline constexpr uint32_t kServerStatsVersion = 2;

#define AUD_SERVER_STATS_FIELDS(X)                                  \
  /* v2 */                                                          \
  X(widgets, uint64_t, kCounter, kMetric, 2, kAll, "", "", "",      \
    "Widgets made")
)";
  files["schema.lock"] +=
      "ServerStatsReply 1 stats_version\n"
      "ServerStatsReply 2 stats_version widgets\n";
  files["PROTOCOL.md"] += doc_extra;
  return files;
}

TEST(AudlintTest, ParseStatsTableReadsRowNamesInOrder) {
  FileMap files = TreeWithStatsReply("");
  files["server_stats_fields.h"] += R"(
// A later macro is not part of the table:
#define OTHER(X) X(gadgets, uint64_t)
)";
  EXPECT_EQ(ParseStatsTable(files["server_stats_fields.h"]),
            std::vector<std::string>{"widgets"});
}

TEST(AudlintTest, StatsTableRowWithoutLockLineFlagged) {
  // A row appended to the table is a new wire field: it needs a version
  // bump and a lock line like any struct member.
  FileMap files = TreeWithStatsReply(
      "\nThe stats reply carries `stats_version`, `widgets` and `gizmos`.\n");
  std::string& table = files["server_stats_fields.h"];
  table.insert(table.rfind(")\n") + 1, R"x( \
  X(gizmos, uint64_t, kCounter, kMetric, 3, kAll, "", "", "", "Gizmos")x");
  EXPECT_TRUE(HasProblem(LintTree(files),
                         "ServerStatsReply v2 field list does not match messages.h"));
  files["schema.lock"] += "ServerStatsReply 3 stats_version widgets gizmos\n";
  EXPECT_TRUE(HasProblem(LintTree(files), "messages.h declares kServerStatsVersion = 2"));
  table.replace(table.find("= 2;"), 4, "= 3;");
  EXPECT_TRUE(NoProblems(LintTree(files)));
}

TEST(AudlintTest, DocumentedStatsFieldsPass) {
  FileMap files = TreeWithStatsReply(
      "\nThe stats reply carries `stats_version` and a `widgets` counter.\n");
  EXPECT_TRUE(NoProblems(LintTree(files)));
}

TEST(AudlintTest, UndocumentedStatsFieldFlagged) {
  FileMap files =
      TreeWithStatsReply("\nThe stats reply carries `stats_version`.\n");
  EXPECT_TRUE(HasProblem(
      LintTree(files), "ServerStatsReply v2 field widgets is not documented"));
}

TEST(AudlintTest, SubstringDoesNotCountAsStatsDocumentation) {
  // "widgetsphere" contains "widgets" but is a different identifier; the
  // check requires a whole-word mention.
  FileMap files = TreeWithStatsReply(
      "\nThe stats reply carries `stats_version` and a widgetsphere.\n");
  EXPECT_TRUE(HasProblem(
      LintTree(files), "ServerStatsReply v2 field widgets is not documented"));
}

TEST(AudlintTest, OnlyNewestStatsVersionNeedsDocs) {
  // Only the newest locked version's field list is enforced, regardless of
  // the order the lock lines appear in.
  FileMap files = TreeWithStatsReply(
      "\nThe stats reply carries `stats_version` and a `widgets` counter.\n");
  std::string lock = files["schema.lock"];
  // Move the v2 line above the v1 line.
  files["schema.lock"] =
      "PingReply 1 value\n"
      "ServerStatsReply 2 stats_version widgets\n"
      "ServerStatsReply 1 stats_version\n";
  EXPECT_TRUE(NoProblems(LintTree(files)));
}

// Extends the clean tree with a second locked reply struct so the tests can
// show doc coverage applies to EVERY locked struct, not just ServerStatsReply.
FileMap TreeWithToneReply() {
  FileMap files = CleanTree();
  files["messages.h"] += R"(
inline constexpr uint32_t kToneVersion = 1;

struct ToneReply {
  uint32_t pitch = 0;

  AUD_FIELDS(ToneReply, pitch);
};
)";
  files["schema.lock"] += "ToneReply 1 pitch\n";
  return files;
}

TEST(AudlintTest, EveryLockedStructNeedsDocCoverage) {
  // Doc coverage is not special-cased to the stats reply: any locked struct
  // with an undocumented field is flagged.
  FileMap files = TreeWithToneReply();
  EXPECT_TRUE(
      HasProblem(LintTree(files), "ToneReply v1 field pitch is not documented"));
}

TEST(AudlintTest, DocumentedNonStatsLockedStructPasses) {
  FileMap files = TreeWithToneReply();
  files["PROTOCOL.md"] += "\nToneReply carries the generator `pitch` in Hz.\n";
  EXPECT_TRUE(NoProblems(LintTree(files)));
}

// --- v2: lock-rank drift (CheckLockRanks) ---------------------------------

TEST(AudlintTest, ParseValuedEnumReadsNamesAndValues) {
  std::vector<std::string> problems;
  std::vector<EnumEntry> entries =
      ParseValuedEnum(CleanTree()["lock_rank.h"], "LockRank", &problems);
  EXPECT_TRUE(NoProblems(problems));
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].name, "Unranked");
  EXPECT_EQ(entries[0].value, -1);
  EXPECT_EQ(entries[2].name, "EgressQueue");
  EXPECT_EQ(entries[2].value, 2);
}

TEST(AudlintTest, LockRankMissingDocRowFlagged) {
  FileMap files = CleanTree();
  // A new ranked lock lands in code but the DESIGN.md table is not updated.
  files["lock_rank.h"] = R"(
enum class LockRank : int {
  kUnranked = -1,
  kServerState = 0,
  kEgressQueue = 2,
  kDecodedCache = 2,
  kLogging = 7,
};
)";
  EXPECT_TRUE(HasProblem(LintTree(files),
                         "lock table has no row for kDecodedCache (rank 2)"));
}

TEST(AudlintTest, LockRankValueMismatchFlagged) {
  FileMap files = CleanTree();
  files["DESIGN.md"] = R"(
   | Lock | Guards | LockRank | Rank |
   |---|---|---|---|
   | `AudioServer::mu_` | everything | `kServerState` | 0 |
   | `EgressQueue::mu_` | outbound frames | `kEgressQueue` | 3 |
   | `g_log_mu` | stderr | `kLogging` | 7 |
)";
  EXPECT_TRUE(HasProblem(LintTree(files),
                         "lock table says kEgressQueue = 3, lock_rank.h says 2"));
}

TEST(AudlintTest, LockRankUnknownDocRowFlagged) {
  FileMap files = CleanTree();
  files["DESIGN.md"] = R"(
   | Lock | Guards | LockRank | Rank |
   |---|---|---|---|
   | `AudioServer::mu_` | everything | `kServerState` | 0 |
   | `EgressQueue::mu_` | outbound frames | `kEgressQueue` | 2 |
   | `Ghost::mu_` | nothing | `kGhost` | 4 |
   | `g_log_mu` | stderr | `kLogging` | 7 |
)";
  EXPECT_TRUE(
      HasProblem(LintTree(files), "lock table lists unknown rank kGhost = 4"));
}

TEST(AudlintTest, LockRankTableMissingEntirelyFlagged) {
  FileMap files = CleanTree();
  files["DESIGN.md"] = "No table here at all.\n";
  EXPECT_TRUE(HasProblem(LintTree(files), "lock table"));
}

TEST(AudlintTest, UnrankedNeedsNoDocRow) {
  // kUnranked is the opt-out sentinel, not a lock; the clean-tree table has
  // no row for it and that must not be a problem.
  EXPECT_TRUE(NoProblems(LintTree(CleanTree())));
}

// --- v2: error-code drift (CheckErrorCodes) -------------------------------

TEST(AudlintTest, ErrorCodeMissingNameCaseFlagged) {
  FileMap files = CleanTree();
  files["status.h"] = R"(
enum class ErrorCode : uint8_t {
  kOk = 0,
  kBadResource = 1,
  kTimeout = 2,
  kBadValue = 3,
};
)";
  std::vector<std::string> problems = LintTree(files);
  EXPECT_TRUE(HasProblem(problems, "ErrorCodeName has no case for kBadValue"));
  // The new code is also undocumented — both layers complain.
  EXPECT_TRUE(HasProblem(problems, "error code BadValue(3) is not documented"));
}

TEST(AudlintTest, ErrorCodeNameTextMismatchFlagged) {
  FileMap files = CleanTree();
  files["status.cc"] = R"(
std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "Ok";
    case ErrorCode::kBadResource:
      return "ResourceBad";
    case ErrorCode::kTimeout:
      return "Timeout";
  }
  return "Unknown";
}
)";
  EXPECT_TRUE(HasProblem(LintTree(files),
                         "ErrorCodeName maps kBadResource to \"ResourceBad\""));
}

TEST(AudlintTest, ErrorCodeStaleNameCaseFlagged) {
  FileMap files = CleanTree();
  // Enum entry removed; its switch case lingers. (In the real tree
  // -Werror=switch would also catch this; audlint catches it without a
  // compiler.)
  files["status.h"] = R"(
enum class ErrorCode : uint8_t {
  kOk = 0,
  kBadResource = 1,
};
)";
  EXPECT_TRUE(HasProblem(LintTree(files),
                         "ErrorCodeName has a case for unknown code kTimeout"));
}

TEST(AudlintTest, ErrorCodeDocValueMismatchFlagged) {
  FileMap files = CleanTree();
  size_t pos = files["PROTOCOL.md"].find("`Timeout(2)`");
  ASSERT_NE(pos, std::string::npos);
  files["PROTOCOL.md"].replace(pos, 12, "`Timeout(9)`");
  EXPECT_TRUE(HasProblem(LintTree(files),
                         "error codes say Timeout = 9, status.h says 2"));
}

TEST(AudlintTest, ErrorCodeUnknownDocCodeFlagged) {
  FileMap files = CleanTree();
  size_t pos = files["PROTOCOL.md"].find("`Timeout(2)`");
  ASSERT_NE(pos, std::string::npos);
  files["PROTOCOL.md"].insert(pos, "`Ghost(9)`, ");
  EXPECT_TRUE(
      HasProblem(LintTree(files), "error codes list unknown code Ghost(9)"));
}

TEST(AudlintTest, OpcodeNotationOutsideErrorParagraphIgnored) {
  // `CreateLoud(1)` opcode notation elsewhere in the doc must not be read
  // as an error code.
  FileMap files = CleanTree();
  files["PROTOCOL.md"] += "\nSee also the `NoOp(0)` opcode notation.\n";
  EXPECT_TRUE(NoProblems(LintTree(files)));
}

// --- v2: CLI flag documentation (CheckCliDocCoverage) ---------------------

TEST(AudlintTest, UndocumentedCliFlagFlagged) {
  FileMap files = CleanTree();
  files["audiond.cc"] += "\n    if (arg == \"--ghost-mode\") { ghost = true; }\n";
  EXPECT_TRUE(
      HasProblem(LintTree(files), "audiond flag --ghost-mode is undocumented"));
}

TEST(AudlintTest, FlagTableRowForUnparsedFlagFlagged) {
  FileMap files = CleanTree();
  // A flag deleted from audiond.cc whose README row stayed behind.
  const std::string row = "| `--port N` / `--verbose` | listen port, debug logging |\n";
  files["README.md"].replace(files["README.md"].find(row), row.size(),
                             row + "| `--ghost-mode P` | `a` or `b`, like --phantom |\n");
  EXPECT_TRUE(HasProblem(LintTree(files),
                         "the audiond flag table names --ghost-mode, which audiond.cc does not "
                         "parse"));
  // Only the first column names flags: --phantom in the meaning is prose.
  EXPECT_EQ(LintTree(files).size(), 1u);
}

TEST(AudlintTest, FlagPrefixOfLongerFlagDoesNotCount) {
  FileMap files = CleanTree();
  // README documents only --json-lines; the audioctl flag --json must still
  // be flagged (prefix matches don't count).
  files["README.md"] = R"(
Run `audiond --port 7800 --verbose`. Logs accept `--json-lines=PATH`.
)";
  EXPECT_TRUE(
      HasProblem(LintTree(files), "audioctl flag --json is undocumented"));
}

TEST(AudlintTest, BareDashDashSeparatorIgnored) {
  FileMap files = CleanTree();
  files["audioctl.cc"] += "\n    if (arg == \"--\") { rest_are_positional = true; }\n";
  EXPECT_TRUE(NoProblems(LintTree(files)));
}

}  // namespace
}  // namespace audlint
}  // namespace aud
