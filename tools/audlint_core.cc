#include "tools/audlint_core.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace aud {
namespace audlint {

namespace {

// Strips a trailing // comment and surrounding whitespace.
std::string StripLine(std::string line) {
  size_t comment = line.find("//");
  if (comment != std::string::npos) {
    line.erase(comment);
  }
  size_t begin = line.find_first_not_of(" \t");
  if (begin == std::string::npos) {
    return "";
  }
  size_t end = line.find_last_not_of(" \t");
  return line.substr(begin, end - begin + 1);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Where `text` holds `token` not embedded in a longer identifier, or npos.
size_t FindToken(const std::string& text, const std::string& token) {
  for (size_t pos = 0; (pos = text.find(token, pos)) != std::string::npos;
       pos += token.size()) {
    bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    size_t after = pos + token.size();
    bool right_ok = after >= text.size() || !IsIdentChar(text[after]);
    if (left_ok && right_ok) {
      return pos;
    }
  }
  return std::string::npos;
}

bool ContainsToken(const std::string& text, const std::string& token) {
  return FindToken(text, token) != std::string::npos;
}

const std::string* Find(const std::map<std::string, std::string>& files,
                        const std::string& key) {
  auto it = files.find(key);
  return it == files.end() ? nullptr : &it->second;
}

// The text between the braces of `struct <name> { ... };`, empty if absent.
std::string StructBody(const std::string& header, const std::string& name) {
  size_t start = header.find("struct " + name + " {");
  if (start == std::string::npos) {
    return "";
  }
  size_t open = header.find('{', start);
  int depth = 0;
  size_t end = open;
  for (size_t i = open; i < header.size(); ++i) {
    if (header[i] == '{') {
      ++depth;
    } else if (header[i] == '}') {
      if (--depth == 0) {
        end = i;
        break;
      }
    }
  }
  return header.substr(open + 1, end - open - 1);
}


// The rows of `#define <macro>(X)` in `text`, in order: the comma-separated
// arguments, trimmed, on each line that opens with `X(`. The macro body runs
// while lines end in a backslash. A row continued on the next line (a stats
// row's help text) yields the arguments of its first line only.
std::vector<std::vector<std::string>> MacroRows(const std::string& text,
                                                const std::string& macro) {
  std::vector<std::vector<std::string>> rows;
  size_t start = text.find("#define " + macro + "(X)");
  if (start == std::string::npos) {
    return rows;
  }
  for (const std::string& raw : SplitLines(text.substr(start))) {
    std::string line = StripLine(raw);
    const bool continues = !line.empty() && line.back() == '\\';
    if (line.rfind("X(", 0) == 0) {
      std::string args = line.substr(2, line.find(')') - 2);
      if (!args.empty() && args.back() == '\\') {
        args.pop_back();
      }
      std::vector<std::string> cells;
      std::istringstream in(args);
      for (std::string cell; std::getline(in, cell, ',');) {
        cells.push_back(StripLine(cell));
      }
      if (!cells.empty() && cells.back().empty()) {
        cells.pop_back();  // the comma before a continuation line
      }
      rows.push_back(std::move(cells));
    }
    if (!continues) {
      break;
    }
  }
  return rows;
}

}  // namespace

std::vector<OpcodeTableRow> ParseOpcodeTable(const std::string& protocol_h,
                                             std::vector<std::string>* problems) {
  std::vector<OpcodeTableRow> table;
  std::vector<std::vector<std::string>> rows = MacroRows(protocol_h, kOpcodeTableMacro);
  if (rows.empty()) {
    problems->push_back(std::string("protocol.h: opcode table ") + kOpcodeTableMacro +
                        " not found");
  }
  for (const std::vector<std::string>& cells : rows) {
    if (cells.size() == 5 && !cells[1].empty() &&
        cells[1].find_first_not_of("0123456789") == std::string::npos) {
      table.push_back({cells[0], std::stoi(cells[1]), cells[2], cells[3], cells[4]});
    } else {
      problems->push_back("protocol.h: malformed opcode table row X(" +
                          (cells.empty() ? std::string() : cells[0]) + ", ...)");
    }
  }
  return table;
}

std::vector<std::string> ParseStatsTable(const std::string& table) {
  std::vector<std::string> names;
  for (const std::vector<std::string>& cells : MacroRows(table, kStatsTableMacro)) {
    if (!cells.empty()) {
      names.push_back(cells.front());
    }
  }
  return names;
}

std::vector<std::string> ParseFieldList(const std::string& header, const std::string& name) {
  std::vector<std::string> fields;
  const std::string call = "AUD_FIELDS(" + name;
  size_t pos = FindToken(header, call);
  if (pos == std::string::npos) {
    return fields;
  }
  std::string list = header.substr(pos + call.size());
  list = list.substr(0, list.find(')'));
  std::replace(list.begin(), list.end(), '\n', ' ');
  std::istringstream in(list);
  for (std::string field; std::getline(in, field, ',');) {
    if (field = StripLine(field); !field.empty()) {
      fields.push_back(field);
    }
  }
  return fields;
}

std::vector<EnumEntry> ParseValuedEnum(const std::string& header,
                                       const std::string& enum_name,
                                       std::vector<std::string>* problems) {
  std::vector<EnumEntry> entries;
  size_t start = header.find("enum class " + enum_name);
  if (start == std::string::npos) {
    problems->push_back("`enum class " + enum_name + "` not found");
    return entries;
  }
  size_t open = header.find('{', start);
  size_t close = header.find("};", open);
  if (open == std::string::npos || close == std::string::npos) {
    problems->push_back(enum_name + " enum body not found");
    return entries;
  }
  for (const std::string& raw : SplitLines(header.substr(open + 1, close - open - 1))) {
    std::string line = StripLine(raw);
    if (line.empty() || line[0] != 'k') {
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      // A continuation of the previous enumerator's comment starting with
      // 'k' would be stripped above; a real enumerator without an explicit
      // value is drift waiting to happen in a wire/doc-visible enum.
      if (line.back() == ',') {
        problems->push_back(enum_name + ": enumerator without explicit value: " + line);
      }
      continue;
    }
    std::string name = StripLine(line.substr(0, eq));
    int value = 0;
    try {
      value = std::stoi(StripLine(line.substr(eq + 1)));
    } catch (...) {
      problems->push_back(enum_name + ": unparseable value in: " + line);
      continue;
    }
    entries.push_back({name.substr(1), value});
  }
  return entries;
}

namespace {

// A reply's fields in wire order: its AUD_FIELDS list, or for the stats
// reply (whose body expands the stats table) the envelope and the table's
// rows.
std::vector<std::string> ReplyFields(const std::string& messages_h,
                                     const std::string& stats_table,
                                     const std::string& name) {
  std::vector<std::string> fields = ParseFieldList(messages_h, name);
  if (fields.empty() &&
      StructBody(messages_h, name).find(kStatsTableMacro) != std::string::npos) {
    fields.push_back(kStatsEnvelope);
    for (std::string& row : ParseStatsTable(stats_table)) {
      fields.push_back(std::move(row));
    }
  }
  return fields;
}

// Every opcode has an Alib entry point: some Alib source names
// `Opcode::k<Name>` as a whole token.
void CheckAlibCoverage(const std::vector<OpcodeTableRow>& opcodes, const std::string& alib_all,
                       std::vector<std::string>* problems) {
  for (const OpcodeTableRow& op : opcodes) {
    if (!ContainsToken(alib_all, "Opcode::k" + op.name)) {
      problems->push_back("alib: no wrapper references Opcode::k" + op.name +
                          " (opcode " + std::to_string(op.value) + ")");
    }
  }
}

// The PROTOCOL.md opcode index lists every opcode with its number and its
// reply type ("—" for none), and lists nothing that is not in the table.
// Only the table under the "Opcode index" heading counts — the doc has
// other numeric tables (event codes, error codes) that are not opcode rows.
void CheckProtocolDoc(const std::vector<OpcodeTableRow>& opcodes, const std::string& doc,
                      std::vector<std::string>* problems) {
  struct DocRow {
    int value;
    std::string reply;
  };
  std::map<std::string, DocRow> rows;  // name -> (opcode number, reply)
  bool in_section = false;
  for (const std::string& raw : SplitLines(doc)) {
    std::string line = StripLine(raw);
    if (!line.empty() && line[0] == '#') {
      if (in_section) {
        break;  // next heading ends the opcode index section
      }
      in_section = line.find("Opcode index") != std::string::npos;
      continue;
    }
    if (!in_section || line.empty() || line[0] != '|') {
      continue;
    }
    // Split "| 1 | CreateLoud | — | ... |" into cells.
    std::vector<std::string> cells;
    size_t pos = 1;
    while (pos < line.size()) {
      size_t next = line.find('|', pos);
      if (next == std::string::npos) {
        break;
      }
      cells.push_back(StripLine(line.substr(pos, next - pos)));
      pos = next + 1;
    }
    if (cells.size() < 3 || cells[0].empty() ||
        cells[0].find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    rows[cells[1]] = {std::stoi(cells[0]), cells[2]};
  }
  for (const OpcodeTableRow& op : opcodes) {
    auto it = rows.find(op.name);
    if (it == rows.end()) {
      problems->push_back("PROTOCOL.md: opcode index has no row for " + op.name +
                          " (opcode " + std::to_string(op.value) + ")");
      continue;
    }
    if (it->second.value != op.value) {
      problems->push_back("PROTOCOL.md: opcode index says " + op.name + " = " +
                          std::to_string(it->second.value) + ", protocol.h says " +
                          std::to_string(op.value));
    }
    const std::string want = op.reply == "void" ? "—" : op.reply;
    if (it->second.reply != want) {
      problems->push_back("PROTOCOL.md: opcode index says " + op.name + " replies " +
                          it->second.reply + ", protocol.h says " + want);
    }
  }
  for (const auto& [name, row] : rows) {
    bool known = std::any_of(opcodes.begin(), opcodes.end(),
                             [&](const OpcodeTableRow& op) { return op.name == name; });
    if (!known) {
      problems->push_back("PROTOCOL.md: opcode index lists unknown opcode " + name +
                          " = " + std::to_string(row.value));
    }
  }
}

// Append-only reply schemas. schema.lock holds one line per
// (struct, version) with the field order as shipped at that version:
//
//   ServerStatsReply 1 stats_version proto_major ...
//
// Rules: the highest locked version of each struct must equal the struct's
// k<Name>Version constant and match the current field list (the stats
// reply's: stats_version, then the stats table's rows) exactly; every
// older locked version must be a strict prefix of the current fields.
// Changing a reply therefore forces appending fields, bumping the version
// constant, and adding (never editing) a lock line.
void CheckSchemaLock(const std::string& lock, const std::string& messages_h,
                     const std::string& stats_table, std::vector<std::string>* problems) {
  struct Locked {
    int version;
    std::vector<std::string> fields;
  };
  std::map<std::string, std::vector<Locked>> locked;
  for (const std::string& raw : SplitLines(lock)) {
    std::string line = StripLine(raw);
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream in(line);
    std::string name;
    int version = -1;
    in >> name >> version;
    Locked entry{version, {}};
    std::string field;
    while (in >> field) {
      entry.fields.push_back(field);
    }
    if (name.empty() || version < 1 || entry.fields.empty()) {
      problems->push_back("schema.lock: malformed line: " + line);
      continue;
    }
    locked[name].push_back(std::move(entry));
  }
  if (locked.empty()) {
    problems->push_back("schema.lock: no schemas locked");
    return;
  }
  for (auto& [name, versions] : locked) {
    std::vector<std::string> current = ReplyFields(messages_h, stats_table, name);
    if (current.empty()) {
      problems->push_back("schema.lock: struct " + name + " not found in messages.h");
      continue;
    }
    std::sort(versions.begin(), versions.end(),
              [](const Locked& a, const Locked& b) { return a.version < b.version; });
    // The struct's version constant, e.g. ServerStatsReply -> kServerStatsVersion.
    std::string base = name;
    if (base.size() > 5 && base.compare(base.size() - 5, 5, "Reply") == 0) {
      base.erase(base.size() - 5);
    }
    std::string constant = "k" + base + "Version";
    int declared = -1;
    const std::string headers = messages_h + "\n" + stats_table;
    size_t pos = headers.find(constant + " =");
    if (pos != std::string::npos) {
      size_t eq = headers.find('=', pos);
      if (eq != std::string::npos) {
        try {
          declared = std::stoi(headers.substr(eq + 1));
        } catch (...) {
        }
      }
    }
    const Locked& head = versions.back();
    if (declared != -1 && declared != head.version) {
      problems->push_back("schema.lock: " + name + " locked at version " +
                          std::to_string(head.version) + " but messages.h declares " +
                          constant + " = " + std::to_string(declared));
    }
    if (head.fields != current) {
      problems->push_back(
          "schema.lock: " + name + " v" + std::to_string(head.version) +
          " field list does not match messages.h — append new fields, bump " +
          constant + " and add a new lock line (never edit old ones)");
    }
    for (size_t i = 0; i + 1 < versions.size(); ++i) {
      const Locked& old = versions[i];
      bool prefix = old.fields.size() < current.size() &&
                    std::equal(old.fields.begin(), old.fields.end(), current.begin());
      if (!prefix) {
        problems->push_back("schema.lock: " + name + " v" +
                            std::to_string(old.version) +
                            " is not a strict prefix of the current fields — " +
                            "reply layouts are append-only");
      }
    }
  }
}

// Versioned replies cannot drift from the docs. Every current
// field of every struct in schema.lock (for the stats reply, every row of
// the stats table) must appear as a whole word in PROTOCOL.md — appending
// a field to a locked reply without documenting it fails the lint the
// same commit.
void CheckStatsDocCoverage(const std::string& lock, const std::string& messages_h,
                           const std::string& stats_table, const std::string& protocol_md,
                           std::vector<std::string>* problems) {
  // EVERY locked struct — whatever earns a schema.lock line is a versioned
  // reply clients decode by prefix, and its current field list (the stats
  // table's rows included) must be documented.
  std::map<std::string, int> newest;
  for (const std::string& raw : SplitLines(lock)) {
    std::string line = StripLine(raw);
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream in(line);
    std::string name;
    int version = -1;
    in >> name >> version;
    if (!name.empty() && version > newest[name]) {
      newest[name] = version;
    }
  }
  for (const auto& [name, version] : newest) {
    for (const std::string& field : ReplyFields(messages_h, stats_table, name)) {
      if (!ContainsToken(protocol_md, field)) {
        problems->push_back("PROTOCOL.md: " + name + " v" + std::to_string(version) +
                            " field " + field + " is not documented");
      }
    }
  }
}

// The LockRank enum (src/common/lock_rank.h) and the DESIGN.md
// lock table must agree — same enumerators, same numeric ranks, no extras
// on either side. The table is the row set under the header
// `| Lock | Guards | LockRank | Rank |`; the LockRank cell carries the
// backticked enumerator, the Rank cell its numeric value. Together with the
// runtime checker this closes the loop: code ranks are executed, and the
// doc cannot drift from the code.
void CheckLockRanks(const std::string& lock_rank_h, const std::string& design_md,
                    std::vector<std::string>* problems) {
  std::vector<std::string> enum_problems;
  std::vector<EnumEntry> entries =
      ParseValuedEnum(lock_rank_h, "LockRank", &enum_problems);
  for (const std::string& p : enum_problems) {
    problems->push_back("lock_rank.h: " + p);
  }

  // Parse the doc table: header row -> following `|` rows.
  std::map<std::string, int> rows;  // enumerator (with 'k') -> rank
  bool in_table = false;
  for (const std::string& raw : SplitLines(design_md)) {
    std::string line = StripLine(raw);
    if (line.empty() || line[0] != '|') {
      if (in_table) {
        break;  // first non-row line ends the table
      }
      continue;
    }
    std::vector<std::string> cells;
    size_t pos = 1;
    while (pos < line.size()) {
      size_t next = line.find('|', pos);
      if (next == std::string::npos) {
        break;
      }
      cells.push_back(StripLine(line.substr(pos, next - pos)));
      pos = next + 1;
    }
    if (!in_table) {
      in_table = cells.size() == 4 && cells[2] == "LockRank" && cells[3] == "Rank";
      continue;
    }
    if (cells.size() != 4 || cells[2].find('-') == 0) {
      continue;  // separator row
    }
    // Strip backticks from the LockRank cell.
    std::string name = cells[2];
    name.erase(std::remove(name.begin(), name.end(), '`'), name.end());
    if (name.empty() || name[0] != 'k') {
      problems->push_back("DESIGN.md: lock table LockRank cell is not a `k...` "
                          "enumerator: " + cells[2]);
      continue;
    }
    int rank = -1;
    try {
      rank = std::stoi(cells[3]);
    } catch (...) {
      problems->push_back("DESIGN.md: lock table rank for " + name +
                          " is not a number: " + cells[3]);
      continue;
    }
    if (rows.count(name) != 0) {
      problems->push_back("DESIGN.md: lock table lists " + name + " twice");
      continue;
    }
    rows[name] = rank;
  }
  if (rows.empty()) {
    problems->push_back(
        "DESIGN.md: lock table (header `| Lock | Guards | LockRank | Rank |`) "
        "not found or empty");
    return;
  }

  for (const EnumEntry& e : entries) {
    if (e.name == "Unranked") {
      continue;  // the opt-out sentinel is not a real lock
    }
    auto it = rows.find("k" + e.name);
    if (it == rows.end()) {
      problems->push_back("DESIGN.md: lock table has no row for k" + e.name +
                          " (rank " + std::to_string(e.value) + ")");
    } else if (it->second != e.value) {
      problems->push_back("DESIGN.md: lock table says k" + e.name + " = " +
                          std::to_string(it->second) + ", lock_rank.h says " +
                          std::to_string(e.value));
    }
  }
  for (const auto& [name, rank] : rows) {
    bool known = std::any_of(entries.begin(), entries.end(), [&](const EnumEntry& e) {
      return "k" + e.name == name;
    });
    if (!known) {
      problems->push_back("DESIGN.md: lock table lists unknown rank " + name +
                          " = " + std::to_string(rank));
    }
  }
}

// Error-code drift. The ErrorCode enum (status.h), the
// ErrorCodeName switch (status.cc) and the PROTOCOL.md "Error codes"
// paragraph (`Name(N)` list) must describe the same code set: every
// enumerator has a name-table case returning exactly its enumerator name,
// and every code except Ok is documented with its wire value.
void CheckErrorCodes(const std::string& status_h, const std::string& status_cc,
                     const std::string& protocol_md,
                     std::vector<std::string>* problems) {
  std::vector<std::string> enum_problems;
  std::vector<EnumEntry> entries =
      ParseValuedEnum(status_h, "ErrorCode", &enum_problems);
  for (const std::string& p : enum_problems) {
    problems->push_back("status.h: " + p);
  }

  // Parse the ErrorCodeName switch: `case ErrorCode::kX:` ... `return "Y";`.
  std::map<std::string, std::string> cases;  // kX -> "Y"
  size_t fn = status_cc.find("ErrorCodeName");
  if (fn == std::string::npos) {
    problems->push_back("status.cc: ErrorCodeName not found");
  } else {
    std::string pending;
    for (const std::string& raw : SplitLines(status_cc.substr(fn))) {
      std::string line = StripLine(raw);
      size_t c = line.find("case ErrorCode::");
      if (c != std::string::npos) {
        size_t begin = c + 16;
        size_t end = begin;
        while (end < line.size() && IsIdentChar(line[end])) {
          ++end;
        }
        pending = line.substr(begin, end - begin);
        line = line.substr(end);  // `case X: return "Y";` on one line
      }
      size_t r = line.find("return \"");
      if (r != std::string::npos && !pending.empty()) {
        size_t q2 = line.find('"', r + 8);
        if (q2 != std::string::npos) {
          cases[pending] = line.substr(r + 8, q2 - r - 8);
        }
        pending.clear();
      }
      if (line.find('}') != std::string::npos && line.find('{') == std::string::npos &&
          !cases.empty() && pending.empty() && line == "}") {
        break;  // end of function body
      }
    }
  }
  for (const EnumEntry& e : entries) {
    auto it = cases.find("k" + e.name);
    if (it == cases.end()) {
      problems->push_back("status.cc: ErrorCodeName has no case for k" + e.name);
    } else if (it->second != e.name) {
      problems->push_back("status.cc: ErrorCodeName maps k" + e.name + " to \"" +
                          it->second + "\"");
    }
  }
  for (const auto& [name, text] : cases) {
    bool known = std::any_of(entries.begin(), entries.end(), [&](const EnumEntry& e) {
      return "k" + e.name == name;
    });
    if (!known) {
      problems->push_back("status.cc: ErrorCodeName has a case for unknown code " +
                          name);
    }
  }

  // The PROTOCOL.md error-code paragraph: backticked `Name(N)` pairs from
  // the "Error codes" marker to the end of the paragraph. (Opcodes use the
  // same notation elsewhere in the doc, hence the scoping.)
  size_t marker = protocol_md.find("Error codes");
  if (marker == std::string::npos) {
    problems->push_back("PROTOCOL.md: \"Error codes\" paragraph not found");
    return;
  }
  size_t para_end = protocol_md.find("\n\n", marker);
  std::string para = protocol_md.substr(
      marker, para_end == std::string::npos ? std::string::npos : para_end - marker);
  std::map<std::string, int> documented;
  for (size_t pos = 0; (pos = para.find('`', pos)) != std::string::npos;) {
    size_t close = para.find('`', pos + 1);
    if (close == std::string::npos) {
      break;
    }
    std::string span = para.substr(pos + 1, close - pos - 1);
    size_t open_paren = span.find('(');
    size_t close_paren = span.find(')');
    if (open_paren != std::string::npos && close_paren == span.size() - 1 &&
        open_paren > 0) {
      std::string name = span.substr(0, open_paren);
      std::string digits = span.substr(open_paren + 1, close_paren - open_paren - 1);
      if (!digits.empty() &&
          digits.find_first_not_of("0123456789") == std::string::npos) {
        documented[name] = std::stoi(digits);
      }
    }
    pos = close + 1;
  }
  for (const EnumEntry& e : entries) {
    if (e.name == "Ok") {
      continue;  // success is not an error code the doc lists
    }
    auto it = documented.find(e.name);
    if (it == documented.end()) {
      problems->push_back("PROTOCOL.md: error code " + e.name + "(" +
                          std::to_string(e.value) + ") is not documented");
    } else if (it->second != e.value) {
      problems->push_back("PROTOCOL.md: error codes say " + e.name + " = " +
                          std::to_string(it->second) + ", status.h says " +
                          std::to_string(e.value));
    }
  }
  for (const auto& [name, value] : documented) {
    bool known = std::any_of(entries.begin(), entries.end(), [&](const EnumEntry& e) {
      return e.name == name;
    });
    if (!known) {
      problems->push_back("PROTOCOL.md: error codes list unknown code " + name +
                          "(" + std::to_string(value) + ")");
    }
  }
}

// `--flag` string literals in a tool's source, deduplicated. The bare `--`
// separator and template fragments are skipped.
std::vector<std::string> ExtractCliFlags(const std::string& tool_cc) {
  std::vector<std::string> flags;
  for (size_t pos = 0; (pos = tool_cc.find("\"--", pos)) != std::string::npos;
       ++pos) {
    size_t close = tool_cc.find('"', pos + 1);
    if (close == std::string::npos) {
      break;
    }
    std::string flag = tool_cc.substr(pos + 1, close - pos - 1);
    std::string body = flag.substr(2);
    if (body.empty() ||
        body.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789-") !=
            std::string::npos) {
      continue;
    }
    if (std::find(flags.begin(), flags.end(), flag) == flags.end()) {
      flags.push_back(flag);
    }
  }
  return flags;
}

// True if `--flag` appears in the doc not embedded in a longer flag.
bool ContainsFlag(const std::string& doc, const std::string& flag) {
  for (size_t pos = 0; (pos = doc.find(flag, pos)) != std::string::npos;
       pos += flag.size()) {
    bool left_ok = pos == 0 || doc[pos - 1] != '-';
    size_t after = pos + flag.size();
    bool right_ok = after >= doc.size() ||
                    (!IsIdentChar(doc[after]) && doc[after] != '-');
    if (left_ok && right_ok) {
      return true;
    }
  }
  return false;
}

// The `--flag`s in the first column of README's "| `tool` flag |" table,
// from its header row to the first line that is not a table row. Empty
// when README has no such table.
std::vector<std::string> FlagTableFlags(const std::string& tool, const std::string& readme) {
  std::vector<std::string> flags;
  const size_t table = readme.find("| `" + tool + "` flag |");
  if (table == std::string::npos) {
    return flags;
  }
  for (const std::string& row : SplitLines(readme.substr(table))) {
    if (row.empty() || row[0] != '|') {
      break;
    }
    const std::string cell = row.substr(1, row.find('|', 1) - 1);
    for (size_t pos = cell.find("--"); pos != std::string::npos;
         pos = cell.find("--", pos + 2)) {
      // A flag starts with a letter; the table's `|---|` rule does not.
      if (pos + 2 >= cell.size() || std::islower(static_cast<unsigned char>(cell[pos + 2])) == 0 ||
          (pos > 0 && cell[pos - 1] == '-')) {
        continue;
      }
      const size_t end = cell.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789-", pos + 2);
      flags.push_back(cell.substr(pos, end == std::string::npos ? end : end - pos));
    }
  }
  return flags;
}

// CLI flag documentation, both ways. Every `--flag` literal in audiond.cc,
// audioctl.cc, and audioload.cc must appear in README.md — a flag shipped
// without a line of documentation fails the lint the same commit — and
// every flag a row of the tool's README flag table names must be one the
// tool parses, so a deleted flag cannot stay documented.
void CheckCliDocCoverage(const std::string& tool, const std::string& tool_cc,
                         const std::string& readme,
                         std::vector<std::string>* problems) {
  const std::vector<std::string> parsed = ExtractCliFlags(tool_cc);
  for (const std::string& flag : parsed) {
    if (!ContainsFlag(readme, flag)) {
      problems->push_back("README.md: " + tool + " flag " + flag +
                          " is undocumented");
    }
  }
  for (const std::string& flag : FlagTableFlags(tool, readme)) {
    if (std::find(parsed.begin(), parsed.end(), flag) == parsed.end()) {
      problems->push_back("README.md: the " + tool + " flag table names " + flag + ", which " +
                          tool + ".cc does not parse");
    }
  }
}

}  // namespace

std::vector<std::string> LintTree(const std::map<std::string, std::string>& files) {
  std::vector<std::string> problems;
  for (const char* required : kRequiredFiles) {
    if (files.find(required) == files.end()) {
      problems.push_back(std::string("missing input file: ") + required);
    }
  }
  if (!problems.empty()) {
    return problems;
  }

  std::vector<OpcodeTableRow> opcodes = ParseOpcodeTable(*Find(files, "protocol.h"), &problems);
  CheckAlibCoverage(opcodes,
                    *Find(files, "alib.h") + *Find(files, "alib.cc") +
                        *Find(files, "requests.cc"),
                    &problems);
  CheckProtocolDoc(opcodes, *Find(files, "PROTOCOL.md"), &problems);
  CheckSchemaLock(*Find(files, "schema.lock"), *Find(files, "messages.h"),
                  *Find(files, "server_stats_fields.h"), &problems);
  CheckStatsDocCoverage(*Find(files, "schema.lock"), *Find(files, "messages.h"),
                        *Find(files, "server_stats_fields.h"), *Find(files, "PROTOCOL.md"),
                        &problems);
  CheckLockRanks(*Find(files, "lock_rank.h"), *Find(files, "DESIGN.md"), &problems);
  CheckErrorCodes(*Find(files, "status.h"), *Find(files, "status.cc"),
                  *Find(files, "PROTOCOL.md"), &problems);
  CheckCliDocCoverage("audiond", *Find(files, "audiond.cc"),
                      *Find(files, "README.md"), &problems);
  CheckCliDocCoverage("audioctl", *Find(files, "audioctl.cc"),
                      *Find(files, "README.md"), &problems);
  CheckCliDocCoverage("audioload", *Find(files, "audioload.cc"),
                      *Find(files, "README.md"), &problems);
  return problems;
}

}  // namespace audlint
}  // namespace aud
