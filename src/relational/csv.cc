#include "relational/csv.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace eid {

Result<std::vector<std::vector<std::string>>> ParseCsv(const std::string& text,
                                                       char separator) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  size_t i = 0;
  const size_t n = text.size();

  auto end_field = [&]() {
    fields.push_back(field);
    field.clear();
    field_started = false;
  };
  auto end_record = [&]() {
    end_field();
    records.push_back(fields);
    fields.clear();
  };

  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field += '"';
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field += c;
      ++i;
      continue;
    }
    if (c == '"' && !field_started) {
      in_quotes = true;
      field_started = true;
      ++i;
      continue;
    }
    if (c == '"') {
      return Status::InvalidArgument(
          "CSV: quote inside unquoted field at offset " + std::to_string(i));
    }
    if (c == separator) {
      end_field();
      ++i;
      continue;
    }
    if (c == '\r') {
      if (i + 1 < n && text[i + 1] == '\n') {
        end_record();
        i += 2;
        continue;
      }
      end_record();
      ++i;
      continue;
    }
    if (c == '\n') {
      end_record();
      ++i;
      continue;
    }
    field += c;
    field_started = true;
    ++i;
  }
  if (in_quotes) {
    return Status::InvalidArgument("CSV: unterminated quoted field");
  }
  // Trailing record without final newline.
  if (field_started || !field.empty() || !fields.empty()) {
    end_record();
  }
  return records;
}

namespace {

Result<Relation> BuildFromRecords(
    const std::vector<std::vector<std::string>>& records,
    const std::string& name, const Schema* typed_schema) {
  if (records.empty()) {
    return Status::InvalidArgument("CSV: no header record");
  }
  const std::vector<std::string>& header = records.front();
  Schema schema;
  if (typed_schema != nullptr) {
    if (typed_schema->size() != header.size()) {
      return Status::InvalidArgument("CSV: header arity != schema arity");
    }
    for (size_t i = 0; i < header.size(); ++i) {
      if (typed_schema->attribute(i).name != header[i]) {
        return Status::InvalidArgument("CSV: header name '" + header[i] +
                                       "' != schema name '" +
                                       typed_schema->attribute(i).name + "'");
      }
    }
    schema = *typed_schema;
  } else {
    // Header text is input: a repeated name would abort Schema's
    // constructor, and an empty one the correspondence built over it.
    for (size_t i = 0; i < header.size(); ++i) {
      const std::string column = "CSV: header column " + std::to_string(i + 1);
      if (header[i].empty()) {
        return Status::InvalidArgument(column + " has an empty name");
      }
      if (std::find(header.begin(), header.begin() + i, header[i]) !=
          header.begin() + i) {
        return Status::InvalidArgument(column + " repeats the name '" +
                                       header[i] + "'");
      }
    }
    schema = Schema::OfStrings(header);
  }
  Relation out(name, schema);
  for (size_t r = 1; r < records.size(); ++r) {
    const std::vector<std::string>& rec = records[r];
    if (rec.size() != schema.size()) {
      return Status::InvalidArgument(
          "CSV: record " + std::to_string(r) + " has " +
          std::to_string(rec.size()) + " fields, expected " +
          std::to_string(schema.size()));
    }
    Row row;
    row.reserve(rec.size());
    for (size_t i = 0; i < rec.size(); ++i) {
      if (rec[i].empty() || rec[i] == "null") {
        row.push_back(Value::Null());
        continue;
      }
      EID_ASSIGN_OR_RETURN(Value v,
                           Value::Parse(rec[i], schema.attribute(i).type));
      row.push_back(std::move(v));
    }
    EID_RETURN_IF_ERROR(out.Insert(std::move(row)));
  }
  return out;
}

std::string EscapeField(const std::string& field, char separator) {
  bool needs_quotes = field.find(separator) != std::string::npos ||
                      field.find('"') != std::string::npos ||
                      field.find('\n') != std::string::npos ||
                      field.find('\r') != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<Relation> ReadCsv(const std::string& text, const std::string& name,
                         char separator) {
  EID_ASSIGN_OR_RETURN(auto records, ParseCsv(text, separator));
  return BuildFromRecords(records, name, nullptr);
}

Result<Relation> ReadCsvTyped(const std::string& text, const std::string& name,
                              const Schema& schema, char separator) {
  EID_ASSIGN_OR_RETURN(auto records, ParseCsv(text, separator));
  return BuildFromRecords(records, name, &schema);
}

std::string WriteCsv(const Relation& relation, char separator) {
  std::string out;
  const Schema& schema = relation.schema();
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) out += separator;
    out += EscapeField(schema.attribute(i).name, separator);
  }
  out += '\n';
  for (const Row& row : relation.rows()) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += separator;
      out += EscapeField(row[i].ToString(), separator);
    }
    out += '\n';
  }
  return out;
}

Result<Relation> ReadCsvFile(const std::string& path, const std::string& name,
                             char separator) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open CSV file '" + path + "'");
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return ReadCsv(buf.str(), name, separator);
}

Status WriteCsvFile(const Relation& relation, const std::string& path,
                    char separator) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  out << WriteCsv(relation, separator);
  return Status::Ok();
}

}  // namespace eid
