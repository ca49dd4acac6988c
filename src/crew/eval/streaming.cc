#include "crew/eval/streaming.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <string_view>
#include <utility>
#include <variant>

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif

#include "crew/common/logging.h"
#include "crew/common/rng.h"
#include "crew/common/string_util.h"
#include "crew/explain/serialize.h"

namespace crew {
namespace {

// ---------------------------------------------------------------------------
// Cell codec: every ExplainerAggregate and InstanceEvaluation field, named
// once with its JSON key. The checkpoint writer (CellToJsonl), the
// checkpoint reader (ParseCellRecord) and the --json aggregate writer
// (ExperimentResultToJson) all walk these lists, so a new metric is one
// line here and cannot drift between the three.
// ---------------------------------------------------------------------------

template <typename T>
struct Field {
  const char* key;
  std::variant<std::string T::*, bool T::*, int T::*, double T::*,
               FlipSetResult T::*, std::vector<double> T::*>
      member;
};

// Declaration order. The aggregate is checkpointed verbatim (rather than
// re-reduced on restore) so a restored cell is bit-identical to the
// freshly computed one even if the reduction ever changes between
// versions. "name" stays first: the --json document skips it, because a
// cell there is already labelled by its variant.
constexpr Field<ExplainerAggregate> kAggregateFields[] = {
    {"name", &ExplainerAggregate::name},
    {"instances", &ExplainerAggregate::instances},
    {"aopc", &ExplainerAggregate::aopc},
    {"comprehensiveness_at_1", &ExplainerAggregate::comprehensiveness_at_1},
    {"comprehensiveness_at_3", &ExplainerAggregate::comprehensiveness_at_3},
    {"sufficiency_at_1", &ExplainerAggregate::sufficiency_at_1},
    {"sufficiency_at_3", &ExplainerAggregate::sufficiency_at_3},
    {"comprehensiveness_budget5",
     &ExplainerAggregate::comprehensiveness_budget5},
    {"decision_flip_rate", &ExplainerAggregate::decision_flip_rate},
    {"insertion_aopc", &ExplainerAggregate::insertion_aopc},
    {"flip_set_rate", &ExplainerAggregate::flip_set_rate},
    {"flip_set_units", &ExplainerAggregate::flip_set_units},
    {"flip_set_tokens", &ExplainerAggregate::flip_set_tokens},
    {"total_units", &ExplainerAggregate::total_units},
    {"effective_units", &ExplainerAggregate::effective_units},
    {"words_per_unit", &ExplainerAggregate::words_per_unit},
    {"semantic_coherence", &ExplainerAggregate::semantic_coherence},
    {"attribute_purity", &ExplainerAggregate::attribute_purity},
    {"cluster_coherence", &ExplainerAggregate::cluster_coherence},
    {"cluster_silhouette", &ExplainerAggregate::cluster_silhouette},
    {"mean_chosen_k", &ExplainerAggregate::mean_chosen_k},
    {"stability", &ExplainerAggregate::stability},
    {"surrogate_r2", &ExplainerAggregate::surrogate_r2},
    {"runtime_ms", &ExplainerAggregate::runtime_ms},
};
static_assert(std::string_view(kAggregateFields[0].key) == "name");

// Benches re-reduce instances after the grid runs (match/non-match splits,
// cross-dataset summaries, paired bootstrap over per-instance AOPC), so the
// checkpoint must carry full per-instance fidelity — an aggregate-only
// record could not reproduce a byte-identical --json document on resume.
constexpr Field<InstanceEvaluation> kInstanceFields[] = {
    {"index", &InstanceEvaluation::index},
    {"evaluated", &InstanceEvaluation::evaluated},
    {"predicted_match", &InstanceEvaluation::predicted_match},
    {"aopc", &InstanceEvaluation::aopc},
    {"comprehensiveness_at_1", &InstanceEvaluation::comprehensiveness_at_1},
    {"comprehensiveness_at_3", &InstanceEvaluation::comprehensiveness_at_3},
    {"sufficiency_at_1", &InstanceEvaluation::sufficiency_at_1},
    {"sufficiency_at_3", &InstanceEvaluation::sufficiency_at_3},
    {"comprehensiveness_budget", &InstanceEvaluation::comprehensiveness_budget},
    {"decision_flip", &InstanceEvaluation::decision_flip},
    {"insertion_aopc", &InstanceEvaluation::insertion_aopc},
    {"flip_set", &InstanceEvaluation::flip_set},
    {"curve", &InstanceEvaluation::curve},
    {"total_units", &InstanceEvaluation::total_units},
    {"effective_units", &InstanceEvaluation::effective_units},
    {"words_per_unit", &InstanceEvaluation::words_per_unit},
    {"semantic_coherence", &InstanceEvaluation::semantic_coherence},
    {"attribute_purity", &InstanceEvaluation::attribute_purity},
    {"has_cluster_stats", &InstanceEvaluation::has_cluster_stats},
    {"cluster_coherence", &InstanceEvaluation::cluster_coherence},
    {"cluster_silhouette", &InstanceEvaluation::cluster_silhouette},
    {"chosen_k", &InstanceEvaluation::chosen_k},
    {"stability", &InstanceEvaluation::stability},
    {"surrogate_r2", &InstanceEvaluation::surrogate_r2},
    {"runtime_ms", &InstanceEvaluation::runtime_ms},
};

// ---------------------------------------------------------------------------
// Writing: one AppendValue overload per type, so each record below is a
// list of keys and values.
// ---------------------------------------------------------------------------

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kDuration:
      return "duration";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "counter";
}

Result<MetricKind> MetricKindFromName(const std::string& name) {
  if (name == "counter") return MetricKind::kCounter;
  if (name == "duration") return MetricKind::kDuration;
  if (name == "histogram") return MetricKind::kHistogram;
  return Status::DataLoss("unknown metric kind: " + name);
}

template <typename T>
void AppendFields(const T& obj, std::span<const Field<T>> fields,
                  std::string* out);

void AppendValue(const std::string& v, std::string* out) {
  *out += '"';
  *out += JsonEscape(v);
  *out += '"';
}
void AppendValue(bool v, std::string* out) { *out += v ? "true" : "false"; }
void AppendValue(int v, std::string* out) { *out += std::to_string(v); }
void AppendValue(std::int64_t v, std::string* out) {
  *out += std::to_string(v);
}
void AppendValue(double v, std::string* out) { *out += JsonDouble(v); }

void AppendValue(const FlipSetResult& v, std::string* out) {
  *out += "{\"flipped\":";
  AppendValue(v.flipped, out);
  *out += ",\"units_removed\":";
  AppendValue(v.units_removed, out);
  *out += ",\"tokens_removed\":";
  AppendValue(v.tokens_removed, out);
  *out += '}';
}

void AppendValue(const ExplainerAggregate& v, std::string* out) {
  AppendFields<ExplainerAggregate>(v, kAggregateFields, out);
}

void AppendValue(const InstanceEvaluation& v, std::string* out) {
  AppendFields<InstanceEvaluation>(v, kInstanceFields, out);
}

// The same object in the checkpoint line and the --json document.
void AppendValue(const ScoringStats& v, std::string* out) {
  *out += "{\"predictions\":";
  AppendValue(v.predictions, out);
  *out += ",\"batches\":";
  AppendValue(v.batches, out);
  *out += ",\"materialize_ms\":";
  AppendValue(v.materialize_ms, out);
  *out += ",\"predict_ms\":";
  AppendValue(v.predict_ms, out);
  *out += '}';
}

void AppendValue(const MetricEntry& v, std::string* out) {
  *out += "{\"name\":";
  AppendValue(v.name, out);
  *out += ",\"kind\":\"";
  *out += MetricKindName(v.kind);
  *out += "\",\"count\":";
  AppendValue(v.count, out);
  *out += ",\"ms\":";
  AppendValue(v.total_ms, out);
  *out += '}';
}

// A named value (param, metric, note) as the checkpoint's [name, value].
template <typename V>
void AppendValue(const std::pair<std::string, V>& v, std::string* out) {
  *out += '[';
  AppendValue(v.first, out);
  *out += ',';
  AppendValue(v.second, out);
  *out += ']';
}

template <typename V>
void AppendValue(const std::vector<V>& v, std::string* out) {
  *out += '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) *out += ',';
    AppendValue(v[i], out);
  }
  *out += ']';
}

// Named values as the --json document's {"name":value,...} object.
template <typename V>
void AppendObject(const std::vector<std::pair<std::string, V>>& v,
                  std::string* out) {
  *out += '{';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) *out += ',';
    AppendValue(v[i].first, out);
    *out += ':';
    AppendValue(v[i].second, out);
  }
  *out += '}';
}

template <typename T>
void AppendFields(const T& obj, std::span<const Field<T>> fields,
                  std::string* out) {
  *out += '{';
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) *out += ',';
    *out += '"';
    *out += fields[i].key;
    *out += "\":";
    std::visit([&](auto member) { AppendValue(obj.*member, out); },
               fields[i].member);
  }
  *out += '}';
}

// ---------------------------------------------------------------------------
// Reading: a minimal recursive-descent JSON parser. The stream is
// machine-written by this file, so the parser only needs to be strict and
// small, not featureful. Object field order is preserved (vector, not map).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const char* key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    CREW_RETURN_IF_ERROR(ParseValue(&value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Fail(const std::string& why) const {
    return Status::DataLoss("json parse error at byte " +
                            std::to_string(pos_) + ": " + why);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseLiteral(const char* literal) {
    const size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) != 0) {
      return Fail(std::string("expected '") + literal + "'");
    }
    pos_ += len;
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape digit");
            }
          }
          // JsonEscape only emits \u00xx (control bytes); decode the BMP
          // range anyway so round-tripping foreign documents works.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    // crew-lint: allow(lenient-number-parse): a scanner, not a field parse:
    // strtod's end pointer marks where the JSON number token stops.
    const double v = std::strtod(begin, &end);
    if (end == begin) return Fail("expected number");
    pos_ += static_cast<size_t>(end - begin);
    out->type = JsonValue::Type::kNumber;
    out->number = v;
    return Status::Ok();
  }

  Status ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (c == 't') {
      CREW_RETURN_IF_ERROR(ParseLiteral("true"));
      out->type = JsonValue::Type::kBool;
      out->bool_value = true;
      return Status::Ok();
    }
    if (c == 'f') {
      CREW_RETURN_IF_ERROR(ParseLiteral("false"));
      out->type = JsonValue::Type::kBool;
      out->bool_value = false;
      return Status::Ok();
    }
    if (c == 'n') {
      CREW_RETURN_IF_ERROR(ParseLiteral("null"));
      out->type = JsonValue::Type::kNull;
      return Status::Ok();
    }
    return ParseNumber(out);
  }

  Status ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    if (!Consume('[')) return Fail("expected '['");
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      JsonValue element;
      CREW_RETURN_IF_ERROR(ParseValue(&element));
      out->array.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return Status::Ok();
      if (!Consume(',')) return Fail("expected ',' or ']'");
    }
  }

  Status ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    if (!Consume('{')) return Fail("expected '{'");
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      std::string key;
      CREW_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      CREW_RETURN_IF_ERROR(ParseValue(&value));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::Ok();
      if (!Consume(',')) return Fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// -- typed field extraction (missing/mistyped fields are DataLoss) ---------

template <typename V>
Status Get(const JsonValue& obj, const char* key, V* out);
template <typename T>
Status ReadFields(const JsonValue& v, std::span<const Field<T>> fields,
                  T* out);

Status TypeError(const char* key, const char* what) {
  return Status::DataLoss(std::string("field is not ") + what + ": " + key);
}

Status ReadValue(const JsonValue& v, const char* key, std::string* out) {
  if (v.type != JsonValue::Type::kString) return TypeError(key, "a string");
  *out = v.str;
  return Status::Ok();
}

Status ReadValue(const JsonValue& v, const char* key, bool* out) {
  if (v.type != JsonValue::Type::kBool) return TypeError(key, "a bool");
  *out = v.bool_value;
  return Status::Ok();
}

// Numbers serialized as null are NaN (JSON cannot express non-finite
// doubles); anything else must be a plain number.
Status ReadValue(const JsonValue& v, const char* key, double* out) {
  if (v.type == JsonValue::Type::kNull) {
    *out = std::numeric_limits<double>::quiet_NaN();
    return Status::Ok();
  }
  if (v.type != JsonValue::Type::kNumber) return TypeError(key, "a number");
  *out = v.number;
  return Status::Ok();
}

// Integers must be finite, integral and in range before the cast:
// converting any other double to an integer is undefined behaviour, and
// the line is outside input.
template <typename I>
Status ReadInteger(const JsonValue& v, const char* key, I* out) {
  const double lo = static_cast<double>(std::numeric_limits<I>::min());
  const double d = v.number;
  if (v.type != JsonValue::Type::kNumber || !(d >= lo && d < -lo) ||
      std::trunc(d) != d) {
    return TypeError(key, "an integer");
  }
  *out = static_cast<I>(d);
  return Status::Ok();
}

Status ReadValue(const JsonValue& v, const char* key, int* out) {
  return ReadInteger(v, key, out);
}

Status ReadValue(const JsonValue& v, const char* key, std::int64_t* out) {
  return ReadInteger(v, key, out);
}

Status ReadValue(const JsonValue& v, const char* key, FlipSetResult* out) {
  if (v.type != JsonValue::Type::kObject) return TypeError(key, "an object");
  CREW_RETURN_IF_ERROR(Get(v, "flipped", &out->flipped));
  CREW_RETURN_IF_ERROR(Get(v, "units_removed", &out->units_removed));
  return Get(v, "tokens_removed", &out->tokens_removed);
}

Status ReadValue(const JsonValue& v, const char* key,
                 ExplainerAggregate* out) {
  (void)key;
  return ReadFields<ExplainerAggregate>(v, kAggregateFields, out);
}

Status ReadValue(const JsonValue& v, const char* key,
                 InstanceEvaluation* out) {
  (void)key;
  return ReadFields<InstanceEvaluation>(v, kInstanceFields, out);
}

Status ReadValue(const JsonValue& v, const char* key, ScoringStats* out) {
  if (v.type != JsonValue::Type::kObject) return TypeError(key, "an object");
  CREW_RETURN_IF_ERROR(Get(v, "predictions", &out->predictions));
  CREW_RETURN_IF_ERROR(Get(v, "batches", &out->batches));
  CREW_RETURN_IF_ERROR(Get(v, "materialize_ms", &out->materialize_ms));
  return Get(v, "predict_ms", &out->predict_ms);
}

Status ReadValue(const JsonValue& v, const char* key, MetricEntry* out) {
  if (v.type != JsonValue::Type::kObject) return TypeError(key, "an object");
  CREW_RETURN_IF_ERROR(Get(v, "name", &out->name));
  std::string kind;
  CREW_RETURN_IF_ERROR(Get(v, "kind", &kind));
  Result<MetricKind> parsed_kind = MetricKindFromName(kind);
  if (!parsed_kind.ok()) return parsed_kind.status();
  out->kind = *parsed_kind;
  CREW_RETURN_IF_ERROR(Get(v, "count", &out->count));
  return Get(v, "ms", &out->total_ms);
}

template <typename V>
Status ReadValue(const JsonValue& v, const char* key,
                 std::pair<std::string, V>* out) {
  if (v.type != JsonValue::Type::kArray || v.array.size() != 2) {
    return TypeError(key, "a [name, value] pair");
  }
  CREW_RETURN_IF_ERROR(ReadValue(v.array[0], key, &out->first));
  return ReadValue(v.array[1], key, &out->second);
}

template <typename V>
Status ReadValue(const JsonValue& v, const char* key, std::vector<V>* out) {
  if (v.type != JsonValue::Type::kArray) return TypeError(key, "an array");
  out->assign(v.array.size(), V());
  for (size_t i = 0; i < v.array.size(); ++i) {
    CREW_RETURN_IF_ERROR(ReadValue(v.array[i], key, &(*out)[i]));
  }
  return Status::Ok();
}

template <typename T>
Status ReadFields(const JsonValue& v, std::span<const Field<T>> fields,
                  T* out) {
  if (v.type != JsonValue::Type::kObject) {
    return Status::DataLoss("record entry is not an object");
  }
  for (const Field<T>& field : fields) {
    CREW_RETURN_IF_ERROR(std::visit(
        [&](auto member) { return Get(v, field.key, &(out->*member)); },
        field.member));
  }
  return Status::Ok();
}

template <typename V>
Status Get(const JsonValue& obj, const char* key, V* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    return Status::DataLoss(std::string("missing field: ") + key);
  }
  return ReadValue(*v, key, out);
}

Status FileError(const char* what, const std::string& path) {
  return Status::DataLoss(std::string(what) + ": " + path);
}

// fflush + kernel-level sync: after this returns OK the line survives a
// process kill (the crash mode the fault injector simulates; a power cut
// additionally needs the directory entry synced, which is out of scope).
Status FlushAndSync(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0) return FileError("flush failed", path);
#ifdef _WIN32
  if (_commit(_fileno(f)) != 0) return FileError("sync failed", path);
#else
  if (fsync(fileno(f)) != 0) return FileError("sync failed", path);
#endif
  return Status::Ok();
}

Status WriteLine(std::FILE* f, const std::string& line,
                 const std::string& path) {
  if (std::fwrite(line.data(), 1, line.size(), f) != line.size() ||
      std::fputc('\n', f) == EOF) {
    return FileError("short write", path);
  }
  return FlushAndSync(f, path);
}

// Run parameters a checkpoint must share with the run resuming it. The
// thread count is excluded: results are bit-identical at any thread count.
std::vector<std::pair<std::string, std::string>> RunParams(
    const std::vector<std::pair<std::string, std::string>>& params) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& param : params) {
    if (param.first != "threads") out.push_back(param);
  }
  return out;
}

bool SameRunParams(
    const std::vector<std::pair<std::string, std::string>>& a,
    const std::vector<std::pair<std::string, std::string>>& b) {
  return RunParams(a) == RunParams(b);
}

// "experiment 'name' (k=v, ...)" for refusal messages.
std::string ConfigLabel(
    const std::string& experiment,
    const std::vector<std::pair<std::string, std::string>>& params) {
  std::string out = "experiment '";
  out += experiment;
  out += "' (";
  for (size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out += ", ";
    out += params[i].first;
    out += '=';
    out += params[i].second;
  }
  out += ')';
  return out;
}

}  // namespace

std::string CellKey(const std::string& scope, const std::string& dataset,
                    const std::string& variant) {
  std::string key;
  if (!scope.empty()) {
    key += scope;
    key += '|';
  }
  key += dataset;
  key += '|';
  key += variant;
  return key;
}

std::string HeaderToJsonl(const ExperimentResult& header) {
  // Built with += throughout: GCC 12's -Wrestrict false positive
  // (PR105651) fires on `"literal" + std::to_string(...)` chains.
  std::string out = "{\"v\":";
  out += std::to_string(kCellSchemaVersion);
  out += ",\"kind\":\"header\",\"experiment\":";
  AppendValue(header.name, &out);
  out += ",\"params\":";
  AppendValue(header.params, &out);
  out += '}';
  return out;
}

std::string CellToJsonl(const std::string& scope, const ExperimentCell& cell) {
  std::string out = "{\"v\":";  // += throughout; see HeaderToJsonl
  out += std::to_string(kCellSchemaVersion);
  out += ",\"kind\":\"cell\",\"scope\":";
  AppendValue(scope, &out);
  out += ",\"dataset\":";
  AppendValue(cell.dataset, &out);
  out += ",\"variant\":";
  AppendValue(cell.variant, &out);
  out += ",\"aggregate\":";
  AppendValue(cell.aggregate, &out);
  out += ",\"instances\":";
  AppendValue(cell.instances, &out);
  out += ",\"scoring\":";
  AppendValue(cell.scoring, &out);
  out += ",\"registry\":";
  AppendValue(cell.registry, &out);
  out += ",\"metrics\":";
  AppendValue(cell.metrics, &out);
  out += ",\"notes\":";
  AppendValue(cell.notes, &out);
  out += ",\"wall_ms\":";
  AppendValue(cell.wall_ms, &out);
  out += '}';
  return out;
}

Result<CellRecord> ParseCellRecord(const std::string& line) {
  JsonParser parser(line);
  Result<JsonValue> parsed = parser.Parse();
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = *parsed;
  if (root.type != JsonValue::Type::kObject) {
    return Status::DataLoss("record is not a JSON object");
  }

  CellRecord record;
  // Version first: a wrong version is a schema mismatch
  // (kFailedPrecondition), which callers treat as fatal even on the
  // trailing line, unlike the DataLoss a torn write produces.
  const JsonValue* version = root.Find("v");
  if (version == nullptr) {
    return Status::DataLoss("record has no version field");
  }
  CREW_RETURN_IF_ERROR(ReadValue(*version, "v", &record.version));
  if (record.version != kCellSchemaVersion) {
    return Status::FailedPrecondition(
        "unsupported cell schema version " + std::to_string(record.version) +
        " (expected " + std::to_string(kCellSchemaVersion) + ")");
  }
  CREW_RETURN_IF_ERROR(Get(root, "kind", &record.kind));

  if (record.kind == "header") {
    CREW_RETURN_IF_ERROR(Get(root, "experiment", &record.experiment));
    CREW_RETURN_IF_ERROR(Get(root, "params", &record.params));
    return record;
  }
  if (record.kind != "cell") {
    return Status::DataLoss("unknown record kind: " + record.kind);
  }

  ExperimentCell& cell = record.cell;
  CREW_RETURN_IF_ERROR(Get(root, "scope", &record.scope));
  CREW_RETURN_IF_ERROR(Get(root, "dataset", &cell.dataset));
  CREW_RETURN_IF_ERROR(Get(root, "variant", &cell.variant));
  CREW_RETURN_IF_ERROR(Get(root, "aggregate", &cell.aggregate));
  CREW_RETURN_IF_ERROR(Get(root, "instances", &cell.instances));
  CREW_RETURN_IF_ERROR(Get(root, "scoring", &cell.scoring));
  CREW_RETURN_IF_ERROR(Get(root, "registry", &cell.registry));
  // Canonicalize: snapshots are name-sorted by contract, and the --metrics
  // sum as well as the "registry" JSON block iterate in stored order, so a
  // restored cell must never depend on how the shard happened to order its
  // entries (e.g. after a hand-merged file).
  std::sort(cell.registry.begin(), cell.registry.end(),
            [](const MetricEntry& a, const MetricEntry& b) {
              return a.name < b.name;
            });
  CREW_RETURN_IF_ERROR(Get(root, "metrics", &cell.metrics));
  CREW_RETURN_IF_ERROR(Get(root, "notes", &cell.notes));
  CREW_RETURN_IF_ERROR(Get(root, "wall_ms", &cell.wall_ms));
  return record;
}

// ---------------------------------------------------------------------------
// The --json document
// ---------------------------------------------------------------------------

namespace {

// Registry deltas serialize as {"name":{"count":N}} for counters and
// histogram buckets, {"name":{"count":N,"ms":X}} for durations. Snapshots
// are already name-sorted, so the emission order is deterministic.
void AppendRegistryObject(const MetricsSnapshot& registry, std::string* out) {
  *out += '{';
  for (size_t i = 0; i < registry.size(); ++i) {
    const MetricEntry& entry = registry[i];
    if (i > 0) *out += ',';
    AppendValue(entry.name, out);
    *out += ":{\"count\":";
    AppendValue(entry.count, out);
    if (entry.kind == MetricKind::kDuration) {
      *out += ",\"ms\":";
      AppendValue(entry.total_ms, out);
    }
    *out += '}';
  }
  *out += '}';
}

// The compact per-cell summary: the aggregate and the per-instance AOPC
// (and deletion curve) samples, not the full per-instance records the
// checkpoint carries.
void AppendJsonCell(const ExperimentCell& cell, bool include_metrics,
                    std::string* out) {
  *out += "{\"dataset\":";
  AppendValue(cell.dataset, out);
  *out += ",\"variant\":";
  AppendValue(cell.variant, out);
  if (!cell.instances.empty()) {
    *out += ",\"aggregate\":";
    AppendFields<ExplainerAggregate>(
        cell.aggregate, std::span(kAggregateFields).subspan(1), out);
    std::vector<double> aopc;
    std::vector<std::vector<double>> curves;
    for (const InstanceEvaluation& r : cell.instances) {
      if (!r.evaluated) continue;
      aopc.push_back(r.aopc);
      if (!r.curve.empty()) curves.push_back(r.curve);
    }
    *out += ",\"per_instance_aopc\":";
    AppendValue(aopc, out);
    if (!curves.empty()) {
      *out += ",\"per_instance_curve\":";
      AppendValue(curves, out);
    }
  }
  *out += ",\"scoring\":";
  AppendValue(cell.scoring, out);
  *out += ",\"wall_ms\":";
  AppendValue(cell.wall_ms, out);
  if (include_metrics && !cell.registry.empty()) {
    *out += ",\"registry\":";
    AppendRegistryObject(cell.registry, out);
  }
  if (!cell.metrics.empty()) {
    *out += ",\"metrics\":";
    AppendObject(cell.metrics, out);
  }
  if (!cell.notes.empty()) {
    *out += ",\"notes\":";
    AppendObject(cell.notes, out);
  }
  *out += '}';
}

}  // namespace

std::string ExperimentResultToJson(const ExperimentResult& result) {
  std::string out = "{\"experiment\":";
  AppendValue(result.name, &out);
  out += ",\"params\":";
  AppendObject(result.params, &out);
  out += ",\"cells\":[";
  for (size_t i = 0; i < result.cells.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonCell(result.cells[i], result.include_metrics, &out);
  }
  out += "]}";
  return out;
}

Status WriteExperimentJson(const ExperimentResult& result,
                           const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  const std::string json = ExperimentResultToJson(result);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != json.size() || !flushed) {
    return Status::DataLoss("short write: " + path);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// JsonlStreamSink
// ---------------------------------------------------------------------------

JsonlStreamSink::JsonlStreamSink(std::string path, std::string scope)
    : path_(std::move(path)), scope_(std::move(scope)) {}

JsonlStreamSink::~JsonlStreamSink() {
  if (file_ != nullptr) std::fclose(file_);
}

Status JsonlStreamSink::OnBegin(const ExperimentResult& header) {
  if (file_ != nullptr) return Status::Ok();  // sweep re-entry: keep shard
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::NotFound("cannot open for writing: " + path_);
  }
  return WriteLine(file_, HeaderToJsonl(header), path_);
}

Status JsonlStreamSink::OnCell(const ExperimentCell& cell, bool restored) {
  (void)restored;  // the stream is the full record, restored cells included
  if (file_ == nullptr) {
    return Status::FailedPrecondition("JsonlStreamSink: OnCell before OnBegin");
  }
  return WriteLine(file_, CellToJsonl(scope_, cell), path_);
}

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

CheckpointStore::CheckpointStore(std::string path) : path_(std::move(path)) {}

CheckpointStore::~CheckpointStore() {
  if (file_ != nullptr) std::fclose(file_);
}

Status CheckpointStore::Load() {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return Status::Ok();  // no file yet: empty checkpoint
  std::string content;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return FileError("read failed", path_);

  size_t pos = 0;
  size_t good_end = 0;  // byte offset just past the last accepted line
  std::string drop_reason;
  while (pos < content.size()) {
    const size_t newline = content.find('\n', pos);
    const bool terminated = newline != std::string::npos;
    const size_t line_end = terminated ? newline : content.size();
    const std::string line = content.substr(pos, line_end - pos);
    const bool last = !terminated || line_end + 1 >= content.size();

    if (!terminated) {
      // A torn append: the crash hit mid-line. Never trusted, even if it
      // happens to parse — the bytes after the fsync'd prefix are garbage.
      drop_reason = "unterminated trailing line";
      break;
    }
    Result<CellRecord> parsed = ParseCellRecord(line);
    if (!parsed.ok()) {
      if (parsed.status().code() == StatusCode::kFailedPrecondition) {
        // Schema-version mismatch: refuse the whole file, the caller must
        // not silently recompute cells a newer/older writer produced.
        return parsed.status();
      }
      if (last) {
        drop_reason = parsed.status().message();
        break;
      }
      return Status::DataLoss("corrupt checkpoint record (line not last): " +
                              parsed.status().message() + ": " + path_);
    }
    const CellRecord& record = *parsed;
    if (record.kind == "header") {
      if (!has_header_) {
        experiment_ = record.experiment;
        params_ = record.params;
        has_header_ = true;
      } else if (experiment_ != record.experiment ||
                 !SameRunParams(params_, record.params)) {
        return Status::FailedPrecondition(
            "checkpoint mixes configurations: " +
            ConfigLabel(experiment_, params_) + " vs " +
            ConfigLabel(record.experiment, record.params) + ": " + path_);
      }
    } else {
      const std::string key =
          CellKey(record.scope, record.cell.dataset, record.cell.variant);
      if (cells_.find(key) != cells_.end()) {
        CREW_LOG(Warning) << "checkpoint " << path_
                          << ": duplicate cell " << key << "; keeping first";
      } else {
        cells_.emplace(key, record.cell);
      }
    }
    has_records_ = true;
    good_end = line_end + 1;
    pos = line_end + 1;
  }

  if (!drop_reason.empty()) {
    CREW_LOG(Warning) << "checkpoint " << path_
                      << ": dropping torn trailing line (" << drop_reason
                      << "); truncating to last complete record";
    // Rewrite the good prefix so future appends extend complete records
    // only. (A plain O_APPEND after the torn bytes would corrupt the file
    // permanently.)
    std::FILE* w = std::fopen(path_.c_str(), "wb");
    if (w == nullptr) return FileError("cannot truncate", path_);
    if (good_end > 0 &&
        std::fwrite(content.data(), 1, good_end, w) != good_end) {
      std::fclose(w);
      return FileError("truncate write failed", path_);
    }
    const Status synced = FlushAndSync(w, path_);
    std::fclose(w);
    CREW_RETURN_IF_ERROR(synced);
  }
  return Status::Ok();
}

bool CheckpointStore::IsDone(const std::string& key) const {
  return cells_.find(key) != cells_.end();
}

const ExperimentCell* CheckpointStore::Restored(const std::string& key) const {
  const auto it = cells_.find(key);
  return it == cells_.end() ? nullptr : &it->second;
}

Status CheckpointStore::EnsureOpenForAppend() {
  if (file_ != nullptr) return Status::Ok();
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::NotFound("cannot open for append: " + path_);
  }
  return Status::Ok();
}

Status CheckpointStore::Append(const std::string& scope,
                               const ExperimentCell& cell) {
  const std::string key = CellKey(scope, cell.dataset, cell.variant);
  if (IsDone(key)) return Status::Ok();  // idempotent replay
  CREW_RETURN_IF_ERROR(EnsureOpenForAppend());
  CREW_RETURN_IF_ERROR(WriteLine(file_, CellToJsonl(scope, cell), path_));
  cells_.emplace(key, cell);
  has_records_ = true;
  return Status::Ok();
}

Status CheckpointStore::CheckHeader(const ExperimentResult& header) const {
  if (has_header_ && (experiment_ != header.name ||
                      !SameRunParams(params_, header.params))) {
    return Status::FailedPrecondition(
        "checkpoint " + path_ + " was written by " +
        ConfigLabel(experiment_, params_) + ", refusing to resume " +
        ConfigLabel(header.name, header.params));
  }
  return Status::Ok();
}

Status CheckpointStore::WriteHeaderIfNew(const ExperimentResult& header) {
  if (has_header_) return CheckHeader(header);
  if (!has_records_) {
    CREW_RETURN_IF_ERROR(EnsureOpenForAppend());
    CREW_RETURN_IF_ERROR(WriteLine(file_, HeaderToJsonl(header), path_));
    has_records_ = true;
  }
  // A cells-only shard adopts the configuration of the run resuming it.
  experiment_ = header.name;
  params_ = header.params;
  has_header_ = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

void FaultInjector::ArmAfterCells(int cells) {
  fail_after_ = cells < 0 ? -1 : cells;
  seed_armed_ = false;
}

void FaultInjector::ArmFromSeed(uint64_t seed) {
  seed_ = seed;
  seed_armed_ = true;
  fail_after_ = -1;
}

std::unique_ptr<FaultInjector> FaultInjector::FromFlagsAndEnv(
    int fail_after_cells) {
  std::unique_ptr<FaultInjector> injector;
  if (fail_after_cells >= 0) {
    injector = std::make_unique<FaultInjector>();
    injector->ArmAfterCells(fail_after_cells);
  } else if (const char* env = std::getenv("CREW_FAULT_SEED")) {
    uint64_t seed = 0;
    if (ParseUint64(env, &seed)) {
      injector = std::make_unique<FaultInjector>();
      injector->ArmFromSeed(seed);
    } else {
      CREW_LOG(Warning) << "ignoring unparseable CREW_FAULT_SEED: " << env;
    }
  }
  if (injector != nullptr && std::getenv("CREW_FAULT_HARD") != nullptr) {
    injector->set_hard(true);
  }
  return injector;
}

void FaultInjector::FinalizeSchedule(int total_cells) {
  if (!seed_armed_ || fail_after_ >= 0) return;
  // Uniform over [0, total): the injector always fires somewhere inside
  // the grid, including "before the very first cell".
  fail_after_ = Rng(seed_).UniformInt(total_cells < 1 ? 1 : total_cells);
  CREW_LOG(Info) << "CREW_FAULT_SEED=" << seed_ << " arms fault after "
                 << fail_after_ << " cell(s)";
}

bool FaultInjector::FireNow() {
  if (fail_after_ < 0 || completed_ < fail_after_) return false;
  CREW_LOG(Warning) << "fault injector firing after " << completed_
                    << " completed cell(s)";
  if (hard_) std::_Exit(kFaultExitCode);
  return true;
}

Status FaultInjector::FaultStatus() const {
  return Status::Internal("fault injected after " +
                          std::to_string(completed_) + " cell(s)");
}

// ---------------------------------------------------------------------------
// CellStreamer
// ---------------------------------------------------------------------------

Status CellStreamer::Begin(const ExperimentResult& header, int total_cells) {
  if (hooks_.checkpoint != nullptr) {
    CREW_RETURN_IF_ERROR(hooks_.checkpoint->WriteHeaderIfNew(header));
  }
  if (hooks_.fault != nullptr) hooks_.fault->FinalizeSchedule(total_cells);
  for (StreamingSink* sink : hooks_.sinks) {
    CREW_RETURN_IF_ERROR(sink->OnBegin(header));
  }
  return Status::Ok();
}

Result<bool> CellStreamer::TryRestore(const std::string& dataset,
                                      const std::string& variant,
                                      ExperimentCell* cell) {
  if (hooks_.checkpoint == nullptr) return false;
  const ExperimentCell* restored =
      hooks_.checkpoint->Restored(CellKey(hooks_.scope, dataset, variant));
  if (restored == nullptr) return false;
  *cell = *restored;
  if (StableTiming()) ZeroCellTimings(cell);
  for (StreamingSink* sink : hooks_.sinks) {
    CREW_RETURN_IF_ERROR(sink->OnCell(*cell, /*restored=*/true));
  }
  return true;
}

Status CellStreamer::BeforeFreshCell() {
  if (hooks_.fault != nullptr && hooks_.fault->FireNow()) {
    return hooks_.fault->FaultStatus();
  }
  return Status::Ok();
}

Status CellStreamer::Emit(const ExperimentCell& cell) {
  if (hooks_.checkpoint != nullptr) {
    CREW_RETURN_IF_ERROR(hooks_.checkpoint->Append(hooks_.scope, cell));
  }
  for (StreamingSink* sink : hooks_.sinks) {
    CREW_RETURN_IF_ERROR(sink->OnCell(cell, /*restored=*/false));
  }
  if (hooks_.fault != nullptr) hooks_.fault->CellCompleted();
  return Status::Ok();
}

Status CellStreamer::Finish(const ExperimentResult& result) {
  for (StreamingSink* sink : hooks_.sinks) {
    CREW_RETURN_IF_ERROR(sink->OnEnd(result));
  }
  return Status::Ok();
}

}  // namespace crew
