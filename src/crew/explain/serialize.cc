#include "crew/explain/serialize.h"

#include <cmath>
#include <cstdio>

#include "crew/common/string_util.h"

namespace crew {
namespace {

std::string TokenRefJson(const TokenRef& token) {
  return StrPrintf(
      "{\"token\":\"%s\",\"side\":\"%s\",\"attribute\":%d,\"position\":%d}",
      JsonEscape(token.text).c_str(), SideName(token.side), token.attribute,
      token.position);
}

}  // namespace

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string WordExplanationToJson(const WordExplanation& explanation) {
  std::string out = StrPrintf(
      "{\"base_score\":%.6f,\"surrogate_r2\":%.6f,\"attributions\":[",
      explanation.base_score, explanation.surrogate_r2);
  for (size_t i = 0; i < explanation.attributions.size(); ++i) {
    if (i > 0) out.push_back(',');
    const auto& a = explanation.attributions[i];
    std::string token_json = TokenRefJson(a.token);
    token_json.pop_back();  // splice weight into the token object
    out += token_json + StrPrintf(",\"weight\":%.6f}", a.weight);
  }
  out += "]}";
  return out;
}

std::string ClusterExplanationToJson(const ClusterExplanation& explanation) {
  std::string out = StrPrintf(
      "{\"base_score\":%.6f,\"k\":%d,\"silhouette\":%.6f,"
      "\"coherence\":%.6f,\"units\":[",
      explanation.base_score(), explanation.chosen_k, explanation.silhouette,
      explanation.coherence);
  for (size_t u = 0; u < explanation.units.size(); ++u) {
    if (u > 0) out.push_back(',');
    const auto& unit = explanation.units[u];
    out += StrPrintf("{\"label\":\"%s\",\"weight\":%.6f,\"members\":[",
                     JsonEscape(unit.label).c_str(), unit.weight);
    for (size_t m = 0; m < unit.member_indices.size(); ++m) {
      if (m > 0) out.push_back(',');
      out += std::to_string(unit.member_indices[m]);
    }
    out += "]}";
  }
  out += "],\"words\":";
  out += WordExplanationToJson(explanation.words);
  out += "}";
  return out;
}

}  // namespace crew
