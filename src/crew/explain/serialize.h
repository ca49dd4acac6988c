#ifndef CREW_EXPLAIN_SERIALIZE_H_
#define CREW_EXPLAIN_SERIALIZE_H_

#include <string>

#include "crew/core/cluster_explanation.h"
#include "crew/explain/attribution.h"

namespace crew {

/// Formats a double as a JSON number that round-trips bit-exactly (%.17g).
/// Non-finite values, which JSON cannot represent, degrade to "null";
/// readers map null back to NaN. Every CREW serializer (the --json
/// document and the JSONL checkpoint lines) uses this one formatter so the
/// two are byte-identical by construction.
std::string JsonDouble(double v);

/// Serializes a word-level explanation as a self-describing JSON object:
/// { "base_score": ..., "surrogate_r2": ..., "attributions": [
///   {"token": ..., "side": "left", "attribute": 0, "position": 1,
///    "weight": ...}, ... ] }
/// Downstream UIs and notebooks consume this; the format is stable.
std::string WordExplanationToJson(const WordExplanation& explanation);

/// Serializes a CREW cluster explanation, including the member word
/// indices of each unit so UIs can drill down.
std::string ClusterExplanationToJson(const ClusterExplanation& explanation);

}  // namespace crew

#endif  // CREW_EXPLAIN_SERIALIZE_H_
