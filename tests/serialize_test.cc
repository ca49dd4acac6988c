#include "crew/explain/serialize.h"

#include <gtest/gtest.h>

#include "crew/core/crew_explainer.h"
#include "test_util.h"

namespace crew {
namespace {

using testing::MakePair;
using testing::TokenWeightMatcher;

TEST(SerializeTest, WordExplanationShape) {
  WordExplanation e;
  e.base_score = 0.75;
  e.surrogate_r2 = 0.5;
  TokenRef t;
  t.text = "acme";
  t.side = Side::kRight;
  t.attribute = 2;
  t.position = 1;
  e.attributions.push_back({t, -0.25});
  const std::string json = WordExplanationToJson(e);
  EXPECT_NE(json.find("\"base_score\":0.750000"), std::string::npos);
  EXPECT_NE(json.find("\"token\":\"acme\""), std::string::npos);
  EXPECT_NE(json.find("\"side\":\"right\""), std::string::npos);
  EXPECT_NE(json.find("\"attribute\":2"), std::string::npos);
  EXPECT_NE(json.find("\"weight\":-0.250000"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(SerializeTest, ClusterExplanationIncludesUnitsAndWords) {
  TokenWeightMatcher matcher({{"anchor", 2.0}});
  const RecordPair pair = MakePair("anchor beta", "gamma", "delta", "eps");
  CrewConfig config;
  config.importance.perturbation.num_samples = 64;
  CrewExplainer explainer(nullptr, config);
  auto clusters = explainer.ExplainClusters(matcher, pair, 3);
  ASSERT_TRUE(clusters.ok());
  const std::string json = ClusterExplanationToJson(clusters.value());
  EXPECT_NE(json.find("\"units\":["), std::string::npos);
  EXPECT_NE(json.find("\"members\":["), std::string::npos);
  EXPECT_NE(json.find("\"words\":{"), std::string::npos);
  EXPECT_NE(json.find("anchor"), std::string::npos);
}

TEST(SerializeTest, EmptyExplanation) {
  const std::string json = WordExplanationToJson(WordExplanation());
  EXPECT_NE(json.find("\"attributions\":[]"), std::string::npos);
}

}  // namespace
}  // namespace crew
