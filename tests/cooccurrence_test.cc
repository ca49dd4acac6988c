#include "crew/embed/cooccurrence.h"

#include <gtest/gtest.h>

#include "crew/data/generator.h"

namespace crew {
namespace {

TEST(BuildCorpusTest, OneSentencePerRecord) {
  GeneratorConfig config;
  config.num_matches = 4;
  config.num_nonmatches = 3;
  auto d = GenerateDataset(config);
  ASSERT_TRUE(d.ok());
  const Corpus corpus = BuildCorpus(*d, Tokenizer());
  EXPECT_EQ(corpus.size(), 14u);  // 7 pairs x 2 records
  for (const auto& sentence : corpus) EXPECT_FALSE(sentence.empty());
}

}  // namespace
}  // namespace crew
