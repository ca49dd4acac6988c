#include <gtest/gtest.h>

#include "crew/embed/sgns.h"

namespace crew {
namespace {

// Synthetic corpus with two clearly separated topics: words inside a topic
// co-occur, words across topics never do.
Corpus TwoTopicCorpus(int sentences_per_topic = 200) {
  Corpus corpus;
  const std::vector<std::vector<std::string>> topics = {
      {"router", "switch", "network", "ethernet", "wifi"},
      {"espresso", "coffee", "grinder", "beans", "crema"},
  };
  Rng rng(77);
  for (int t = 0; t < 2; ++t) {
    for (int s = 0; s < sentences_per_topic; ++s) {
      std::vector<std::string> sentence;
      for (int w = 0; w < 6; ++w) {
        sentence.push_back(
            topics[t][rng.UniformInt(static_cast<int>(topics[t].size()))]);
      }
      corpus.push_back(std::move(sentence));
    }
  }
  return corpus;
}

template <typename TrainFn>
void ExpectTopicStructure(TrainFn train) {
  auto store_or = train(TwoTopicCorpus());
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  const EmbeddingStore& store = store_or.value();
  // Within-topic similarity must dominate across-topic similarity.
  const double within = (store.Similarity("router", "switch") +
                         store.Similarity("espresso", "coffee")) /
                        2.0;
  const double across = (store.Similarity("router", "espresso") +
                         store.Similarity("switch", "beans")) /
                        2.0;
  EXPECT_GT(within, across + 0.2);
}

TEST(SgnsEmbeddingTest, SeparatesTopics) {
  ExpectTopicStructure([](const Corpus& corpus) {
    SgnsConfig config;
    config.dim = 8;
    config.epochs = 5;
    // The synthetic corpus has 10 words of frequency ~0.1 each; word2vec's
    // frequent-word subsampling would discard ~90% of it. Real corpora have
    // Zipf tails; here we disable it to test the learner itself.
    config.subsample_threshold = 0.0;
    return TrainSgnsEmbeddings(corpus, config);
  });
}

TEST(SgnsEmbeddingTest, SubsamplingDropsFrequentTokensOnly) {
  // With subsampling on, ultra-frequent words still get vectors (they are
  // in the vocabulary) — the mechanism only thins their training windows.
  Corpus corpus = TwoTopicCorpus(50);
  SgnsConfig config;
  config.dim = 4;
  config.epochs = 1;
  config.subsample_threshold = 1e-3;
  auto store = TrainSgnsEmbeddings(corpus, config);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->Contains("router"));
  EXPECT_TRUE(store->Contains("coffee"));
}

TEST(SgnsEmbeddingTest, DeterministicGivenSeed) {
  const Corpus corpus = TwoTopicCorpus(30);
  SgnsConfig config;
  config.dim = 4;
  config.epochs = 1;
  auto a = TrainSgnsEmbeddings(corpus, config);
  auto b = TrainSgnsEmbeddings(corpus, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->Similarity("router", "wifi"),
                   b->Similarity("router", "wifi"));
}

TEST(EmbeddingTrainingTest, RejectsBadConfigAndEmptyCorpus) {
  SgnsConfig sgns;
  sgns.dim = -1;
  EXPECT_FALSE(TrainSgnsEmbeddings({}, sgns).ok());
  sgns.dim = 4;
  EXPECT_FALSE(TrainSgnsEmbeddings({}, sgns).ok());  // empty corpus
}

TEST(EmbeddingStoreTest, LookupAndOov) {
  Vocabulary vocab;
  vocab.Add("x");
  vocab.Add("y");
  la::Matrix vectors(2, 2);
  vectors.At(0, 0) = 3.0;  // normalized to (1, 0)
  vectors.At(1, 1) = 2.0;  // normalized to (0, 1)
  EmbeddingStore store(std::move(vocab), std::move(vectors));
  EXPECT_EQ(store.dim(), 2);
  EXPECT_EQ(store.size(), 2);
  EXPECT_NEAR(store.Lookup("x")[0], 1.0, 1e-12);
  EXPECT_EQ(store.Lookup("zzz"), (la::Vec{0.0, 0.0}));
  EXPECT_NEAR(store.Similarity("x", "y"), 0.0, 1e-12);
  EXPECT_NEAR(store.Similarity("x", "x"), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(store.Similarity("x", "zzz"), 0.0);
}

TEST(EmbeddingStoreTest, MeanVectorSkipsOov) {
  Vocabulary vocab;
  vocab.Add("x");
  vocab.Add("y");
  la::Matrix vectors(2, 2);
  vectors.At(0, 0) = 1.0;
  vectors.At(1, 1) = 1.0;
  EmbeddingStore store(std::move(vocab), std::move(vectors));
  const la::Vec mean = store.MeanVector({"x", "y", "unknown"});
  EXPECT_NEAR(mean[0], 0.5, 1e-12);
  EXPECT_NEAR(mean[1], 0.5, 1e-12);
  EXPECT_EQ(store.MeanVector({"nope"}), (la::Vec{0.0, 0.0}));
}

TEST(EmbeddingStoreTest, NearestNeighbors) {
  Vocabulary vocab;
  vocab.Add("a");
  vocab.Add("b");
  vocab.Add("c");
  la::Matrix vectors(3, 2);
  vectors.At(0, 0) = 1.0;                          // a -> (1,0)
  vectors.At(1, 0) = 0.9;
  vectors.At(1, 1) = 0.1;                          // b close to a
  vectors.At(2, 1) = 1.0;                          // c orthogonal
  EmbeddingStore store(std::move(vocab), std::move(vectors));
  const auto nn = store.NearestNeighbors("a", 2);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].first, "b");
  EXPECT_EQ(nn[1].first, "c");
  EXPECT_GT(nn[0].second, nn[1].second);
  EXPECT_TRUE(store.NearestNeighbors("zzz", 2).empty());
}

}  // namespace
}  // namespace crew
