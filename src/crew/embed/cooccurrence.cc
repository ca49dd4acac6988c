#include "crew/embed/cooccurrence.h"

namespace crew {

Corpus BuildCorpus(const Dataset& dataset, const Tokenizer& tokenizer) {
  Corpus corpus;
  corpus.reserve(static_cast<size_t>(dataset.size()) * 2);
  for (const auto& pair : dataset.pairs()) {
    corpus.push_back(FlattenTokens(tokenizer, dataset.schema(), pair.left));
    corpus.push_back(FlattenTokens(tokenizer, dataset.schema(), pair.right));
  }
  return corpus;
}

}  // namespace crew
