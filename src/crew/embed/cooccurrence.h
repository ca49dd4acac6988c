#ifndef CREW_EMBED_COOCCURRENCE_H_
#define CREW_EMBED_COOCCURRENCE_H_

#include <string>
#include <vector>

#include "crew/data/dataset.h"
#include "crew/text/tokenizer.h"

namespace crew {

/// A corpus is a bag of sentences; each sentence is a token sequence.
using Corpus = std::vector<std::vector<std::string>>;

/// Builds the embedding-training corpus from an EM dataset: every record
/// (either side of every pair) contributes one sentence with its attribute
/// values concatenated in schema order. This mirrors how EM papers fine-tune
/// or train embeddings on the serialized records themselves.
Corpus BuildCorpus(const Dataset& dataset, const Tokenizer& tokenizer);

}  // namespace crew

#endif  // CREW_EMBED_COOCCURRENCE_H_
