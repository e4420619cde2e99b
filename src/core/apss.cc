#include "core/apss.h"

#include <algorithm>
#include <memory>

#include "index/batch_index.h"
#include "index/inv_index.h"
#include "index/prefix_index.h"

namespace sssj {

std::vector<ResultPair> BatchApss(const std::vector<SparseVector>& data,
                                  double theta, IndexScheme scheme) {
  std::unique_ptr<BatchIndex> index;
  switch (scheme) {
    case IndexScheme::kInv:
      index = std::make_unique<InvIndex>(theta);
      break;
    case IndexScheme::kAp:
      index = std::make_unique<ApIndex>(theta);
      break;
    case IndexScheme::kL2ap:
      index = std::make_unique<L2apIndex>(theta);
      break;
    case IndexScheme::kL2:
      index = std::make_unique<L2Index>(theta);
      break;
  }

  Stream stream;
  stream.reserve(data.size());
  MaxVector m;
  for (size_t i = 0; i < data.size(); ++i) {
    StreamItem item;
    item.id = i;
    item.ts = 0.0;  // timestamps are irrelevant in the batch problem
    item.vec = data[i];
    m.UpdateFrom(item.vec, nullptr);
    stream.push_back(std::move(item));
  }

  std::vector<ResultPair> pairs;
  index->Construct(stream, m, &pairs);
  for (ResultPair& p : pairs) p.Canonicalize();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace sssj
