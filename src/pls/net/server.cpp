#include "pls/net/server.hpp"

namespace pls::net {

bool Server::handle(const Message& m, Network& net, SeqNo seq) {
  if (seq != kNoSeq) {
    if (!seen_.insert(seq)) {
      ++duplicates_discarded_;
      return false;
    }
    if (seen_order_.size() < kDedupWindow) {
      seen_order_.push_back(seq);
    } else {
      seen_.erase(seen_order_[oldest_]);
      seen_order_[oldest_] = seq;
      oldest_ = (oldest_ + 1) % kDedupWindow;
    }
  }
  on_message(m, net);
  return true;
}

}  // namespace pls::net
