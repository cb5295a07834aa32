#ifndef SEMCLUST_UTIL_RECYCLING_MAP_H_
#define SEMCLUST_UTIL_RECYCLING_MAP_H_

#include <unordered_map>
#include <utility>
#include <vector>

/// \file
/// An unordered_map that keeps the nodes of erased entries and reuses them
/// for later inserts. The simulation's per-key state (a lock's holders and
/// queue, a page latch, a transaction's held keys or touched pages) is
/// created and erased millions of times while the number of live keys
/// stays small; recycling the node recycles the mapped value with it, so
/// its vectors keep their capacity and steady-state churn allocates
/// nothing. Erase recycles the value as it is: callers empty it first.
/// The map is only ever probed, never iterated, so recycling cannot change
/// any visit order.

namespace oodb {

template <typename K, typename V>
class RecyclingMap {
  using Map = std::unordered_map<K, V>;

 public:
  using Node = typename Map::node_type;

  V* Find(const K& key) {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  const V* Find(const K& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// The entry for `key`. A missing entry is inserted with a recycled
  /// node when there is one (its value as it was erased), else a
  /// value-initialised one. `inserted` reports which case happened.
  V& FindOrInsert(const K& key, bool* inserted = nullptr) {
    auto it = map_.find(key);
    if (inserted != nullptr) *inserted = it == map_.end();
    if (it != map_.end()) return it->second;
    if (free_.empty()) return map_.try_emplace(key).first->second;
    Node node = std::move(free_.back());
    free_.pop_back();
    node.key() = key;
    return map_.insert(std::move(node)).position->second;
  }

  /// Takes `key`'s entry out of the map (an empty node when absent). The
  /// caller hands the node back with Recycle.
  Node Take(const K& key) { return map_.extract(key); }
  void Recycle(Node node) {
    if (!node.empty()) free_.push_back(std::move(node));
  }
  void Erase(const K& key) { Recycle(Take(key)); }

 private:
  Map map_;
  std::vector<Node> free_;
};

}  // namespace oodb

#endif  // SEMCLUST_UTIL_RECYCLING_MAP_H_
