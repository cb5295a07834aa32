#include "cluster/static_clusterer.h"

#include <algorithm>
#include <functional>

namespace oodb::cluster {

StaticClusterer::StaticClusterer(obj::ObjectGraph* graph,
                                 store::StorageManager* storage,
                                 const AffinityModel* affinity,
                                 double fill_fraction)
    : graph_(graph),
      storage_(storage),
      affinity_(affinity),
      fill_fraction_(fill_fraction) {
  OODB_CHECK(graph != nullptr);
  OODB_CHECK(storage != nullptr);
  OODB_CHECK(affinity != nullptr);
  OODB_CHECK_GT(fill_fraction, 0.0);
  OODB_CHECK_LE(fill_fraction, 1.0);
}

std::vector<obj::ObjectId> StaticClusterer::ComputeOrder() const {
  // Affinity-greedy traversal: start a cluster at each unvisited placed
  // object (in id order for determinism) and expand through a frontier
  // that pops the heaviest edge first, lower target id first on ties, so
  // the heaviest-affinity relatives are packed adjacent to their seed.
  //
  // An edge's weight depends only on its source type and kind, so the
  // weights are tabulated once and ranked (0 = heaviest, equal weights
  // share a rank). A frontier entry is then one integer key
  // (rank << 32) | target, and the smallest key is exactly the entry the
  // (weight desc, target asc) order puts first (DESIGN.md §12).
  static_assert(sizeof(obj::ObjectId) == 4, "keys pack the target in 32 bits");
  const size_t n = graph_->size();
  const size_t type_count = graph_->lattice().size();
  constexpr size_t kKinds = obj::kNumRelKinds;

  std::vector<double> weights(type_count * kKinds);
  for (obj::TypeId type = 0; type < type_count; ++type) {
    for (size_t k = 0; k < kKinds; ++k) {
      weights[type * kKinds + k] =
          affinity_->KindEdgeWeight(type, static_cast<obj::RelKind>(k));
    }
  }
  // The seed enters its own frontier with weight 0.0.
  std::vector<double> distinct = weights;
  distinct.push_back(0.0);
  std::sort(distinct.begin(), distinct.end(), std::greater<>());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const auto rank_of = [&distinct](double w) {
    return static_cast<uint32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), w,
                         std::greater<>()) -
        distinct.begin());
  };
  std::vector<uint32_t> edge_rank(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    edge_rank[i] = rank_of(weights[i]);
  }
  const uint32_t seed_rank = rank_of(0.0);

  // queued[id]: 0 once the object is visited (or if it is not live and
  // placed), else 1 + the best rank it is queued with, kNotQueued before
  // that. An entry no better than one already queued for the same target
  // would pop after it, when the target is visited, so it is never pushed.
  constexpr uint32_t kNotQueued = UINT32_MAX;
  std::vector<uint32_t> queued(n);
  for (obj::ObjectId id = 0; id < n; ++id) {
    queued[id] =
        graph_->IsLive(id) && storage_->IsPlaced(id) ? kNotQueued : 0;
  }
  std::vector<obj::ObjectId> order;
  order.reserve(graph_->live_count());

  // The frontier, reused across seeds (it drains before the next one).
  // Most pushes arrive in ascending target order within their rank, so
  // each rank keeps a run of such targets, consumed from `head`; a push
  // that would break its run's order goes to one min-heap of keys
  // instead. The next entry is the smaller of the lowest non-empty run's
  // head and the heap top.
  struct Run {
    std::vector<obj::ObjectId> ids;
    size_t head = 0;
    bool empty() const { return head == ids.size(); }
  };
  std::vector<Run> runs(distinct.size());
  size_t lowest = runs.size();  // every run below this rank is empty
  std::vector<uint64_t> heap;
  const auto push = [&](uint32_t rank, obj::ObjectId target) {
    Run& run = runs[rank];
    if (run.empty() || target > run.ids.back()) {
      run.ids.push_back(target);
    } else {
      heap.push_back((uint64_t{rank} << 32) | target);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    lowest = std::min<size_t>(lowest, rank);
  };
  const auto pop = [&]() {
    while (lowest < runs.size() && runs[lowest].empty()) ++lowest;
    if (lowest < runs.size() &&
        (heap.empty() ||
         ((uint64_t{lowest} << 32) | runs[lowest].ids[runs[lowest].head]) <
             heap.front())) {
      Run& run = runs[lowest];
      const obj::ObjectId o = run.ids[run.head++];
      if (run.empty()) {
        run.ids.clear();
        run.head = 0;
      }
      return o;
    }
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto o = static_cast<obj::ObjectId>(heap.back());
    heap.pop_back();
    return o;
  };
  size_t queued_count = 0;

  for (obj::ObjectId seed = 0; seed < n; ++seed) {
    if (queued[seed] == 0) continue;
    push(seed_rank, seed);
    ++queued_count;
    while (queued_count > 0) {
      const obj::ObjectId o = pop();
      --queued_count;
      if (queued[o] == 0) continue;
      queued[o] = 0;
      order.push_back(o);
      const uint32_t* ranks = &edge_rank[graph_->object(o).type * kKinds];
      for (const obj::Edge e : graph_->edges(o)) {
        if (e.target >= n) continue;
        const uint32_t rank = ranks[static_cast<size_t>(e.kind)];
        if (rank + 1 >= queued[e.target]) continue;
        queued[e.target] = rank + 1;
        push(rank, e.target);
        ++queued_count;
      }
    }
  }
  return order;
}

ReorganizationReport StaticClusterer::Reorganize() {
  ReorganizationReport report;
  report.pages_before = storage_->page_count();

  const std::vector<obj::ObjectId> order = ComputeOrder();
  report.objects_total = order.size();

  // Plan the destination pages first: a page ends where the next object
  // would push it past the fill limit. The limit never exceeds the page
  // size (fill_fraction <= 1), so every planned page also fits.
  const auto fill_limit = static_cast<uint32_t>(
      fill_fraction_ * static_cast<double>(storage_->page_size_bytes()));
  std::vector<size_t> page_start;  // index in `order` of each page's first
  uint32_t used = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const uint32_t size = storage_->SizeOf(order[i]);
    if (page_start.empty() || used + size > fill_limit) {
      page_start.push_back(i);
      used = 0;
    }
    used += size;
  }
  page_start.push_back(order.size());

  // Every destination page is fresh, so every object moves. Each
  // destination page is flushed, and each vacated source rewritten once.
  report.objects_moved = order.size();
  report.page_writes = page_start.size() - 1 +
                       storage_->RelocateToNewPages(order, page_start);

  // Pages in use after: count non-empty.
  size_t in_use = 0;
  for (store::PageId p = 0; p < storage_->page_count(); ++p) {
    if (storage_->page(p).object_count() > 0) ++in_use;
  }
  report.pages_after = in_use;
  return report;
}

}  // namespace oodb::cluster
