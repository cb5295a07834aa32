#include "obs/placement_auditor.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "util/check.h"
#include "util/json_writer.h"

namespace oodb::obs {

namespace {

/// Size cap of one configuration walk: a walk stops popping once this many
/// objects have been pushed (attachments are unvalidated, as in OCT, so the
/// configuration graph may contain cycles and giant closures).
constexpr size_t kMaxConfigurationWalk = 4096;

/// Key of a dead object in the object pass's page column. A live object's
/// key is its page, or kInvalidPage while it is unplaced. Both sentinels lie
/// above every page id, so "key < page_count" means "live and placed".
constexpr store::PageId kDeadObject = store::kInvalidPage - 1;

/// Live `kConfiguration`/`kDown` children of every live object, in edge
/// order, as a CSR (offsets + targets), plus the object pass's key column.
/// Dead objects have empty rows.
struct ConfigurationGraph {
  std::vector<uint32_t> offsets;  ///< row o is [offsets[o], offsets[o + 1])
  std::vector<obj::ObjectId> targets;
  /// Page of each live object, kInvalidPage if unplaced, kDeadObject if
  /// dead. Walks reach only live objects.
  std::vector<store::PageId> page_of;
  size_t widest_row = 0;  ///< most children of any one object

  std::span<const obj::ObjectId> children(obj::ObjectId o) const {
    return {targets.data() + offsets[o], targets.data() + offsets[o + 1]};
  }
};

/// Counts the distinct pages spanned by each configuration root's capped
/// closure (DESIGN.md §9).
///
/// ExactWalk is the reference: a stamped DFS that pops objects until
/// kMaxConfigurationWalk have been pushed. When the root reaches fewer
/// objects than that, the DFS pops every one of them, so the count is a
/// property of the reachable set alone. CondensedWalk exploits this: over
/// the strongly connected components found by Condense it adds a whole
/// component (size and deduplicated pages) in one step, and gives up once
/// the reached size hits the cap, where only the DFS order decides which
/// objects are popped.
///
/// Pages are marked in page_mark_ slots: a placed page is its own slot and
/// kInvalidPage (an unplaced live object) is the sentinel slot page_count,
/// so marking never branches; a walk that marked the sentinel subtracts it
/// once at the end.
class ConfigurationWalker {
 public:
  ConfigurationWalker(const ConfigurationGraph& graph, size_t page_count)
      : graph_(graph),
        // See ExactWalk for why the cap plus the widest row is enough.
        stack_(std::make_unique_for_overwrite<obj::ObjectId[]>(
            kMaxConfigurationWalk + graph.widest_row + 1)),
        object_mark_(graph.page_of.size(), 0),
        page_mark_(page_count + 1, 0),
        sentinel_(static_cast<store::PageId>(page_count)) {}

  bool condensed() const { return condensed_; }

  /// Distinct pages of the objects the capped DFS from `root` pops. Adds
  /// the number of objects pushed to `*pushed`.
  ///
  /// The children's stamps depend on random references, so the child loop
  /// does not branch on them: it stores every child at the stack top and
  /// advances `sp` and `visited` only for a fresh one. The stack holds
  /// sp <= visited entries, since every push counts as visited; an object
  /// is popped only while visited < kMaxConfigurationWalk, so its children
  /// are stored at indices below kMaxConfigurationWalk + widest_row.
  size_t ExactWalk(obj::ObjectId root, size_t* pushed) {
    const uint32_t walk = ++walk_;
    obj::ObjectId* const stack = stack_.get();
    object_mark_[root] = walk;
    stack[0] = root;
    size_t sp = 1;
    size_t visited = 1;
    size_t marked = 0;
    while (sp != 0 && visited < kMaxConfigurationWalk) {
      const obj::ObjectId o = stack[--sp];
      marked += Stamp(page_mark_[SlotOf(graph_.page_of[o])], walk);
      for (const obj::ObjectId c : graph_.children(o)) {
        const bool fresh = Stamp(object_mark_[c], walk);
        // The last fresh child is popped next: fetching its row now takes
        // that load off the chain from one pop to the next.
        __builtin_prefetch(graph_.targets.data() + graph_.offsets[c]);
        stack[sp] = c;
        sp += fresh;
        visited += fresh;
      }
    }
    *pushed += visited;
    return PlacedPages(marked);
  }

  /// Finds the non-trivial strongly connected components reachable from
  /// `roots` (iterative Tarjan) and records each one's size, pages and
  /// external children.
  void Condense(std::span<const obj::ObjectId> roots) {
    const size_t n = graph_.page_of.size();
    component_of_.assign(n, kTrivial);
    // index 0 = unvisited; low kDone = assigned to a finished component.
    constexpr uint32_t kDone = std::numeric_limits<uint32_t>::max();
    std::vector<uint32_t> index(n, 0);
    std::vector<uint32_t> low(n, 0);
    std::vector<obj::ObjectId> open;  // Tarjan's stack
    struct Frame {
      obj::ObjectId node;
      uint32_t next_edge;
    };
    std::vector<Frame> frames;
    uint32_t counter = 0;
    const auto discover = [&](obj::ObjectId v) {
      index[v] = low[v] = ++counter;
      open.push_back(v);
      frames.push_back({v, graph_.offsets[v]});
    };
    for (const obj::ObjectId root : roots) {
      if (index[root] != 0) continue;
      discover(root);
      while (!frames.empty()) {
        Frame& f = frames.back();
        if (f.next_edge < graph_.offsets[f.node + 1]) {
          const obj::ObjectId w = graph_.targets[f.next_edge++];
          if (index[w] == 0) {
            discover(w);
          } else if (low[w] != kDone) {
            low[f.node] = std::min(low[f.node], index[w]);
          }
          continue;
        }
        const obj::ObjectId v = f.node;
        frames.pop_back();
        if (low[v] == index[v]) {
          const auto first =
              std::find(open.rbegin(), open.rend(), v).base() - 1;
          const std::span<const obj::ObjectId> members(first, open.end());
          if (members.size() > 1) AddComponent(members);
          for (const obj::ObjectId m : members) low[m] = kDone;
          open.erase(first, open.end());
        }
        if (!frames.empty()) {
          uint32_t& parent_low = low[frames.back().node];
          parent_low = std::min(parent_low, low[v]);
        }
      }
    }
    component_mark_.assign(components_.size(), 0);
    condensed_ = true;
  }

  /// Distinct pages of everything `root` reaches, or nullopt when that is
  /// kMaxConfigurationWalk objects or more. Requires Condense().
  std::optional<size_t> CondensedWalk(obj::ObjectId root) {
    ++walk_;
    size_t reached = 0;
    size_t marked = 0;
    // A component's external children may outnumber any one CSR row, so
    // this walk keeps its own growable stack.
    condensed_stack_.clear();
    // A member of a non-trivial component stands for the whole component.
    const auto reach = [&](obj::ObjectId o) {
      const uint32_t c = component_of_[o];
      if (c == kTrivial) {
        if (object_mark_[o] == walk_) return;
        object_mark_[o] = walk_;
        ++reached;
      } else {
        if (component_mark_[c] == walk_) return;
        component_mark_[c] = walk_;
        reached += components_[c].size;
      }
      condensed_stack_.push_back(o);
    };
    reach(root);
    while (!condensed_stack_.empty() && reached < kMaxConfigurationWalk) {
      const obj::ObjectId o = condensed_stack_.back();
      condensed_stack_.pop_back();
      const uint32_t c = component_of_[o];
      if (c == kTrivial) {
        marked += Stamp(page_mark_[SlotOf(graph_.page_of[o])], walk_);
        for (const obj::ObjectId child : graph_.children(o)) reach(child);
      } else {
        for (const store::PageId slot : components_[c].slots) {
          marked += Stamp(page_mark_[slot], walk_);
        }
        for (const obj::ObjectId child : components_[c].children) {
          reach(child);
        }
      }
    }
    if (reached >= kMaxConfigurationWalk) return std::nullopt;
    return PlacedPages(marked);
  }

 private:
  static constexpr uint32_t kTrivial = std::numeric_limits<uint32_t>::max();

  struct Component {
    size_t size = 0;
    std::vector<store::PageId> slots;     ///< sorted, distinct page slots
    std::vector<obj::ObjectId> children;  ///< sorted, distinct, external
  };

  /// The page_mark_ slot of page `p`: kInvalidPage, the largest PageId,
  /// maps to the sentinel and every placed page to itself.
  store::PageId SlotOf(store::PageId p) const { return std::min(p, sentinel_); }
  static_assert(store::kInvalidPage ==
                std::numeric_limits<store::PageId>::max());

  /// Stamps `mark` with `walk`; true if it held an earlier walk.
  static bool Stamp(uint32_t& mark, uint32_t walk) {
    const bool fresh = mark != walk;
    mark = walk;
    return fresh;
  }

  /// The placed pages among the `marked` slots of the current walk.
  size_t PlacedPages(size_t marked) const {
    return marked - (page_mark_[sentinel_] == walk_);
  }

  void AddComponent(std::span<const obj::ObjectId> members) {
    const auto id = static_cast<uint32_t>(components_.size());
    Component& comp = components_.emplace_back();
    comp.size = members.size();
    for (const obj::ObjectId m : members) component_of_[m] = id;
    for (const obj::ObjectId m : members) {
      comp.slots.push_back(SlotOf(graph_.page_of[m]));
      for (const obj::ObjectId c : graph_.children(m)) {
        if (component_of_[c] != id) comp.children.push_back(c);
      }
    }
    const auto sort_unique = [](auto& list) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    };
    sort_unique(comp.slots);
    sort_unique(comp.children);
  }

  const ConfigurationGraph& graph_;
  std::unique_ptr<obj::ObjectId[]> stack_;  ///< ExactWalk's DFS stack
  std::vector<obj::ObjectId> condensed_stack_;
  // Stamped membership: a mark equal to walk_ means "seen by the current
  // walk", so nothing is cleared between roots.
  std::vector<uint32_t> object_mark_;
  std::vector<uint32_t> page_mark_;  ///< page slots, sentinel last
  std::vector<uint32_t> component_mark_;
  store::PageId sentinel_;
  uint32_t walk_ = 0;
  bool condensed_ = false;
  std::vector<uint32_t> component_of_;  ///< kTrivial or a components_ index
  std::vector<Component> components_;
};

}  // namespace

std::string PlacementSample::ToJson() const {
  JsonObjectWriter kinds;
  for (size_t k = 0; k < by_kind.size(); ++k) {
    JsonObjectWriter kind;
    kind.Add("edges", by_kind[k].edges)
        .Add("colocated", by_kind[k].colocated);
    kinds.AddRaw(obj::RelKindName(static_cast<obj::RelKind>(k)), kind.str());
  }
  JsonArrayWriter occupancy;
  for (uint64_t b : occupancy_histogram) occupancy.Add(b);
  JsonObjectWriter out;
  out.Add("live_objects", live_objects)
      .Add("placed_objects", placed_objects)
      .Add("pages", pages)
      .Add("nonempty_pages", nonempty_pages)
      .Add("empty_pages", empty_pages)
      .Add("edges", edges)
      .Add("colocated", colocated)
      .Add("colocated_fraction", ColocatedFraction())
      .AddRaw("by_kind", kinds.str())
      .AddRaw("occupancy_histogram", occupancy.str())
      .Add("mean_occupancy", mean_occupancy)
      .Add("mean_type_fragmentation", mean_type_fragmentation)
      .Add("types_audited", types_audited)
      .Add("mean_pages_per_configuration", mean_pages_per_configuration)
      .Add("configurations", configurations);
  return out.str();
}

PlacementSample PlacementAuditor::Sample() const {
  PlacementSample s;
  const obj::ObjectGraph& graph = *graph_;
  const store::StorageManager& storage = *storage_;

  // ---- object pass: the key column and per-type extents ----
  // Types and pages are dense ids, so per-type byte totals and
  // distinct-page counts live in flat arrays with a types-by-pages seen
  // matrix instead of a map of hash sets (the audit runs once per cell but
  // over every object; hashing dominated the old implementation).
  const size_t type_count = graph.lattice().size();
  const size_t page_count = storage.page_count();
  OODB_CHECK_LT(page_count, kDeadObject);
  std::vector<uint64_t> type_bytes(type_count, 0);
  std::vector<uint64_t> type_pages(type_count, 0);
  std::vector<uint8_t> type_page_seen(type_count * page_count, 0);
  const auto num_objects = static_cast<obj::ObjectId>(graph.size());
  // Both per-object columns are allocated up front, offsets first. Under
  // the experiment runner's heap settings (large blocks stay on the brk
  // heap), a variant that allocated the offsets after the object pass
  // measured about 1 MB more peak RSS on oct_dyn.
  ConfigurationGraph config;
  config.offsets.resize(size_t{num_objects} + 1);
  std::vector<store::PageId>& key = config.page_of;
  key.resize(num_objects);
  for (obj::ObjectId id = 0; id < num_objects; ++id) {
    const obj::DesignObject& o = graph.object(id);
    const bool live = !o.deleted;
    const store::PageId page = storage.PageOf(id);
    key[id] = live ? page : kDeadObject;
    s.live_objects += live;
    if (live && page != store::kInvalidPage) {
      ++s.placed_objects;
      type_bytes[o.type] += storage.SizeOf(id);
      uint8_t& seen = type_page_seen[o.type * page_count + page];
      type_pages[o.type] += seen == 0;
      seen = 1;
    }
  }

  // ---- edge pass: locality, configuration roots and children ----
  // One gather of key[target] per edge slot stands for IsLive and PageOf
  // of the target, and every per-edge decision is arithmetic on it and on
  // the unpacked kind and direction: an edge counts (once, from its kDown
  // side) when both endpoints are placed, i.e. both keys are page ids.
  // Each slot stores its target at the CSR top, which advances only for a
  // kDown configuration edge to a live target. The target array is checked
  // once per object, for room for its whole run, and grows geometrically.
  std::vector<obj::ObjectId> config_roots;
  std::vector<obj::ObjectId>& targets = config.targets;
  size_t top = 0;
  for (obj::ObjectId id = 0; id < num_objects; ++id) {
    config.offsets[id] = static_cast<uint32_t>(top);
    const store::PageId my_page = key[id];
    if (my_page == kDeadObject) continue;
    const obj::ObjectGraph::EdgeView run = graph.edges(id);
    if (targets.size() < top + run.size()) {
      targets.resize(std::max(2 * targets.size(), top + run.size()));
    }
    obj::ObjectId* const row = targets.data();
    const bool placed = my_page < page_count;
    // Bit Direction::kDown (0) or kUp (1) is set once the object has a
    // configuration edge of that direction; a root has only kDown ones,
    // so its mask is 1.
    uint32_t config_dirs = 0;
    for (const obj::Edge e : run) {
      const store::PageId target_key = key[e.target];
      const bool down = e.dir == obj::Direction::kDown;
      const bool config_kind = e.kind == obj::RelKind::kConfiguration;
      config_dirs |= uint32_t{config_kind} << static_cast<uint32_t>(e.dir);
      const bool counted = down & placed & (target_key < page_count);
      EdgeLocality& kind = s.by_kind[static_cast<size_t>(e.kind)];
      kind.edges += counted;
      kind.colocated += counted & (target_key == my_page);
      row[top] = e.target;
      top += config_kind & down & (target_key != kDeadObject);
    }
    if (config_dirs == 1) config_roots.push_back(id);
    config.widest_row =
        std::max<size_t>(config.widest_row, top - config.offsets[id]);
  }
  config.offsets[num_objects] = static_cast<uint32_t>(top);
  targets.resize(top);
  for (const EdgeLocality& kind : s.by_kind) {
    s.edges += kind.edges;
    s.colocated += kind.colocated;
  }

  // ---- page occupancy ----
  s.pages = storage.page_count();
  double fill_sum = 0;
  for (store::PageId p = 0; p < storage.page_count(); ++p) {
    const store::Page& page = storage.page(p);
    if (page.object_count() == 0) {
      // Churn deletes can drain a page completely; it stays allocated but
      // must not enter the occupancy mean (a zero-page mean would divide
      // by zero when churn empties the whole store).
      ++s.empty_pages;
      continue;
    }
    ++s.nonempty_pages;
    const double fill = static_cast<double>(page.used_bytes()) /
                        static_cast<double>(page.capacity_bytes());
    fill_sum += fill;
    size_t bucket = static_cast<size_t>(fill * kOccupancyBuckets);
    if (bucket >= kOccupancyBuckets) bucket = kOccupancyBuckets - 1;
    ++s.occupancy_histogram[bucket];
  }
  if (s.nonempty_pages > 0) {
    s.mean_occupancy = fill_sum / static_cast<double>(s.nonempty_pages);
  }

  // ---- per-type fragmentation ----
  // Ascending TypeId, matching the former std::map iteration order, so the
  // floating-point sum is bit-identical.
  const uint64_t capacity = storage.page_size_bytes();
  double frag_sum = 0;
  for (size_t type = 0; type < type_count; ++type) {
    if (type_bytes[type] == 0) continue;  // no placed instances
    const uint64_t min_pages =
        std::max<uint64_t>(1, (type_bytes[type] + capacity - 1) / capacity);
    frag_sum += static_cast<double>(type_pages[type]) /
                static_cast<double>(min_pages);
    ++s.types_audited;
  }
  if (s.types_audited > 0) {
    s.mean_type_fragmentation =
        frag_sum / static_cast<double>(s.types_audited);
  }

  // ---- pages per configuration ----
  // The condensation costs about one pass over the configuration graph, so
  // it is built only once the exact walks have pushed that many objects:
  // short acyclic walks (OCT) never pay for it, while walks that keep
  // re-entering a giant cycle (OCB) switch to it after a few roots.
  ConfigurationWalker walker(config, page_count);
  const size_t condense_after = s.live_objects + targets.size();
  size_t pushed = 0;
  double config_pages_sum = 0;
  for (size_t i = 0; i < config_roots.size(); ++i) {
    const obj::ObjectId root = config_roots[i];
    if (!walker.condensed() && pushed >= condense_after) {
      walker.Condense(std::span(config_roots).subspan(i));
    }
    std::optional<size_t> distinct_pages;
    if (walker.condensed()) distinct_pages = walker.CondensedWalk(root);
    if (!distinct_pages) distinct_pages = walker.ExactWalk(root, &pushed);
    config_pages_sum += static_cast<double>(*distinct_pages);
    ++s.configurations;
  }
  if (s.configurations > 0) {
    s.mean_pages_per_configuration =
        config_pages_sum / static_cast<double>(s.configurations);
  }
  return s;
}

}  // namespace oodb::obs
