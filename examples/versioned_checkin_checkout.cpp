// Checkin/checkout with version derivation and instance-to-instance
// inheritance (paper §4.1: checkout = component + corresponding-object
// retrievals; checkin = insertions and updates). Shows the copy-vs-
// reference decisions the inheritance cost model makes and how run-time
// reclustering reacts to the checkin.
//
// Build & run:  ./build/examples/versioned_checkin_checkout

#include <cstdio>
#include <vector>

#include "cluster/cluster_manager.h"
#include "objmodel/inheritance.h"
#include "objmodel/object_graph.h"
#include "storage/storage_manager.h"

using namespace oodb;

int main() {
  obj::TypeLattice lattice;
  const obj::TypeId layout = lattice.DefineType(
      "layout", obj::kInvalidType, 64, {5.0, 2.0, 1.0, 1.0},
      {
          {"bbox", 16, true, /*read=*/3.0, /*update=*/0.1},      // hot+small
          {"geometry", 2000, true, /*read=*/0.05, /*update=*/0}, // big+cold
          {"status", 16, true, /*read=*/0.2, /*update=*/5.0},    // churny
      });

  obj::InheritanceCostModel costs;
  std::printf("inheritance cost model decisions for type 'layout':\n");
  for (const auto& attr : lattice.ResolveAttributes(layout)) {
    std::printf("  %-10s %5u B  read %.2f/access  update %.2f  -> %s\n",
                attr.name.c_str(), attr.size_bytes, attr.read_frequency,
                attr.update_frequency,
                obj::ChooseImplementation(attr, costs) ==
                        obj::ImplChoice::kByCopy
                    ? "by copy"
                    : "by reference");
  }

  obj::ObjectGraph graph(&lattice);
  store::StorageManager storage(4096);
  cluster::AffinityModel affinity(&lattice);
  cluster::ClusterManager clusterer(
      &graph, &storage, &affinity, nullptr,
      {.pool = cluster::CandidatePool::kWithinDb,
       .split = cluster::SplitPolicy::kLinearGreedy,
       .recluster_gain_threshold = 0.2});

  // The repository: DATAPATH[1] composed of ALU[1] and SHIFTER[1].
  const obj::FamilyId dp_f = graph.NewFamily("DATAPATH");
  const obj::FamilyId alu_f = graph.NewFamily("ALU");
  const obj::FamilyId sh_f = graph.NewFamily("SHIFTER");
  const obj::ObjectId datapath = graph.Create(dp_f, 1, layout, 300);
  const obj::ObjectId alu = graph.Create(alu_f, 1, layout,
                                         lattice.InstanceSize(layout));
  const obj::ObjectId shifter = graph.Create(sh_f, 1, layout, 250);
  graph.Relate(datapath, alu, obj::RelKind::kConfiguration);
  graph.Relate(datapath, shifter, obj::RelKind::kConfiguration);
  for (obj::ObjectId id : {datapath, alu, shifter}) clusterer.PlaceNew(id);

  // --- checkout: retrieve the configuration (a read-only walk). --------
  std::printf("\ncheckout DATAPATH[1].layout:\n");
  for (obj::ObjectId c : graph.Components(datapath)) {
    std::printf("  fetched %-20s (page %u)\n",
                graph.NameOf(c).ToString().c_str(), storage.PageOf(c));
  }

  // --- edit + checkin: derive ALU[2], link it, recluster. --------------
  const auto derived = obj::DeriveVersion(graph, alu, costs);
  graph.Relate(datapath, derived.heir, obj::RelKind::kConfiguration);
  const auto placement = clusterer.PlaceNew(derived.heir);
  std::printf("\ncheckin %s:\n", graph.NameOf(derived.heir).ToString().c_str());
  std::printf("  %d attributes copied, %d by reference (heir is %u B vs "
              "%u B full)\n",
              derived.attributes_by_copy, derived.attributes_by_reference,
              graph.object(derived.heir).size_bytes,
              lattice.InstanceSize(layout));
  std::printf("  placed on page %u (%s); ancestor ALU[1] on page %u\n",
              placement.page,
              placement.appended ? "arrival order" : "clustered",
              storage.PageOf(alu));

  // A later structure change triggers run-time reclustering.
  const obj::ObjectId ctrl = graph.Create(graph.NewFamily("CTRL"), 1,
                                          layout, 220);
  clusterer.PlaceNew(ctrl);
  graph.Relate(ctrl, derived.heir, obj::RelKind::kConfiguration);
  const auto re = clusterer.Recluster(ctrl);
  std::printf("\nafter attaching CTRL[1] to ALU[2]: recluster %s\n",
              re.relocated ? "moved CTRL next to the ALU versions"
                           : "kept CTRL in place (gain below threshold)");

  // The version chain is the version-history path from the first version.
  std::printf("\nversion chain of ALU: ");
  for (obj::ObjectId v = alu; v != obj::kInvalidObject;) {
    std::printf("%s ", graph.NameOf(v).ToString().c_str());
    const std::vector<obj::ObjectId> next = graph.Descendants(v);
    v = next.empty() ? obj::kInvalidObject : next.front();
  }
  std::printf("\n");
  return 0;
}
