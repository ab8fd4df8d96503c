// Experiment 2 (Figure 12): cost of the FCT pool and the FCT-/IFE-indices —
// construction time, memory footprint, and maintenance time — on PubChem-like
// databases of increasing size, plus the |FCT|/|D| ratio the paper reports.

#include <iostream>

#include "bench_common.h"
#include "midas/common/timer.h"

int main() {
  using namespace midas;
  using namespace midas::bench;
  std::cout << "MIDAS bench_index_cost (Figure 12), scale=" << ScaleFactor()
            << "\n";

  Table build("Fig 12 (top)  FCT mining + index construction",
              {"|D|", "FCT mine", "|FCT|", "|FCT|/|D|", "I_FCT build",
               "I_IFE build", "FCT mem", "I_FCT mem", "I_IFE mem"});
  Table maintain("Fig 12 (bottom)  maintenance cost under +10% additions",
                 {"|D|", "FCT maintain", "index maintain", "graphs added"});

  MidasConfig cfg = PaperConfig(42);
  for (size_t base : {100u, 200u, 400u, 800u}) {
    size_t n = Scaled(base);
    MoleculeGenerator gen(42);
    MoleculeGenConfig data_cfg = MoleculeGenerator::PubchemLike(n);
    GraphDatabase db = gen.Generate(data_cfg);

    Timer mine_t;
    FctSet fcts = FctSet::Mine(db, cfg.fct);
    double mine_ms = mine_t.ElapsedMs();

    Timer fct_idx_t;
    FctIndex fct_index = FctIndex::Build(db, fcts);
    double fct_idx_ms = fct_idx_t.ElapsedMs();

    Timer ife_idx_t;
    IfeIndex ife_index = IfeIndex::Build(db, fcts);
    double ife_idx_ms = ife_idx_t.ElapsedMs();

    size_t fct_count = fcts.FrequentClosedTrees().size();
    build.AddRow({std::to_string(n), FmtMs(mine_ms),
                  std::to_string(fct_count),
                  FmtPct(100.0 * static_cast<double>(fct_count) /
                             static_cast<double>(n),
                         2),
                  FmtMs(fct_idx_ms), FmtMs(ife_idx_ms),
                  Fmt(static_cast<double>(fcts.MemoryBytes()) / 1024.0, 1) +
                      "KB",
                  Fmt(static_cast<double>(fct_index.MemoryBytes()) / 1024.0,
                      1) +
                      "KB",
                  Fmt(static_cast<double>(ife_index.MemoryBytes()) / 1024.0,
                      1) +
                      "KB"});

    // Maintenance: +10% additions.
    size_t add = std::max<size_t>(1, n / 10);
    BatchUpdate delta = gen.GenerateAdditions(db, data_cfg, add, true);
    std::vector<GraphId> added = db.ApplyBatch(delta);

    Timer fct_maint_t;
    fcts.MaintainAdd(db, added);
    double fct_maint_ms = fct_maint_t.ElapsedMs();

    Timer idx_maint_t;
    for (GraphId id : added) {
      const Graph* g = db.Find(id);
      if (g == nullptr) continue;
      fct_index.AddGraph(id, *g);
      ife_index.AddGraph(id, *g);
    }
    fct_index.SyncFeatures(db, fcts);
    ife_index.SyncEdges(db, fcts);
    double idx_maint_ms = idx_maint_t.ElapsedMs();

    maintain.AddRow({std::to_string(n), FmtMs(fct_maint_ms),
                     FmtMs(idx_maint_ms), std::to_string(add)});
  }

  build.Print();
  maintain.Print();
  EmitMetricsJson();
  WriteBenchJson("index_cost");
  return 0;
}
