// Ablation: recurrent cell choice (the paper uses a GRU) and
// bidirectionality (the paper's overview figure shows two GRU chains).
// D-TkDI, PR-A2, M = 64.
#include <cstdio>

#include "experiment_common.h"

int main() {
  using namespace pathrank;
  using namespace pathrank::bench;

  const ExperimentScale scale = ResolveScale();
  std::printf("Cell ablation (D-TkDI, PR-A2, M=64), scale=%s\n\n",
              scale.name.c_str());
  std::printf("%-8s %6s %8s %8s %8s %8s\n", "cell", "bidir", "MAE",
              "MARE", "tau", "rho");
  std::printf("%s\n", std::string(51, '-').c_str());

  const Workload workload =
      BuildWorkload(scale, data::CandidateStrategy::kDiversifiedTopK);
  const nn::Matrix embeddings = TrainEmbeddings(workload.network, scale, 64);

  struct Config {
    nn::CellType cell;
    bool bidir;
  };
  // All three cells bidirectional (the paper's figure) plus one
  // unidirectional GRU to isolate the bidirectionality contribution.
  const Config configs[] = {{nn::CellType::kGru, true},
                            {nn::CellType::kLstm, true},
                            {nn::CellType::kRnn, true},
                            {nn::CellType::kGru, false}};
  for (const auto& c : configs) {
    RunSpec spec;
    spec.embedding_dim = 64;
    spec.finetune_embedding = true;
    spec.cell = c.cell;
    spec.bidirectional = c.bidir;
    const ExperimentResult r =
        RunExperiment(workload, embeddings, scale, spec);
    const std::string cell = nn::CellTypeName(c.cell);
    std::printf("%-8s %6s %8.4f %8.4f %8.4f %8.4f\n", cell.c_str(),
                c.bidir ? "yes" : "no", r.test.mae, r.test.mare,
                r.test.kendall_tau, r.test.spearman_rho);
    std::fflush(stdout);
    ReportTrainSeconds(cell + (c.bidir ? " bidir" : " unidir"),
                       r.train_seconds);
  }
  return 0;
}
