// Ablation: effect of the candidate count k on PathRank accuracy
// (D-TkDI, PR-A2, M = 64). More candidates widen label coverage per query
// but dilute each query's weight; the paper fixes k = 10.
#include <cstdio>

#include "experiment_common.h"

int main() {
  using namespace pathrank;
  using namespace pathrank::bench;

  ExperimentScale scale = ResolveScale();
  std::printf("k-sweep ablation (D-TkDI, PR-A2, M=64), scale=%s\n\n",
              scale.name.c_str());
  std::printf("%5s %8s %8s %8s %8s\n", "k", "MAE", "MARE", "tau", "rho");
  std::printf("%s\n", std::string(41, '-').c_str());

  for (const int k : {4, 12}) {
    scale.candidates_k = k;
    const Workload workload =
        BuildWorkload(scale, data::CandidateStrategy::kDiversifiedTopK);
    const nn::Matrix embeddings = TrainEmbeddings(workload.network, scale, 64);
    RunSpec spec;
    spec.embedding_dim = 64;
    spec.finetune_embedding = true;
    const ExperimentResult r = RunExperiment(workload, embeddings, scale, spec);
    std::printf("%5d %8.4f %8.4f %8.4f %8.4f\n", k, r.test.mae, r.test.mare,
                r.test.kendall_tau, r.test.spearman_rho);
    std::fflush(stdout);
    ReportTrainSeconds("k=" + std::to_string(k), r.train_seconds);
  }
  return 0;
}
