// Ablation: hidden-state reduction. The poster's overview figure feeds all
// GRU hidden states H_1..H_Z into the FC layer; mean pooling realises that
// and matches the averaging structure of the weighted-Jaccard target.
// Compared against using only the final state h_Z (D-TkDI, PR-A2, M=64).
#include <cstdio>

#include "common/stopwatch.h"
#include "experiment_common.h"

int main() {
  using namespace pathrank;
  using namespace pathrank::bench;

  const ExperimentScale scale = ResolveScale();
  std::printf("Pooling ablation (D-TkDI, PR-A2, M=64), scale=%s\n\n",
              scale.name.c_str());
  std::printf("%-12s %8s %8s %8s %8s\n", "pooling", "MAE", "MARE", "tau",
              "rho");
  std::printf("%s\n", std::string(47, '-').c_str());

  const Workload workload =
      BuildWorkload(scale, data::CandidateStrategy::kDiversifiedTopK);
  const nn::Matrix embeddings = TrainEmbeddings(workload.network, scale, 64);

  for (const auto pooling : {core::Pooling::kMean, core::Pooling::kFinalState}) {
    core::PathRankConfig model_cfg;
    model_cfg.embedding_dim = 64;
    model_cfg.hidden_size = scale.hidden_size;
    model_cfg.finetune_embedding = true;
    model_cfg.pooling = pooling;
    model_cfg.seed = 7;
    core::PathRankModel model(workload.network.num_vertices(), model_cfg);
    model.InitializeEmbedding(embeddings);

    core::TrainerConfig train_cfg;
    train_cfg.epochs = scale.train_epochs;
    train_cfg.batch_size = 32;
    train_cfg.learning_rate = 3e-3;
    train_cfg.patience = 6;
    train_cfg.seed = 17;

    Stopwatch watch;
    core::TrainPathRank(model, workload.split.train,
                        workload.split.validation, train_cfg);
    const double seconds = watch.ElapsedSeconds();
    const auto result = core::Evaluate(model, workload.split.test);
    const char* name =
        pooling == core::Pooling::kMean ? "mean" : "final-state";
    std::printf("%-12s %8.4f %8.4f %8.4f %8.4f\n", name, result.mae,
                result.mare, result.kendall_tau, result.spearman_rho);
    std::fflush(stdout);
    ReportTrainSeconds(name, seconds);
  }
  return 0;
}
