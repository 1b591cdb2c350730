// Recurrent sequence encoders: GRU (the paper's choice), vanilla tanh RNN
// and LSTM (ablations). All share one interface:
//
//   Forward(x_steps, lengths, &final_h)   — training forward; x_steps[t] is
//     the [B x input] embedding of timestep t; final_h receives each row's
//     hidden state after its true length (padded steps carry it forward).
//   Backward(d_final_h, &d_x_steps)       — exact BPTT over the activations
//     the matching Forward cached; returns gradients with respect to every
//     input step and accumulates parameter grads.
//   ForwardInference(table, batch, ...)   — const scoring over a frozen
//     input-projection table (see InputTable), sharing prefix steps.
//
// Forward and ForwardInference are written once, in RecurrentLayer; a
// cell supplies only its parameters, its Step and its BackwardImpl. Step
// is given gate buffers that already hold the input projection x W and
// the previous state; it adds the recurrent GEMMs and biases, applies the
// activations and writes the new state. Forward fills the gates with
// GemmNN(x, W) into the base class's per-step caches, which BackwardImpl
// reads; ForwardInference gathers them from the table. Both call the same
// Step, so inference is bitwise training by construction.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/parameter.h"
#include "nn/sequence_batch.h"

namespace pathrank::nn {

/// The input half of every recurrent step, precomputed for every vertex of
/// a frozen model: `gates[g]` row v is embedding row v times the cell's
/// g-th input weight (GRU z, r, h; RNN one; LSTM i, f, o, g), each
/// [vocab x hidden]. GemmNN fixes each element's accumulation order by its
/// K-blocking alone, so a table row is bitwise the row a training step's
/// `GemmNN(x, W)` produces. Biases are not folded in: a step adds them after
/// the recurrent GEMM, in Forward's order. Costs vocab * gates * hidden
/// floats per cell.
struct InputTable {
  std::vector<Matrix> gates;
};

/// Caller-owned buffers for ForwardInference. One scratch per concurrent
/// caller; every buffer keeps its capacity across calls, so a repeated
/// batch geometry allocates nothing.
struct RecurrentScratch {
  // Prefix grouping of the current step: (parent node << 32 | vertex id,
  // row) sorted, then one node per distinct key.
  std::vector<std::pair<uint64_t, uint32_t>> order;
  std::vector<uint32_t> active;       // rows still inside their length
  std::vector<uint32_t> node_of_row;  // row -> its node at the last step
  std::vector<uint32_t> parent;       // node -> parent node (previous step)
  std::vector<uint32_t> vertex;       // node -> vertex id
  Matrix h_prev, c_prev;  // each node's parent state (LSTM: and cell)
  Matrix h, c;            // node states after the current step
  Matrix h_last, c_last;  // node states after the previous step; one
                          // zero root row before step 0
  std::array<Matrix, 4> gates;  // per-step gate buffers
  Matrix aux;                   // GRU r * h_prev, LSTM tanh(cell)
};

/// Masked recurrent encoder. The step loops live here; a cell supplies
/// its parameters, Step and BackwardImpl.
class RecurrentLayer {
 public:
  virtual ~RecurrentLayer() = default;

  /// Consumes `x_steps` (one [B x input_size] matrix per timestep) and
  /// writes the per-row final hidden state into `final_h` [B x hidden].
  /// Each step computes GemmNN(x, W_g) for every gate in InputWeights()
  /// order, calls Step, then carries the finished rows' state forward.
  /// Caches every step's activations for Backward; `x_steps` must outlive
  /// it.
  void Forward(const std::vector<Matrix>& x_steps,
               const std::vector<int32_t>& lengths, Matrix* final_h);

  /// Projects an embedding table [vocab x input] through this cell's
  /// input weights (see InputTable). Build once per frozen weight set.
  InputTable BuildInputTable(const Matrix& embedding) const;

  /// Inference-only forward over vertex-id sequences. It calls Forward's
  /// Step, so each row's result is bitwise the same, but a hidden state
  /// depends only on its prefix: rows that share a prefix share its
  /// steps, and finished rows drop out. `out` [B x hidden]
  /// receives each row's final state, or with `mean_pool` the mean of its
  /// states over its length. Everything lands in `scratch`, so the layer
  /// is never mutated and many threads may call this at once. Throws
  /// std::logic_error on a vertex id outside the table.
  void ForwardInference(const InputTable& table, const SequenceBatch& batch,
                        bool mean_pool, RecurrentScratch* scratch,
                        Matrix* out) const;

  /// Hidden state after step `t` of the last Forward ([B x hidden]).
  /// Padded rows carry the last real state forward.
  const Matrix& hidden_state(size_t t) const { return h_[t + 1]; }

  /// Backpropagates `d_final_h` [B x hidden]; writes input gradients into
  /// `d_x_steps` (resized to match the last Forward) and accumulates
  /// parameter gradients.
  void Backward(const Matrix& d_final_h, std::vector<Matrix>* d_x_steps) {
    BackwardImpl(&d_final_h, nullptr, d_x_steps);
  }

  /// Backpropagates per-step hidden-state gradients (`d_h_steps[t]` is the
  /// gradient on hidden_state(t)); used by mean-pooling heads. Rows beyond
  /// a sequence's true length must carry zero gradient.
  void BackwardSteps(const std::vector<Matrix>& d_h_steps,
                     std::vector<Matrix>* d_x_steps) {
    BackwardImpl(nullptr, &d_h_steps, d_x_steps);
  }

  /// Every parameter, in checkpoint order.
  virtual ConstParameterList Parameters() const = 0;
  ParameterList Parameters() {
    return MutableParameters(std::as_const(*this).Parameters());
  }
  size_t input_size() const { return input_size_; }
  size_t hidden_size() const { return hidden_size_; }

 protected:
  RecurrentLayer(size_t input_size, size_t hidden_size)
      : input_size_(input_size), hidden_size_(hidden_size) {}

  /// The input weights, in InputTable gate order.
  virtual std::vector<const Matrix*> InputWeights() const = 0;

  /// The buffers of one step over n rows. On entry `gates[g]` holds the
  /// input projection x W of gate g (InputTable order); Step activates it
  /// in place. GRU and RNN leave `c_prev` and `c` null.
  struct StepIo {
    const Matrix* h_prev;  // [n x hidden]
    const Matrix* c_prev;  // LSTM cell state
    std::array<Matrix*, 4> gates;
    Matrix* aux;  // GRU r * h_prev, LSTM tanh(c); unused by the RNN
    Matrix* h;    // new state
    Matrix* c;    // LSTM new cell state
  };

  /// One step for every row, finished or not: the caller restores the
  /// rows past their length. Rows never read each other.
  virtual void Step(const StepIo& io) const = 0;

  /// True for the LSTM, whose state is (h, c).
  virtual bool has_cell_state() const { return false; }

  /// Exactly one of `d_final_h` / `d_h_steps` is non-null. Reads the
  /// caches of the last Forward and clears `x_steps_`.
  virtual void BackwardImpl(const Matrix* d_final_h,
                            const std::vector<Matrix>* d_h_steps,
                            std::vector<Matrix>* d_x_steps) = 0;

  // Forward caches. They persist across calls and are only reshaped, so a
  // repeated batch geometry allocates nothing.
  const std::vector<Matrix>* x_steps_ = nullptr;
  std::vector<int32_t> lengths_;
  std::vector<Matrix> h_;  // h_[t] = state before step t; h_[0] = 0
  std::vector<Matrix> c_;  // LSTM cell state, indexed like h_
  // gates_[g][t]: gate g of step t (InputTable order), as Step left it.
  std::array<std::vector<Matrix>, 4> gates_;
  std::vector<Matrix> aux_;  // StepIo::aux per step; empty for the RNN

 private:
  size_t input_size_;
  size_t hidden_size_;
};

/// Cell selector used by configs and the ablation bench.
enum class CellType { kGru, kRnn, kLstm };

std::string CellTypeName(CellType type);

// Each cell draws Xavier weights from `rng` at construction (zero biases;
// the LSTM's forget bias starts at 1). A null `rng` leaves every weight
// zero, for snapshot and checkpoint builders that copy values in (see
// SkipInit).

/// GRU with update gate z, reset gate r:
///   z = sigmoid(x Wz + h Uz + bz),  r = sigmoid(x Wr + h Ur + br)
///   hhat = tanh(x Wh + (r*h) Uh + bh),  h' = (1-z)*h + z*hhat
/// Gates z, r, hhat; aux r * h_prev.
class GruLayer final : public RecurrentLayer {
 public:
  GruLayer(size_t input_size, size_t hidden_size, pathrank::Rng* rng,
           const std::string& name_prefix = "gru");
  ConstParameterList Parameters() const override;

 protected:
  std::vector<const Matrix*> InputWeights() const override;
  void BackwardImpl(const Matrix* d_final_h,
                    const std::vector<Matrix>* d_h_steps,
                    std::vector<Matrix>* d_x_steps) override;

 private:
  void Step(const StepIo& io) const override;

  Parameter wz_, wr_, wh_;  // [input x hidden]
  Parameter uz_, ur_, uh_;  // [hidden x hidden]
  Parameter bz_, br_, bh_;  // [1 x hidden]
};

/// Vanilla tanh RNN: h' = tanh(x W + h U + b). One gate, the unmasked new
/// state.
class RnnLayer final : public RecurrentLayer {
 public:
  RnnLayer(size_t input_size, size_t hidden_size, pathrank::Rng* rng,
           const std::string& name_prefix = "rnn");
  ConstParameterList Parameters() const override;

 protected:
  std::vector<const Matrix*> InputWeights() const override;
  void BackwardImpl(const Matrix* d_final_h,
                    const std::vector<Matrix>* d_h_steps,
                    std::vector<Matrix>* d_x_steps) override;

 private:
  void Step(const StepIo& io) const override;

  Parameter w_, u_, b_;
};

/// LSTM with forget/input/output gates and cell state. Gates i, f, o, g;
/// aux tanh of the unmasked new cell.
class LstmLayer final : public RecurrentLayer {
 public:
  LstmLayer(size_t input_size, size_t hidden_size, pathrank::Rng* rng,
            const std::string& name_prefix = "lstm");
  ConstParameterList Parameters() const override;

 protected:
  std::vector<const Matrix*> InputWeights() const override;
  void BackwardImpl(const Matrix* d_final_h,
                    const std::vector<Matrix>* d_h_steps,
                    std::vector<Matrix>* d_x_steps) override;

 private:
  void Step(const StepIo& io) const override;
  bool has_cell_state() const override { return true; }

  Parameter wi_, wf_, wo_, wg_;  // [input x hidden]
  Parameter ui_, uf_, uo_, ug_;  // [hidden x hidden]
  Parameter bi_, bf_, bo_, bg_;  // [1 x hidden]
};

/// Factory for the configured cell type; `rng` as for the cell
/// constructors (null: weights left zero). `name_prefix` namespaces the
/// parameters (must be unique per layer instance within a model so
/// checkpoints can address them).
std::unique_ptr<RecurrentLayer> MakeRecurrentLayer(
    CellType type, size_t input_size, size_t hidden_size, pathrank::Rng* rng,
    const std::string& name_prefix);

}  // namespace pathrank::nn
