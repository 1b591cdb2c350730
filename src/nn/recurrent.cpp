#include "nn/recurrent.h"

#include <algorithm>
#include <stdexcept>

#include "nn/layer_util.h"

namespace pathrank::nn {
namespace {

/// out[i] = dh[i] * g[i] * (1 - g[i])  (sigmoid derivative through gate g).
void SigmoidBackward(const Matrix& dh, const Matrix& g, Matrix* out) {
  PR_CHECK(dh.SameShape(g));
  if (!out->SameShape(g)) out->Resize(g.rows(), g.cols());
  const float* pd = dh.data();
  const float* pg = g.data();
  float* po = out->data();
  for (size_t i = 0; i < g.size(); ++i) {
    po[i] = pd[i] * pg[i] * (1.0f - pg[i]);
  }
}

/// out[i] = dh[i] * (1 - t[i]^2)  (tanh derivative through activation t).
void TanhBackward(const Matrix& dh, const Matrix& t, Matrix* out) {
  PR_CHECK(dh.SameShape(t));
  if (!out->SameShape(t)) out->Resize(t.rows(), t.cols());
  const float* pd = dh.data();
  const float* pt = t.data();
  float* po = out->data();
  for (size_t i = 0; i < t.size(); ++i) {
    po[i] = pd[i] * (1.0f - pt[i] * pt[i]);
  }
}

/// out.row(i) = src.row(rows[i]) for every i.
void GatherRows(const Matrix& src, const std::vector<uint32_t>& rows,
                Matrix* out) {
  const size_t cols = src.cols();
  out->ResizeNoZero(rows.size(), cols);
  for (size_t i = 0; i < rows.size(); ++i) {
    const float* from = src.row(rows[i]);
    std::copy(from, from + cols, out->row(i));
  }
}

/// Rows of `next` past their length at step `t` take `prev`'s row:
/// padded steps carry the last real state forward.
void KeepFinishedRows(const std::vector<int32_t>& lengths, size_t t,
                      const Matrix& prev, Matrix* next) {
  for (size_t b = 0; b < lengths.size(); ++b) {
    if (static_cast<int32_t>(t) < lengths[b]) continue;
    std::copy(prev.row(b), prev.row(b) + prev.cols(), next->row(b));
  }
}

}  // namespace

std::string CellTypeName(CellType type) {
  switch (type) {
    case CellType::kGru:
      return "gru";
    case CellType::kRnn:
      return "rnn";
    case CellType::kLstm:
      return "lstm";
  }
  return "?";
}

// ------------------------------------------------------ shared steps ----

void RecurrentLayer::Forward(const std::vector<Matrix>& x_steps,
                             const std::vector<int32_t>& lengths,
                             Matrix* final_h) {
  const size_t num_steps = x_steps.size();
  PR_CHECK(num_steps > 0);
  const size_t batch = x_steps[0].rows();
  const size_t hidden = hidden_size();
  const std::vector<const Matrix*> weights = InputWeights();
  const bool cell = has_cell_state();

  x_steps_ = &x_steps;
  lengths_ = lengths;
  // Gates are computed directly into their cache slot, so each step
  // allocates nothing.
  EnsureStepShapes(&h_, num_steps + 1, batch, hidden);
  h_[0].Zero();  // zero initial state
  if (cell) {
    EnsureStepShapes(&c_, num_steps + 1, batch, hidden);
    c_[0].Zero();
  }
  for (size_t g = 0; g < weights.size(); ++g) {
    EnsureStepShapes(&gates_[g], num_steps, batch, hidden);
  }
  aux_.resize(num_steps);  // Step shapes its aux; the RNN has none

  for (size_t t = 0; t < num_steps; ++t) {
    const Matrix& x = x_steps[t];
    PR_CHECK(x.cols() == input_size());
    StepIo io{&h_[t], nullptr, {}, &aux_[t], &h_[t + 1], nullptr};
    for (size_t g = 0; g < weights.size(); ++g) {
      GemmNN(x, *weights[g], &gates_[g][t]);
      io.gates[g] = &gates_[g][t];
    }
    if (cell) {
      io.c_prev = &c_[t];
      io.c = &c_[t + 1];
    }
    Step(io);
    KeepFinishedRows(lengths_, t, h_[t], &h_[t + 1]);
    if (cell) KeepFinishedRows(lengths_, t, c_[t], &c_[t + 1]);
  }
  *final_h = h_[num_steps];
}

InputTable RecurrentLayer::BuildInputTable(const Matrix& embedding) const {
  PR_CHECK(embedding.cols() == input_size())
      << "embedding width " << embedding.cols() << " vs cell input "
      << input_size();
  InputTable table;
  for (const Matrix* w : InputWeights()) {
    // Same kernel and beta as a training step's GemmNN(x, W); only the
    // row count differs, which never changes an element's arithmetic.
    Matrix projected(embedding.rows(), w->cols());
    GemmNN(embedding, *w, &projected);
    table.gates.push_back(std::move(projected));
  }
  return table;
}

void RecurrentLayer::ForwardInference(const InputTable& table,
                                      const SequenceBatch& batch,
                                      bool mean_pool, RecurrentScratch* s,
                                      Matrix* out) const {
  const size_t batch_size = batch.batch_size;
  PR_CHECK(batch_size > 0 && batch.max_len > 0);
  PR_CHECK(table.gates.size() == InputWeights().size())
      << "input table has " << table.gates.size() << " gates, cell "
      << InputWeights().size();
  const size_t hidden = hidden_size();
  const size_t vocab = table.gates[0].rows();
  const std::vector<int32_t>& lengths = batch.lengths;

  out->Resize(batch_size, hidden);  // zero: mean pooling accumulates
  s->active.clear();
  for (size_t b = 0; b < batch_size; ++b) {
    if (lengths[b] > 0) s->active.push_back(static_cast<uint32_t>(b));
  }
  // Every row starts at the root: one zero state (LSTM: and zero cell).
  s->node_of_row.assign(batch_size, 0);
  s->h_last.Resize(1, hidden);
  s->c_last.Resize(1, hidden);

  for (size_t t = 0; !s->active.empty(); ++t) {
    // A state depends only on its prefix, so rows that agree on (node at
    // t - 1, vertex at t) share one node at t. Sorting groups them.
    s->order.clear();
    for (const uint32_t b : s->active) {
      const int32_t id = batch.id_at(b, t);
      PR_CHECK(static_cast<size_t>(id) < vocab) << "token id out of range";
      s->order.emplace_back(
          (static_cast<uint64_t>(s->node_of_row[b]) << 32) |
              static_cast<uint32_t>(id),
          b);
    }
    std::sort(s->order.begin(), s->order.end());
    s->parent.clear();
    s->vertex.clear();
    for (size_t i = 0; i < s->order.size(); ++i) {
      const uint64_t key = s->order[i].first;
      if (i == 0 || key != s->order[i - 1].first) {
        s->parent.push_back(static_cast<uint32_t>(key >> 32));
        s->vertex.push_back(static_cast<uint32_t>(key));
      }
      s->node_of_row[s->order[i].second] =
          static_cast<uint32_t>(s->parent.size() - 1);
    }

    StepIo io{&s->h_prev, nullptr, {}, &s->aux, &s->h, nullptr};
    GatherRows(s->h_last, s->parent, &s->h_prev);
    if (has_cell_state()) {
      GatherRows(s->c_last, s->parent, &s->c_prev);
      io.c_prev = &s->c_prev;
      io.c = &s->c;
    }
    for (size_t g = 0; g < table.gates.size(); ++g) {
      GatherRows(table.gates[g], s->vertex, &s->gates[g]);
      io.gates[g] = &s->gates[g];
    }
    Step(io);

    // Pool in ascending step order, as MeanPool does; copy final states
    // out at each row's own length and drop the finished rows.
    size_t kept = 0;
    for (const uint32_t b : s->active) {
      const float* src = s->h.row(s->node_of_row[b]);
      float* dst = out->row(b);
      if (mean_pool) {
        for (size_t c = 0; c < hidden; ++c) dst[c] += src[c];
      }
      if (static_cast<size_t>(lengths[b]) == t + 1) {
        if (!mean_pool) std::copy(src, src + hidden, dst);
      } else {
        s->active[kept++] = b;
      }
    }
    s->active.resize(kept);
    std::swap(s->h, s->h_last);
    std::swap(s->c, s->c_last);
  }

  if (mean_pool) {
    for (size_t b = 0; b < batch_size; ++b) {
      const float inv = 1.0f / static_cast<float>(lengths[b]);
      float* dst = out->row(b);
      for (size_t c = 0; c < hidden; ++c) dst[c] *= inv;
    }
  }
}

// ---------------------------------------------------------------- GRU ----

GruLayer::GruLayer(size_t input_size, size_t hidden_size, pathrank::Rng* rng,
                   const std::string& p)
    : RecurrentLayer(input_size, hidden_size),
      wz_(p + ".wz", input_size, hidden_size),
      wr_(p + ".wr", input_size, hidden_size),
      wh_(p + ".wh", input_size, hidden_size),
      uz_(p + ".uz", hidden_size, hidden_size),
      ur_(p + ".ur", hidden_size, hidden_size),
      uh_(p + ".uh", hidden_size, hidden_size),
      bz_(p + ".bz", 1, hidden_size),
      br_(p + ".br", 1, hidden_size),
      bh_(p + ".bh", 1, hidden_size) {
  if (rng == nullptr) return;
  for (Parameter* w : {&wz_, &wr_, &wh_, &uz_, &ur_, &uh_}) {
    XavierInit(&w->value, *rng);
  }
}

std::vector<const Matrix*> GruLayer::InputWeights() const {
  return {&wz_.value, &wr_.value, &wh_.value};
}

void GruLayer::Step(const StepIo& io) const {
  const Matrix& h_prev = *io.h_prev;
  Matrix& z = *io.gates[0];
  Matrix& r = *io.gates[1];
  Matrix& hhat = *io.gates[2];
  Matrix& rh = *io.aux;

  GemmNN(h_prev, uz_.value, &z, 1.0f, 1.0f);
  AddRowBroadcast(bz_.value, &z);
  SigmoidInPlace(&z);

  GemmNN(h_prev, ur_.value, &r, 1.0f, 1.0f);
  AddRowBroadcast(br_.value, &r);
  SigmoidInPlace(&r);

  Hadamard(r, h_prev, &rh);

  GemmNN(rh, uh_.value, &hhat, 1.0f, 1.0f);
  AddRowBroadcast(bh_.value, &hhat);
  TanhInPlace(&hhat);

  // h_new = (1 - z) * h_prev + z * hhat.
  const size_t hidden = hidden_size();
  io.h->ResizeNoZero(h_prev.rows(), hidden);
  for (size_t b = 0; b < h_prev.rows(); ++b) {
    float* hn = io.h->row(b);
    const float* hp = h_prev.row(b);
    const float* zz = z.row(b);
    const float* hh = hhat.row(b);
    for (size_t c = 0; c < hidden; ++c) {
      hn[c] = (1.0f - zz[c]) * hp[c] + zz[c] * hh[c];
    }
  }
}

void GruLayer::BackwardImpl(const Matrix* d_final_h,
                            const std::vector<Matrix>* d_h_steps,
                            std::vector<Matrix>* d_x_steps) {
  PR_CHECK(x_steps_ != nullptr) << "Backward without Forward";
  const auto& x_steps = *x_steps_;
  const size_t num_steps = x_steps.size();
  const size_t batch = x_steps[0].rows();
  const size_t hidden = hidden_size();

  EnsureStepShapes(d_x_steps, num_steps, batch, input_size());
  Matrix dh(batch, hidden);
  if (d_final_h != nullptr) dh = *d_final_h;
  // Scratch: every element is overwritten before use each step.
  Matrix dh_prev(batch, hidden);
  Matrix dhhat(batch, hidden);
  Matrix dz_raw(batch, hidden);
  Matrix da(batch, hidden);
  Matrix drh(batch, hidden);
  Matrix dr(batch, hidden);

  for (size_t t = num_steps; t-- > 0;) {
    if (d_h_steps != nullptr) dh.Add((*d_h_steps)[t]);
    const Matrix& x = x_steps[t];
    const Matrix& h_prev = h_[t];
    const Matrix& z = gates_[0][t];
    const Matrix& r = gates_[1][t];
    const Matrix& hhat = gates_[2][t];
    const auto mask = StepMask(lengths_, t);

    Matrix& dx = (*d_x_steps)[t];

    // dhhat = dh * z * m ;  dz_raw = dh * (hhat - h_prev) * m
    // dh_prev = dh * (1 - z*m)
    for (size_t b = 0; b < batch; ++b) {
      const float m = mask[b];
      const float* pdh = dh.row(b);
      const float* pz = z.row(b);
      const float* phh = hhat.row(b);
      const float* php = h_prev.row(b);
      float* pdhh = dhhat.row(b);
      float* pdz = dz_raw.row(b);
      float* pdhp = dh_prev.row(b);
      for (size_t c = 0; c < hidden; ++c) {
        const float zm = pz[c] * m;
        pdhh[c] = pdh[c] * zm;
        pdz[c] = pdh[c] * (phh[c] - php[c]) * m;
        pdhp[c] = pdh[c] * (1.0f - zm);
      }
    }

    // Candidate branch.
    TanhBackward(dhhat, hhat, &da);
    GemmTN(x, da, &wh_.grad, 1.0f, 1.0f);
    GemmTN(aux_[t], da, &uh_.grad, 1.0f, 1.0f);
    AddColumnSums(da, &bh_.grad);
    GemmNT(da, wh_.value, &dx, 1.0f, 0.0f);
    GemmNT(da, uh_.value, &drh, 1.0f, 0.0f);

    // Reset branch: drh splits into dr (through r) and dh_prev (through h).
    Hadamard(drh, h_prev, &dr);
    {
      // dh_prev += drh * r
      const float* pd = drh.data();
      const float* pr = r.data();
      float* po = dh_prev.data();
      for (size_t i = 0; i < drh.size(); ++i) po[i] += pd[i] * pr[i];
    }

    // Update gate.
    SigmoidBackward(dz_raw, z, &da);
    GemmTN(x, da, &wz_.grad, 1.0f, 1.0f);
    GemmTN(h_prev, da, &uz_.grad, 1.0f, 1.0f);
    AddColumnSums(da, &bz_.grad);
    GemmNT(da, wz_.value, &dx, 1.0f, 1.0f);
    GemmNT(da, uz_.value, &dh_prev, 1.0f, 1.0f);

    // Reset gate.
    SigmoidBackward(dr, r, &da);
    GemmTN(x, da, &wr_.grad, 1.0f, 1.0f);
    GemmTN(h_prev, da, &ur_.grad, 1.0f, 1.0f);
    AddColumnSums(da, &br_.grad);
    GemmNT(da, wr_.value, &dx, 1.0f, 1.0f);
    GemmNT(da, ur_.value, &dh_prev, 1.0f, 1.0f);

    std::swap(dh, dh_prev);
  }
  x_steps_ = nullptr;
}

ConstParameterList GruLayer::Parameters() const {
  return {&wz_, &wr_, &wh_, &uz_, &ur_, &uh_, &bz_, &br_, &bh_};
}

// ---------------------------------------------------------------- RNN ----

RnnLayer::RnnLayer(size_t input_size, size_t hidden_size, pathrank::Rng* rng,
                   const std::string& p)
    : RecurrentLayer(input_size, hidden_size),
      w_(p + ".w", input_size, hidden_size),
      u_(p + ".u", hidden_size, hidden_size),
      b_(p + ".b", 1, hidden_size) {
  if (rng == nullptr) return;
  XavierInit(&w_.value, *rng);
  XavierInit(&u_.value, *rng);
}

std::vector<const Matrix*> RnnLayer::InputWeights() const {
  return {&w_.value};
}

void RnnLayer::Step(const StepIo& io) const {
  Matrix& hnew = *io.gates[0];
  GemmNN(*io.h_prev, u_.value, &hnew, 1.0f, 1.0f);
  AddRowBroadcast(b_.value, &hnew);
  TanhInPlace(&hnew);
  *io.h = hnew;
}

void RnnLayer::BackwardImpl(const Matrix* d_final_h,
                            const std::vector<Matrix>* d_h_steps,
                            std::vector<Matrix>* d_x_steps) {
  PR_CHECK(x_steps_ != nullptr) << "Backward without Forward";
  const auto& x_steps = *x_steps_;
  const size_t num_steps = x_steps.size();
  const size_t batch = x_steps[0].rows();
  const size_t hidden = hidden_size();

  EnsureStepShapes(d_x_steps, num_steps, batch, input_size());
  Matrix dh(batch, hidden);
  if (d_final_h != nullptr) dh = *d_final_h;
  // Scratch: fully overwritten each step.
  Matrix dh_prev(batch, hidden);
  Matrix dhnew(batch, hidden);
  Matrix da(batch, hidden);

  for (size_t t = num_steps; t-- > 0;) {
    if (d_h_steps != nullptr) dh.Add((*d_h_steps)[t]);
    const Matrix& x = x_steps[t];
    const Matrix& h_prev = h_[t];
    const auto mask = StepMask(lengths_, t);

    for (size_t bb = 0; bb < batch; ++bb) {
      const float m = mask[bb];
      const float* pdh = dh.row(bb);
      float* pn = dhnew.row(bb);
      float* pp = dh_prev.row(bb);
      for (size_t c = 0; c < hidden; ++c) {
        pn[c] = pdh[c] * m;
        pp[c] = pdh[c] * (1.0f - m);
      }
    }

    TanhBackward(dhnew, gates_[0][t], &da);
    GemmTN(x, da, &w_.grad, 1.0f, 1.0f);
    GemmTN(h_prev, da, &u_.grad, 1.0f, 1.0f);
    AddColumnSums(da, &b_.grad);
    Matrix& dx = (*d_x_steps)[t];
    GemmNT(da, w_.value, &dx, 1.0f, 0.0f);
    GemmNT(da, u_.value, &dh_prev, 1.0f, 1.0f);

    std::swap(dh, dh_prev);
  }
  x_steps_ = nullptr;
}

ConstParameterList RnnLayer::Parameters() const { return {&w_, &u_, &b_}; }

// --------------------------------------------------------------- LSTM ----

LstmLayer::LstmLayer(size_t input_size, size_t hidden_size,
                     pathrank::Rng* rng, const std::string& p)
    : RecurrentLayer(input_size, hidden_size),
      wi_(p + ".wi", input_size, hidden_size),
      wf_(p + ".wf", input_size, hidden_size),
      wo_(p + ".wo", input_size, hidden_size),
      wg_(p + ".wg", input_size, hidden_size),
      ui_(p + ".ui", hidden_size, hidden_size),
      uf_(p + ".uf", hidden_size, hidden_size),
      uo_(p + ".uo", hidden_size, hidden_size),
      ug_(p + ".ug", hidden_size, hidden_size),
      bi_(p + ".bi", 1, hidden_size),
      bf_(p + ".bf", 1, hidden_size),
      bo_(p + ".bo", 1, hidden_size),
      bg_(p + ".bg", 1, hidden_size) {
  if (rng == nullptr) return;
  for (Parameter* w : {&wi_, &wf_, &wo_, &wg_, &ui_, &uf_, &uo_, &ug_}) {
    XavierInit(&w->value, *rng);
  }
  bf_.value.Fill(1.0f);  // standard forget-gate bias init
}

std::vector<const Matrix*> LstmLayer::InputWeights() const {
  return {&wi_.value, &wf_.value, &wo_.value, &wg_.value};
}

void LstmLayer::Step(const StepIo& io) const {
  const Matrix& h_prev = *io.h_prev;
  const Matrix& c_prev = *io.c_prev;
  const Parameter* u[] = {&ui_, &uf_, &uo_, &ug_};
  const Parameter* bias[] = {&bi_, &bf_, &bo_, &bg_};
  for (size_t k = 0; k < 4; ++k) {
    Matrix* gate = io.gates[k];
    GemmNN(h_prev, u[k]->value, gate, 1.0f, 1.0f);
    AddRowBroadcast(bias[k]->value, gate);
    if (k == 3) {
      TanhInPlace(gate);  // cell candidate g
    } else {
      SigmoidInPlace(gate);  // i, f, o
    }
  }

  // c_new = f * c_prev + i * g;  h_new = o * tanh(c_new).
  const Matrix& ig = *io.gates[0];
  const Matrix& fg = *io.gates[1];
  const Matrix& og = *io.gates[2];
  const Matrix& gg = *io.gates[3];
  const size_t n = h_prev.rows();
  const size_t hidden = hidden_size();
  Matrix& cn = *io.c;
  cn.ResizeNoZero(n, hidden);
  for (size_t bb = 0; bb < n; ++bb) {
    const float* pf = fg.row(bb);
    const float* pi = ig.row(bb);
    const float* pg = gg.row(bb);
    const float* pc = c_prev.row(bb);
    float* pcn = cn.row(bb);
    for (size_t cidx = 0; cidx < hidden; ++cidx) {
      pcn[cidx] = pf[cidx] * pc[cidx] + pi[cidx] * pg[cidx];
    }
  }
  Matrix& tanh_cn = *io.aux;
  tanh_cn = cn;
  TanhInPlace(&tanh_cn);

  io.h->ResizeNoZero(n, hidden);
  for (size_t bb = 0; bb < n; ++bb) {
    const float* po = og.row(bb);
    const float* ptc = tanh_cn.row(bb);
    float* ph = io.h->row(bb);
    for (size_t cidx = 0; cidx < hidden; ++cidx) {
      ph[cidx] = po[cidx] * ptc[cidx];
    }
  }
}

void LstmLayer::BackwardImpl(const Matrix* d_final_h,
                             const std::vector<Matrix>* d_h_steps,
                             std::vector<Matrix>* d_x_steps) {
  PR_CHECK(x_steps_ != nullptr) << "Backward without Forward";
  const auto& x_steps = *x_steps_;
  const size_t num_steps = x_steps.size();
  const size_t batch = x_steps[0].rows();
  const size_t hidden = hidden_size();

  EnsureStepShapes(d_x_steps, num_steps, batch, input_size());
  Matrix dh(batch, hidden);
  if (d_final_h != nullptr) dh = *d_final_h;
  Matrix dc(batch, hidden);  // zero: loss reads h only
  // Scratch: fully overwritten each step.
  Matrix dh_prev(batch, hidden);
  Matrix dc_prev(batch, hidden);
  Matrix dgate(batch, hidden);
  Matrix da(batch, hidden);
  Matrix dc_new(batch, hidden);
  Matrix dh_new(batch, hidden);

  for (size_t t = num_steps; t-- > 0;) {
    if (d_h_steps != nullptr) dh.Add((*d_h_steps)[t]);
    const Matrix& x = x_steps[t];
    const Matrix& h_prev = h_[t];
    const Matrix& c_prev = c_[t];
    const Matrix& ig = gates_[0][t];
    const Matrix& fg = gates_[1][t];
    const Matrix& og = gates_[2][t];
    const Matrix& gg = gates_[3][t];
    const Matrix& tanh_c_new = aux_[t];
    const auto mask = StepMask(lengths_, t);

    Matrix& dx = (*d_x_steps)[t];

    // Pointwise split of dh/dc across the mask, and cell backward.
    for (size_t bb = 0; bb < batch; ++bb) {
      const float m = mask[bb];
      const float* pdh = dh.row(bb);
      const float* pdc = dc.row(bb);
      const float* po = og.row(bb);
      const float* ptc = tanh_c_new.row(bb);
      const float* pf = fg.row(bb);
      float* pdhn = dh_new.row(bb);
      float* pdcn = dc_new.row(bb);
      float* pdhp = dh_prev.row(bb);
      float* pdcp = dc_prev.row(bb);
      for (size_t cidx = 0; cidx < hidden; ++cidx) {
        const float dhn = pdh[cidx] * m;
        pdhn[cidx] = dhn;
        const float dcn =
            pdc[cidx] * m + dhn * po[cidx] * (1.0f - ptc[cidx] * ptc[cidx]);
        pdcn[cidx] = dcn;
        pdhp[cidx] = pdh[cidx] * (1.0f - m);
        pdcp[cidx] = pdc[cidx] * (1.0f - m) + dcn * pf[cidx];
      }
    }

    auto backprop_gate = [&](const Matrix& dgate_raw, const Matrix& act,
                             bool is_tanh, Parameter& w, Parameter& u,
                             Parameter& b, bool first_dx) {
      if (is_tanh) {
        TanhBackward(dgate_raw, act, &da);
      } else {
        SigmoidBackward(dgate_raw, act, &da);
      }
      GemmTN(x, da, &w.grad, 1.0f, 1.0f);
      GemmTN(h_prev, da, &u.grad, 1.0f, 1.0f);
      AddColumnSums(da, &b.grad);
      GemmNT(da, w.value, &dx, 1.0f, first_dx ? 0.0f : 1.0f);
      GemmNT(da, u.value, &dh_prev, 1.0f, 1.0f);
    };

    // Output gate: dO = dh_new * tanh_c_new.
    Hadamard(dh_new, tanh_c_new, &dgate);
    backprop_gate(dgate, og, false, wo_, uo_, bo_, /*first_dx=*/true);
    // Input gate: dI = dc_new * g.
    Hadamard(dc_new, gg, &dgate);
    backprop_gate(dgate, ig, false, wi_, ui_, bi_, false);
    // Forget gate: dF = dc_new * c_prev.
    Hadamard(dc_new, c_prev, &dgate);
    backprop_gate(dgate, fg, false, wf_, uf_, bf_, false);
    // Cell candidate: dG = dc_new * i.
    Hadamard(dc_new, ig, &dgate);
    backprop_gate(dgate, gg, true, wg_, ug_, bg_, false);

    std::swap(dh, dh_prev);
    std::swap(dc, dc_prev);
  }
  x_steps_ = nullptr;
}

ConstParameterList LstmLayer::Parameters() const {
  return {&wi_, &wf_, &wo_, &wg_, &ui_, &uf_, &uo_, &ug_,
          &bi_, &bf_, &bo_, &bg_};
}

std::unique_ptr<RecurrentLayer> MakeRecurrentLayer(
    CellType type, size_t input_size, size_t hidden_size, pathrank::Rng* rng,
    const std::string& name_prefix) {
  switch (type) {
    case CellType::kGru:
      return std::make_unique<GruLayer>(input_size, hidden_size, rng,
                                        name_prefix);
    case CellType::kRnn:
      return std::make_unique<RnnLayer>(input_size, hidden_size, rng,
                                        name_prefix);
    case CellType::kLstm:
      return std::make_unique<LstmLayer>(input_size, hidden_size, rng,
                                         name_prefix);
  }
  return nullptr;
}

}  // namespace pathrank::nn
