#include "quant/qat.h"

#include "nn/tape.h"

namespace diva {

std::vector<ActFakeQuant*> fake_quant_nodes(Module& m) {
  std::vector<ActFakeQuant*> out;
  m.visit([&out](Module& mod) {
    if (auto* fq = dynamic_cast<ActFakeQuant*>(&mod)) out.push_back(fq);
  });
  return out;
}

void set_quantize_enabled(Module& m, bool enabled) {
  for (ActFakeQuant* fq : fake_quant_nodes(m)) {
    fq->set_quantize_enabled(enabled);
  }
}

void calibrate(Module& m, const std::vector<Tensor>& batches) {
  DIVA_CHECK(!batches.empty(), "calibrate: no batches");
  m.set_training(true);
  {
    // No backward follows, so what the forwards record dies with the
    // scope instead of staying on the thread's default tape.
    TapeScope scope;
    for (const Tensor& batch : batches) (void)m.forward(batch);
  }
  m.set_training(false);
}

bool fully_calibrated(Module& m) {
  for (ActFakeQuant* fq : fake_quant_nodes(m)) {
    if (!fq->initialized()) return false;
  }
  return true;
}

}  // namespace diva
