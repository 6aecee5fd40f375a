#include "nn/pointwise.h"

#include <cmath>

namespace hignn {

double StableSigmoid(double x) {
  if (x >= 0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

void AddRowBroadcastInPlace(Matrix& m, const Matrix& bias) {
  HIGNN_CHECK_EQ(bias.rows(), 1u);
  HIGNN_CHECK_EQ(m.cols(), bias.cols());
  const float* b = bias.row(0);
  for (size_t r = 0; r < m.rows(); ++r) {
    float* row = m.row(r);
    for (size_t c = 0; c < m.cols(); ++c) row[c] += b[c];
  }
}

void SigmoidInPlace(Matrix& m) {
  float* data = m.data();
  for (size_t i = 0; i < m.size(); ++i) {
    data[i] = static_cast<float>(StableSigmoid(data[i]));
  }
}

void TanhInPlace(Matrix& m) {
  float* data = m.data();
  for (size_t i = 0; i < m.size(); ++i) data[i] = std::tanh(data[i]);
}

void LeakyReluInPlace(Matrix& m, float negative_slope) {
  float* data = m.data();
  for (size_t i = 0; i < m.size(); ++i) {
    if (data[i] < 0.0f) data[i] = negative_slope * data[i];
  }
}

}  // namespace hignn
