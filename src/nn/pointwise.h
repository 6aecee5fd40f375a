#ifndef HIGNN_NN_POINTWISE_H_
#define HIGNN_NN_POINTWISE_H_

#include "nn/matrix.h"

namespace hignn {

/// \brief The elementwise forward math of the MLP layers, defined once and
/// called by both the autograd tape ops (training) and Mlp::Infer
/// (serving), so the two forwards cannot drift apart by a single bit.

/// \brief Numerically stable logistic function in double precision.
double StableSigmoid(double x);

/// \brief m.row(r)[c] += bias(0, c) for every row r (bias is 1 x cols).
void AddRowBroadcastInPlace(Matrix& m, const Matrix& bias);

/// \brief x -> float(StableSigmoid(x)) for every element.
void SigmoidInPlace(Matrix& m);

/// \brief x -> tanh(x) (float overload) for every element.
void TanhInPlace(Matrix& m);

/// \brief x -> negative_slope * x where x < 0. ReLU is slope 0.0f, which
/// maps a negative x to -0.0f.
void LeakyReluInPlace(Matrix& m, float negative_slope);

}  // namespace hignn

#endif  // HIGNN_NN_POINTWISE_H_
