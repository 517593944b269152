"""Verifying the hand-derived BPTT gradients against central differences.

Builds a tiny two-layer bidirectional LSTM classifier, perturbs every single
parameter with a central difference, and compares against the analytic
backward pass, tensor by tensor: each LSTM direction's input weight W_x,
recurrent weight W_h and bias b, then the dense and output layers. The
sequences have 4 steps, so W_h is trained and checked too, except in layer
2's backward direction l2b: the dense layer reads only the last fused step,
where l2b has run one step from zero state, so its W_h and its forget-gate
rows are never read. net.params(T) leaves that W_h out and exposes only
l2b's i, c, o rows W_x[H:] and b[H:] at every T (at one step, every
direction is treated so). The scaled
residual folds an absolute tolerance into the relative error so coordinates
below the finite-difference noise floor do not produce false alarms.
"""

import numpy as np

from dbsadam import (
    LossConfig,
    SeededRng,
    SequenceNetwork,
    loss_gradient,
    loss_value,
    network_backward,
    network_forward,
    one_hot,
    softmax,
)
from dbsadam.numerics import finite_difference_gradient

rng = SeededRng(7)
net = SequenceNetwork(
    input_size=3, n_classes=3,
    hidden1=3, hidden2=2, dense_units=4,
    dropout_rate=0.0, rng=rng,
)
xs = rng.normal(size=(2, 4, 3))  # batch 2, seq len 4
labels = one_hot(np.array([0, 2]), 3)
loss_config = LossConfig(weight=0.25, gamma=2.0)  # focal loss, alpha = 0.25

params = net.params(xs.shape[1])
flat = np.concatenate([p.ravel() for p in params.values()])
print(f"network has {flat.size} parameters across {len(params)} tensors")


def assign(theta):
    offset = 0
    for p in params.values():
        p[...] = theta[offset : offset + p.size].reshape(p.shape)
        offset += p.size


def scalar_loss(theta):
    assign(theta)
    logits, _ = network_forward(net, xs)
    return loss_value(loss_config, softmax(logits), labels)


base = flat.copy()
print("running central differences over every coordinate...")
numeric = finite_difference_gradient(scalar_loss, base, h=1e-5)

assign(base)
logits, cache = network_forward(net, xs)
grads = network_backward(net, cache, loss_gradient(loss_config, logits, labels))
analytic = np.concatenate([grads[key].ravel() for key in params])

residual = np.abs(analytic - numeric) / (np.maximum(np.abs(analytic), np.abs(numeric)) + 1e-3)
print(f"worst scaled residual: {residual.max():.2e}  (tolerance 1e-5)")

offset = 0
print("\nper-tensor worst residuals:")
for name, p in params.items():
    chunk = residual[offset : offset + p.size]
    print(f"  {name:10s} {str(p.shape):10s} -> {chunk.max():.2e}")
    offset += p.size

assert residual.max() < 1e-5
print("\nevery parameter tensor agrees with the numeric oracle")
