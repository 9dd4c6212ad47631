"""Expressions, jets, and field derivatives.

Curve components are closed-form expressions in the parameter s; scalar
fields are expressions in coordinates x1..xn. Evaluating an expression as
a jet yields its truncated Taylor expansion, so every derivative used
downstream is exact rather than finite-differenced.
"""

import numpy as np

from eikohelix import eval_expr_jet, eval_field_jet, parse_curve_spec, parse_expr_text

# a component expression and its Taylor coefficients at a point
expr = parse_expr_text("sin(s) * exp(s/2)", "curve")
jet = eval_expr_jet(expr, 0.8, order=5)
print("g(s) = sin(s) exp(s/2) around s = 0.8")
print("normalized Taylor coefficients g^(j)/j!:")
print(" ", np.array2string(jet.coeffs, precision=12))
print("value g(0.8)      :", jet.value)
print("derivative g'(0.8):", jet.coeffs[1])
print()

# jets make identities exact to the carried order: sin^2 + cos^2 = 1
from eikohelix.jets import jet_cos, jet_param, jet_sin

s = jet_param(1.3, 4)
identity = jet_sin(s) * jet_sin(s) + jet_cos(s) * jet_cos(s)
print("sin^2 + cos^2 as a jet:", np.array2string(identity.coeffs, precision=3))
print()

# a scalar field carries value, gradient, and Hessian at a point
spec = parse_curve_spec(
    """
dimension = 3
curve = ["cos(s)", "sin(s)", "s"]
field = "x1^2 + x2 + x3^2"
s_range = [0, 6.2832]
"""
)
fj = eval_field_jet(spec, [1.0, 0.0, 0.0])
print("f = x1^2 + x2 + x3^2 at (1, 0, 0)")
print("value   :", fj.value)
print("gradient:", fj.gradient)
print("hessian :")
print(fj.hessian)
