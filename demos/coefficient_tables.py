"""
Exact coefficient tables and the approach of b_n/W_n to 4
=========================================================

Every coefficient of the exponential series is pi-polynomial times
e^(pi/2); the table below prints the first few exactly, then watches
the normalized ratio climb toward its limit.
"""

from fractions import Fraction

from ellipmono import b_coeff, ratio, threshold, u_coeff, v_coeff, wallis

# the first few coefficients, exactly
print("exact b_n:")
for n in range(5):
    print(f"  b_{n} = {b_coeff(n).render()}")

# the companions driving the monotonicity argument
print("\nexact u_n (positive twice, then negative forever):")
for n in range(5):
    print(f"  u_{n} = {u_coeff(n).render()}")

print("\nexact v_n (positive, decreasing from n = 1):")
for n in range(5):
    print(f"  v_{n} = {v_coeff(n).render()}")

# b_n/W_n increases to 4; the gap decays like H_n/(4n), H_n = 1 + ... + 1/n
print("\nratio b_n/W_n on a doubling ladder:")
for n in (10, 100, 1000):
    r = ratio(n, 96)
    print(f"  n = {n:5d}   ratio = {r.to_decimal(20)}"
          f"   gap to 4 = {float(4 - r.mid()):.3e}")

# the sharp parameter thresholds are exact expressions too
print("\nsharp thresholds b_k/W_k:")
for k in range(3):
    print(f"  threshold({k}) = {threshold(k).render()}")

# Wallis ratios stay exact rationals throughout
print(f"\nW_10 = {wallis(10)} = {float(wallis(10)):.10f}")
