#!/usr/bin/env python3
"""The full-cluster integral has an exact Gaussian evaluation — check it hard.

For the one-part partition lambda = (n) the contour integral collapses to a
single line, and that line is the centre of mass: its Gaussian integrates in
closed form to

    (n-1)!/sqrt(2 pi n t) * exp(n(n^2-1)/24 t + pairing(x) - (sum x)^2/(2nt)).

The routes use that closed form (top_cluster_integral).  This script checks
it against the trapezoid sum on the line itself, the kernel's unpinned form,
across a grid.  Agreement to ~1e-14 relative is typical.  The quadrature's
reported estimate tracks truncation only; where the printed rel err exceeds
it, the excess is rounding in the comparison itself (exponentiating a
log-difference of magnitude ~100 turns one ulp into ~1e-14).
"""

from bosegas import MomentRequest, Partition, auto_cluster_plan, integrate_tensor
from bosegas import top_cluster_closed_form, top_cluster_integral
from bosegas.kernel import cluster_integrand_batch

for n in (2, 3, 5, 7, 9):
    for t in (0.5, 2.0, 10.0):
        x = tuple(0.3 * i for i in range(n))
        p = Partition((n,))
        f = cluster_integrand_batch(t, x, p, pinned=False)
        res = integrate_tensor(f, auto_cluster_plan(t, p, x), 1, decay_rates=(n * t / 2.0,))
        want = top_cluster_closed_form(t, x)
        assert top_cluster_integral(MomentRequest(t, x)).value == want
        rel = abs(res.value.ratio_to(want) - 1.0)
        est = res.tail_bound + res.step_estimate
        print(f"n={n} t={t:>4}: log value {want.abs_log():>10.4f}  "
              f"rel err {rel:.2e}  reported estimate {est:.2e}")
