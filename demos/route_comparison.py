#!/usr/bin/env python3
"""Compute one two-point moment three independent ways and show the receipts.

Route A sums cluster integrals over integer partitions, route B does a single
nested-contour integral, and the closed form comes from collapsing the nested
double integral with a Laplace-transform trick:

    u2(t, x1, x2) = e^{-(x1^2+x2^2)/(2t)} / (2 pi t)
                    * [1 + (sqrt(pi t)/2) e^{b^2 t/4} (1 + erf(b sqrt(t)/2))],
    b = 1 - |x2 - x1| / t.

All three should agree to quadrature accuracy; the partition route also prints
its per-partition breakdown so you can see how much the off-diagonal cluster
contributes at each t.
"""

from bosegas import MomentRequest, cluster_breakdown, moment_nested_contours, two_point_moment


def main():
    print(f"{'t':>5} {'x':>12} {'partition sum':>15} {'nested':>15} "
          f"{'closed form':>15} {'worst rel':>10}")
    for t in (0.2, 0.5, 1.0, 2.0):
        for x in ((0.0, 0.0), (0.0, 0.7)):
            req = MomentRequest(t, x)
            pieces = cluster_breakdown(req)
            total = sum(r.value.to_complex().real for _, r in pieces)
            nested = moment_nested_contours(req).value.to_complex().real
            exact = two_point_moment(t, *x)
            worst = max(abs(total - exact), abs(nested - exact)) / exact
            print(f"{t:>5} {str(x):>12} {total:>15.10f} {nested:>15.10f} "
                  f"{exact:>15.10f} {worst:>10.1e}")

    print()
    print("per-partition split at t=0.5, x=(0,0):")
    for p, res in cluster_breakdown(MomentRequest(0.5, (0.0, 0.0))):
        v = res.value.to_complex().real
        print(f"  lambda = {str(p):6s} -> {v:+.10f}")
    print("the (1,1) term is the plain heat-kernel product; everything above")
    print("it is the attractive-interaction correction.")


if __name__ == "__main__":
    main()
