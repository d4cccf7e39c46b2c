"""When does the closed-form envelope apply, and what happens outside it.

The log(2/delta) formula needs the posterior variance to stay below
0.75 sigma_n^2 everywhere, a zero-mean full-support prior, and delta
at most delta0 = min(F_Y(-M), 1 - F_Y(M)), the tail mass beyond the
threshold M past which the marginal density is monotone. delta0 is
None when M is unknown or the marginal density is not unimodal (the
bimodal mixture below). This script walks four priors through those
hypotheses and shows the envelope output in each regime.
"""

from gausspml import (
    GaussianMixturePrior,
    GaussianPrior,
    Mechanism,
    StronglyLogConcavePrior,
)
from gausspml.envelope import condition_report, delta0_estimate, envelope_point


def describe(name, m):
    r = condition_report(m)
    print(f"{name}:")
    print(
        f"  sup posterior variance {r.sup_posterior_variance:.4f}"
        f" vs threshold {r.variance_threshold:.4f}"
        f" -> variance_ok={r.variance_ok}"
    )
    print(
        "  log-concavity with the required curvature floor "
        f"1/(3 sigma_n^2): slc_ok={r.slc_ok}"
    )
    print(f"  gaussian variance-ratio shortcut: {r.gaussian_ratio_ok}")
    print(f"  tail unimodality threshold M: {r.tail_unimodal_M}")
    d0 = delta0_estimate(m)
    print(f"  delta0 = {d0}")
    for delta in (0.05, 0.3):
        if not (0.0 < delta < 0.5):
            continue
        pt = envelope_point(m, delta)
        print(f"  envelope at delta={delta}: {float(pt.epsilon_d):.6f} [{pt.regime}]")
    print()


def main():
    describe("N(0,1) prior, sigma_n=1 (inside every hypothesis)",
             Mechanism(GaussianPrior(1.0), 1.0))

    # variance ratio 4 > 3: the Gaussian shortcut fails and the
    # posterior variance 0.8 exceeds 0.75, so only the search bound
    # is available
    describe("N(0,4) prior, sigma_n=1 (variance too large)",
             Mechanism(GaussianPrior(2.0), 1.0))

    describe("strongly log-concave, beta=1 c=1 p=4",
             Mechanism(StronglyLogConcavePrior(1.0, 1.0, 4.0), 1.0))

    # not log-concave at all; the closed form is gated off even
    # though a tail threshold M exists
    describe("mixture 0.5 N(-2,1) + 0.5 N(2,1)",
             Mechanism(GaussianMixturePrior((0.5, 0.5), (-2.0, 2.0), (1.0, 1.0)), 1.0))


if __name__ == "__main__":
    main()
