"""The coefficient rules are the run rules cut short: whatever stops
`coeffs` stops `run` with the same line."""

from dataclasses import replace

from hypothesis import example, given, strategies as st

from wavetank.modes import Stratification
from wavetank.scenario import mcewan_default, validate, validate_coefficients

# every decade of the positive doubles, of either sign, and 0
magnitude = st.floats(min_value=-323.3, max_value=308.25).map(
    lambda u: 10.0 ** u)
signed = st.one_of(st.just(0.0), st.builds(
    lambda v, sign: sign * v, magnitude, st.sampled_from((1, -1))))


@example(n=1e200, depth=0.25, sigma=1.0, beta2=1.0, dx=1e-200,
         paddle=("l", 1e300))
@example(n=1e100, depth=1e100, sigma=1e308, beta2=1.0, dx=1e200,
         paddle=("a", 0.0))
@example(n=1.23, depth=0.25, sigma=float("inf"), beta2=float("nan"),
         dx=1e-3, paddle=("z0", -1.0))
@given(n=magnitude, depth=magnitude, sigma=signed, beta2=signed,
       dx=magnitude,
       paddle=st.tuples(st.sampled_from(("a", "l", "b", "z0")), signed))
def test_coefficient_violations_are_run_violations(n, depth, sigma, beta2,
                                                   dx, paddle):
    cfg = mcewan_default()
    cfg = replace(cfg, strat=Stratification(N=n, depth=depth), sigma=sigma,
                  beta2=beta2, grid=replace(cfg.grid, h_x=dx),
                  paddle=replace(cfg.paddle, **dict([paddle])))
    run = validate(cfg)
    assert all(line in run for line in validate_coefficients(cfg))
