import numpy as np
import pytest

from eigenuq import features


class FakeState:
    """Minimal duck-typed channel state for feature extraction."""

    def __init__(self, n=16, re_tau=550.0, seed=0):
        r = np.random.default_rng(seed)
        self.re_tau = re_tau
        self.y_plus = np.linspace(0.0, re_tau, n)
        self.U_plus = np.linspace(0.0, 22.0, n)
        self.k_plus = r.uniform(0.0, 5.0, n)
        self.omega_plus = r.uniform(1e-3, 10.0, n)
        self.nu_t_plus = r.uniform(0.0, 80.0, n)
        self.dUdy_plus = r.uniform(-1.0, 1.0, n)


def reference_row(st, i):
    """One node's features from Python scalars, with the same IEEE
    operations in the same order as the vectorized matrix."""
    y, u, k, om, nut = (
        float(a[i]) for a in (st.y_plus, st.U_plus, st.k_plus, st.omega_plus, st.nu_t_plus)
    )
    s = abs(float(st.dUdy_plus[i]))
    eps = features.BETA_STAR * k * om

    def ratio(n, d):
        denom = abs(n) + abs(d)
        return 0.0 if denom == 0.0 else n / denom

    return [
        min(np.sqrt(max(k, 0.0)) * y / 50.0, 2.0),
        ratio(k, 0.5 * u * u),
        ratio(s * k, eps),
        ratio(nut * s * s, eps),
        ratio(nut, 100.0),
        min(y, float(st.re_tau)),
    ]


class TestExtractFeatures:
    """feature_matrix column by column."""

    def test_default_names_and_shape(self):
        X = features.feature_matrix(FakeState(n=16))
        assert X.shape == (16, len(features.DEFAULT_FEATURES))

    def test_ratio_features_bounded(self):
        X = features.feature_matrix(FakeState(n=64))
        for j, name in enumerate(features.DEFAULT_FEATURES):
            if name not in ("re_wall_dist", "y_plus"):  # capped, not ratios
                assert np.all((-1.0 <= X[:, j]) & (X[:, j] <= 1.0)), name

    def test_raw_features_capped(self):
        st = FakeState()
        cols = dict(zip(features.DEFAULT_FEATURES, features.feature_matrix(st).T))
        assert np.all(cols["y_plus"] <= st.re_tau)
        assert np.all(cols["re_wall_dist"] <= 2.0)

    def test_columns_match_closed_forms(self):
        st = FakeState(n=64)
        st.k_plus[:8] = 0.0  # zero denominators
        st.omega_plus[4:12] = 0.0
        X = features.feature_matrix(st)
        for i in range(64):
            assert np.array_equal(X[i], reference_row(st, i)), i

    def test_non_finite_raises(self):
        st = FakeState()
        st.k_plus[2] = np.nan
        with pytest.raises(ValueError, match="'re_wall_dist' is not finite at grid point 2"):
            features.feature_matrix(st)

    def test_zero_state_is_well_defined(self):
        st = FakeState()
        st.k_plus[:] = 0.0
        st.nu_t_plus[:] = 0.0
        st.omega_plus[:] = 0.0
        X = features.feature_matrix(st)
        assert np.all(np.isfinite(X))
        assert np.all(X[:, 1:5] == 0.0)  # every ratio has a zero numerator


class TestFeatureMatrix:
    def test_shape_and_row_consistency(self):
        # features are pointwise: each row depends only on its own node
        st = FakeState(n=20)
        X = features.feature_matrix(st)
        assert X.shape == (20, len(features.DEFAULT_FEATURES))
        for i in (0, 7, 19):
            node = FakeState(n=1)
            for name in ("y_plus", "U_plus", "k_plus", "omega_plus", "nu_t_plus", "dUdy_plus"):
                setattr(node, name, getattr(st, name)[i : i + 1])
            assert np.array_equal(features.feature_matrix(node)[0], X[i])
