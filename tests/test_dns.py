import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from eigenuq import channel, dns, features, rotation, tensors
from eigenuq.dns import ProfileParseError


class TestParseProfile:
    # the write_profile layout: y/delta y+ U+ uu+ vv+ ww+ uv+
    TEXT = "\n".join(
        [
            "% header comment",
            "# another comment style",
            "0.0   0.0  0.0 0.0 0.0 0.0  0.0",
            "0.25 45.0 12.0 1.2 0.9 0.8 -0.4",
            "0.5  90.0 16.0 2.0 1.0 0.9 -0.6",
            "1.0 180.0 18.0 3.5 1.1 1.0  0.0",
        ]
    )

    def test_basic_parse(self):
        prof = dns.parse_profile(self.TEXT, re_tau=180.0)
        assert np.allclose(prof.y_plus, [0.0, 45.0, 90.0, 180.0])
        assert np.allclose(prof.U_plus, [0.0, 12.0, 16.0, 18.0])
        assert np.allclose(prof.uu_plus, [0.0, 1.2, 2.0, 3.5])
        assert np.allclose(prof.vv_plus, [0.0, 0.9, 1.0, 1.1])
        assert np.allclose(prof.ww_plus, [0.0, 0.8, 0.9, 1.0])
        assert np.allclose(prof.uv_plus, [0.0, -0.4, -0.6, 0.0])

    def test_rows_sorted_by_wall_distance(self):
        scrambled = "\n".join(
            ["1.0 1.0 3.0 0 0 0 0", "0.0 0.0 1.0 0 0 0 0", "0.5 0.5 2.0 0 0 0 0"]
        )
        prof = dns.parse_profile(scrambled, re_tau=1.0)
        assert np.allclose(prof.y_plus, [0.0, 0.5, 1.0])
        assert np.allclose(prof.U_plus, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n_columns", [6, 8])
    def test_wrong_column_count_rejected(self, n_columns):
        lines = self.TEXT.splitlines()
        row = lines[3].split()
        lines[3] = " ".join(row[:n_columns] + ["0.0"] * (n_columns - len(row)))
        with pytest.raises(ProfileParseError, match=f"line 4: expected 7 columns, got {n_columns}"):
            dns.parse_profile("\n".join(lines), re_tau=180.0)

    @pytest.mark.parametrize("re_tau", [0.0, -180.0, np.nan, np.inf])
    def test_invalid_re_tau_rejected(self, re_tau):
        with pytest.raises(ProfileParseError, match="Re_tau must be finite and positive"):
            dns.parse_profile(self.TEXT, re_tau=re_tau)

    @pytest.mark.parametrize("y_delta, parses", [
        ("0.5000009", True), ("0.4999991", True), ("0.500002", False), ("nan", False),
    ])
    def test_y_delta_must_agree_with_y_plus_to_1e_6_of_re_tau(self, y_delta, parses):
        # line 5 holds y+ 90 at Re_tau 180
        text = self.TEXT.replace("0.5  90.0", f"{y_delta} 90.0")
        if parses:
            dns.parse_profile(text, re_tau=180.0)
            return
        with pytest.raises(ProfileParseError, match=rf"^line 5: y/delta {y_delta} at y\+ 90 "):
            dns.parse_profile(text, re_tau=180.0)

    def test_profile_of_another_re_tau_rejected(self):
        # the first row off is the second: y+ 0 agrees at any Re_tau
        with pytest.raises(ProfileParseError,
                           match=r"^line 4: y/delta 0.25 at y\+ 45 implies Re_tau = 180, not 1000$"):
            dns.parse_profile(self.TEXT, re_tau=1000.0)


class TestWriteLoadRoundTrip:
    def test_round_trip(self, tmp_path):
        prof = dns.synthetic_profile(180.0, n_points=64)
        path = tmp_path / "profile.dat"
        dns.write_profile(prof, path)
        back = dns.parse_profile(path.read_text(), re_tau=180.0)
        assert np.allclose(back.y_plus, prof.y_plus, atol=1e-9)
        assert np.allclose(back.U_plus, prof.U_plus, atol=1e-9)
        assert np.allclose(back.uv_plus, prof.uv_plus, atol=1e-9)

    @pytest.mark.parametrize("re_tau", [180.0, 550.0, 1000.0, 2000.0, 5200.0, 1e-3, 1e6])
    def test_written_profile_parses_at_its_re_tau(self, tmp_path, re_tau):
        path = tmp_path / "profile.dat"
        dns.write_profile(dns.synthetic_profile(re_tau), path)
        dns.parse_profile(path.read_text(), re_tau=re_tau)


PROFILE_FIELDS = ("y_plus", "U_plus", "uu_plus", "vv_plus", "ww_plus", "uv_plus")


def assert_valid(prof):
    prof.validate()
    for name in PROFILE_FIELDS:
        assert np.all(np.isfinite(getattr(prof, name))), name


class TestProfileProperties:
    """A profile file either fails with ProfileParseError (exit 4 through
    the CLI) or parses to a profile that ``validate`` accepts."""

    @settings(max_examples=80, deadline=None)
    @given(
        n_points=st.integers(2, 10),
        corruption=st.sampled_from(
            ["none", "unsorted", "nan", "inf", "word", "ragged", "repeated_y",
             "unrealizable", "negative_normal"]
        ),
        data=st.data(),
    )
    def test_written_profile_with_one_defect(self, tmp_path_factory, n_points, corruption, data):
        path = tmp_path_factory.mktemp("profile") / "ref.dat"
        prof = dns.synthetic_profile(180.0, n_points=n_points)
        dns.write_profile(prof, path)
        lines = path.read_text().splitlines()
        header, rows = lines[:2], [line.split() for line in lines[2:]]
        i = data.draw(st.integers(0, n_points - 1), label="row")
        # columns 1-6 are read into the profile; column 0 (y/delta) is only
        # checked against y+
        j = data.draw(st.integers(1, 6), label="column")
        if corruption == "unsorted":
            rows = data.draw(st.permutations(rows), label="order")
        elif corruption in ("nan", "inf", "word"):
            rows[i][j] = data.draw(
                st.sampled_from(
                    {"nan": ["nan", "NaN", "-nan"], "inf": ["inf", "-inf", "Infinity", "1e999"],
                     "word": ["abc", "1,5", "--1"]}[corruption]
                ),
                label="token",
            )
        elif corruption == "ragged":
            del rows[i][j]
        elif corruption == "repeated_y":
            rows.insert(i, list(rows[i]))
        elif corruption == "unrealizable":
            rows[i][6] = repr(2.0 * np.sqrt(float(rows[i][3]) * float(rows[i][4])) + 1.0)
        elif corruption == "negative_normal":
            rows[i][3 + j % 3] = "-1.0"
        path.write_text("\n".join(header + [" ".join(row) for row in rows]) + "\n")
        try:
            back = dns.parse_profile(path.read_text(), re_tau=180.0)
        except ProfileParseError:
            assert corruption not in ("none", "unsorted")
            return
        assert corruption in ("none", "unsorted"), corruption
        assert_valid(back)
        assert np.allclose(back.y_plus, prof.y_plus, rtol=1e-11)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.floats(-2.0, 200.0).map(repr),
                    st.sampled_from(["nan", "inf", "-inf", "1e999", "x", "0"]),
                ),
                min_size=6,
                max_size=8,
            ),
            max_size=6,
        ),
    )
    def test_arbitrary_tokens(self, rows):
        text = "\n".join(" ".join(row) for row in rows)
        try:
            prof = dns.parse_profile(text, re_tau=180.0)
        except ProfileParseError:
            return
        assert_valid(prof)


class TestInterpolate:
    def test_values_reproduced_on_same_grid(self):
        prof = dns.synthetic_profile(550.0, n_points=128)
        out = dns.interpolate(prof, prof.y_plus)
        assert np.allclose(out.U_plus, prof.U_plus, atol=1e-12)

    def test_monotone_no_overshoot(self):
        prof = dns.synthetic_profile(550.0, n_points=128)
        fine = np.linspace(0.0, 550.0, 2000)
        out = dns.interpolate(prof, fine)
        assert np.all(np.diff(out.U_plus) >= -1e-9)
        assert out.U_plus.max() <= prof.U_plus.max() + 1e-9

    @pytest.mark.parametrize("re_tau", [180.0, 1000.0])
    def test_equals_one_pchip_per_column(self, re_tau):
        # the five columns share one fit; each equals scipy's fit of it alone
        prof = dns.synthetic_profile(re_tau)
        target = channel.make_grid(re_tau, 193, 0.5)
        out = dns.interpolate(prof, target)
        clipped = np.clip(target, prof.y_plus[0], prof.y_plus[-1])
        for name in ("U_plus", "uu_plus", "vv_plus", "ww_plus", "uv_plus"):
            expected = PchipInterpolator(prof.y_plus, getattr(prof, name))(clipped)
            assert np.array_equal(getattr(out, name), expected), name

    @staticmethod
    @st.composite
    def fits(draw):
        """A fit of five columns at 2-300 strictly increasing abscissae from
        y+ >= 0, and targets: every breakpoint, both ends and points between.
        Column 0 rises, the others change sign; every column has flat runs,
        exact zeros and negative zeros in drawn proportions. The arrays come
        from a drawn numpy seed, which keeps a draw cheap at 300 rows."""
        n = draw(st.integers(2, 300))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        spacing = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        x = draw(st.floats(0.0, 100.0)) + np.cumsum(rng.uniform(0.01, 1.0, n) * spacing)
        y = rng.normal(size=(n, 5)) * 10.0 ** rng.uniform(-3, 3, 5)
        y[:, 0] = np.cumsum(np.abs(y[:, 0]))
        for value in (0.0, -0.0):
            y[rng.uniform(size=(n, 5)) < draw(st.floats(0.0, 0.3))] = value
        # a flat run repeats the last row that is not flat
        flat = rng.uniform(size=(n, 5)) < draw(st.floats(0.0, 0.8))
        flat[0] = False
        y = np.take_along_axis(y, np.maximum.accumulate(np.where(flat, 0, np.arange(n)[:, None])), 0)
        between = x[0] + rng.uniform(size=draw(st.integers(0, 50))) * (x[-1] - x[0])
        return x, y, np.concatenate([x, [x[0], x[-1]], np.clip(between, x[0], x[-1])])

    @settings(max_examples=200, deadline=None)
    @given(fits())
    def test_bit_identical_to_scipy_pchip(self, fit):
        x, y, t = fit
        prof = dns.DnsProfile(x[-1], x, *y.T)
        out = dns.interpolate(prof, t)
        got = np.column_stack([out.U_plus, out.uu_plus, out.vv_plus, out.ww_plus, out.uv_plus])
        expected = PchipInterpolator(x, y)(t)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_two_rows_interpolated_linearly(self):
        prof = dns.synthetic_profile(180.0, n_points=2)
        assert len(prof.y_plus) == 2
        target = np.linspace(0.0, prof.y_plus[-1], 9)
        out = dns.interpolate(prof, target)
        for name in ("U_plus", "uu_plus", "vv_plus", "ww_plus", "uv_plus"):
            expected = np.interp(target, prof.y_plus, getattr(prof, name))
            assert np.allclose(getattr(out, name), expected, rtol=1e-14, atol=1e-30), name

    def test_targets_outside_domain_rejected(self):
        prof = dns.synthetic_profile(180.0, n_points=32)
        with pytest.raises(ValueError, match="outside"):
            dns.interpolate(prof, [0.0, 200.0])


class TestSyntheticProfile:
    def test_validates_and_has_expected_shape(self):
        prof = dns.synthetic_profile(1000.0)
        prof.validate()
        assert prof.y_plus[0] == 0.0
        assert prof.y_plus[-1] == pytest.approx(1000.0)
        assert np.all(np.diff(prof.y_plus) > 0)

    def test_physical_structure(self):
        prof = dns.synthetic_profile(1000.0)
        # no-slip and monotone mean flow
        assert prof.U_plus[0] == 0.0
        assert np.all(np.diff(prof.U_plus) >= 0)
        # shear stress is negative in the bulk, zero at wall and centerline
        assert prof.uv_plus[0] == pytest.approx(0.0, abs=1e-8)
        assert np.min(prof.uv_plus) < -0.5
        # normal stresses are nonnegative
        assert np.all(prof.uu_plus >= 0)
        assert np.all(prof.vv_plus >= 0)
        assert np.all(prof.ww_plus >= 0)

    def test_log_layer_velocity_magnitude(self):
        prof = dns.synthetic_profile(1000.0)
        i = np.searchsorted(prof.y_plus, 100.0)
        u_log = np.log(100.0) / 0.41 + 5.0
        assert abs(prof.U_plus[i] - u_log) < 2.0


@pytest.fixture(scope="module")
def state_and_profile():
    """A Re_tau 180 baseline on 64 cells and the reference on its own grid."""
    cfg = channel.ChannelConfig(re_tau=180.0, n_cells=64)
    return channel.solve(cfg), dns.synthetic_profile(180.0)


def targets_on_the_state_grid(state, reference, kind):
    """``build_targets`` as it was when its caller interpolated the
    reference onto the state's grid: the targets it must still give."""
    ref = dns.interpolate(reference, state.y_plus)
    _, lam_r, frame_r, degen_r = tensors.decompose(state.tau)
    _, lam_d, frame_d, degen_d = tensors.decompose(
        tensors.stress_stack(ref.uu_plus, ref.vv_plus, ref.ww_plus, ref.uv_plus))
    keep = ~(degen_r | degen_d)
    x_r = tensors.weights_to_points(tensors.eigenvalues_to_weights(lam_r[keep]))
    x_d = tensors.weights_to_points(tensors.eigenvalues_to_weights(lam_d[keep]))
    p_corr = x_d - x_r
    Y = {"p": np.linalg.norm(p_corr, axis=1)[:, None], "pcorr": p_corr}.get(kind)
    if Y is None:
        Y = np.hstack([p_corr, rotation.extract_angles(frame_r[keep], frame_d[keep])])
    return features.feature_matrix(state)[keep], Y, int(np.count_nonzero(~keep))


class TestBuildTargets:

    @pytest.mark.parametrize("kind", list(dns.TARGET_NAMES))
    def test_reference_as_read_gives_the_targets_on_the_state_grid(self, state_and_profile,
                                                                    kind):
        st, prof = state_and_profile
        assert len(prof.y_plus) != len(st.y_plus)
        ts = dns.build_targets(st, prof, kind)
        X, Y, n_excluded = targets_on_the_state_grid(st, prof, kind)
        assert ts.X.tobytes() == X.tobytes()
        assert ts.Y.shape == Y.shape and ts.Y.tobytes() == Y.tobytes()
        assert ts.n_excluded == n_excluded

    def test_reference_short_of_re_tau_rejected(self, state_and_profile):
        st, prof = state_and_profile
        short = dns.DnsProfile(180.0, *(getattr(prof, name)[:-3] for name in PROFILE_FIELDS))
        with pytest.raises(ProfileParseError, match=r"covers y\+ up to .*needs \[0, 180\]"):
            dns.build_targets(st, short, "p")

    def test_unknown_kind_rejected(self, state_and_profile):
        st, prof = state_and_profile
        with pytest.raises(ValueError, match="unknown target kind"):
            dns.build_targets(st, prof, "q")

    @pytest.mark.parametrize("kind", list(dns.TARGET_NAMES))
    def test_shapes_and_names(self, state_and_profile, kind):
        st, prof = state_and_profile
        ts = dns.build_targets(st, prof, kind)
        assert ts.Y.shape == (ts.X.shape[0], len(dns.TARGET_NAMES[kind]))
        assert ts.X.shape[0] + ts.n_excluded == len(st.y_plus)

    def test_magnitude_is_norm_of_vector_targets(self, state_and_profile):
        st, prof = state_and_profile
        p = dns.build_targets(st, prof, "p")
        pc = dns.build_targets(st, prof, "pcorr")
        assert np.allclose(
            p.Y[:, 0], np.linalg.norm(pc.Y, axis=1), atol=1e-12
        )
