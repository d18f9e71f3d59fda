"""The response model and its calibration."""

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.targets import PAPER, simulation_targets
from repro.simulation import ModelKnobs, ResponseModel, assemble_waves, calibrate
from repro.simulation import model as model_module
from repro.simulation.model import CATEGORIES, STATISTICS, WAVES, pearson_r
from repro.survey.instrument import ELEMENT_NAMES, team_design_skills_survey
from repro.survey.scales import Category

TARGETS = simulation_targets(PAPER)


def small_model(seed=11, n=30):
    return ResponseModel(ELEMENT_NAMES, n_students=n, seed=seed)


class TestModel:
    def test_scores_on_likert_grid(self):
        model = small_model()
        raw = model.generate(ModelKnobs.initial(_targets_n(30)))
        assert raw.scores.min() >= 1 and raw.scores.max() <= 5
        assert raw.scores.dtype.kind == "i"

    def test_shape(self):
        model = small_model()
        raw = model.generate(ModelKnobs.initial(_targets_n(30)))
        assert raw.scores.shape == (30, 7, 2, 2, 5)

    def test_deterministic_given_seed_and_knobs(self):
        knobs = ModelKnobs.initial(_targets_n(30))
        a = small_model(seed=3).generate(knobs)
        b = small_model(seed=3).generate(knobs)
        assert np.array_equal(a.scores, b.scores)

    def test_different_seeds_differ(self):
        knobs = ModelKnobs.initial(_targets_n(30))
        a = small_model(seed=3).generate(knobs)
        b = small_model(seed=4).generate(knobs)
        assert not np.array_equal(a.scores, b.scores)

    def test_mu_monotonicity(self):
        """Raising a skill's latent mean raises its observed mean."""
        model = small_model(n=80)
        low = ModelKnobs.initial(_targets_n(80))
        high = low.copy()
        high.mu = high.mu + 0.3
        assert (
            model.observed(high)["skill_mean"].mean()
            > model.observed(low)["skill_mean"].mean()
        )

    def test_alpha_raises_overall_sd(self):
        model = small_model(n=80)
        knobs = ModelKnobs.initial(_targets_n(80))
        knobs.alpha = np.full((2, 2), 0.1)
        low_sd = model.observed(knobs)["overall_sd"].mean()
        knobs.alpha = np.full((2, 2), 0.9)
        high_sd = model.observed(knobs)["overall_sd"].mean()
        assert high_sd > low_sd

    def test_cq_raises_pearson(self):
        model = small_model(n=100)
        knobs = ModelKnobs.initial(_targets_n(100))
        knobs.c_q = np.full((7, 2), -0.5)
        low_r = model.observed(knobs)["pearson_r"].mean()
        knobs.c_q = np.full((7, 2), 0.9)
        high_r = model.observed(knobs)["pearson_r"].mean()
        assert high_r > low_r

    def test_composite_vs_skill_score(self):
        model = small_model()
        raw = model.generate(ModelKnobs.initial(_targets_n(30)))
        composite = raw.composite_score()
        # Composite = (def + mean(comp))/2, bounded by item range.
        assert composite.min() >= 1.0 and composite.max() <= 5.0

    def test_validates_knob_shapes(self):
        model = small_model()
        knobs = ModelKnobs.initial(_targets_n(30))
        knobs.mu = knobs.mu[:3]
        with pytest.raises(ValueError):
            model.generate(knobs)

    def test_validates_alpha_range(self):
        model = small_model()
        knobs = ModelKnobs.initial(_targets_n(30))
        knobs.alpha = np.full((2, 2), 1.5)
        with pytest.raises(ValueError):
            model.generate(knobs)

    def test_rejects_tiny_cohort(self):
        with pytest.raises(ValueError):
            ResponseModel(ELEMENT_NAMES, n_students=1)

    def test_rejects_a_single_item_per_skill(self):
        # The composite needs a definition item plus >= 1 component;
        # one item used to give silent NaN composites.
        with pytest.raises(ValueError, match="at least 2 items"):
            ResponseModel(ELEMENT_NAMES, n_students=30, items_per_skill=1)


def _targets_n(n):
    """Paper targets with a different cohort size (for small fast models)."""
    base = simulation_targets(PAPER)
    from repro.simulation.model import SimulationTargets
    return SimulationTargets(
        skills=base.skills,
        n_students=n,
        skill_means=dict(base.skill_means),
        overall_sd=dict(base.overall_sd),
        pearson_r=dict(base.pearson_r),
    )


class TestTargets:
    def test_paper_targets_complete(self):
        assert len(TARGETS.skill_means) == 7 * 2 * 2
        assert len(TARGETS.pearson_r) == 14
        assert len(TARGETS.overall_sd) == 4

    def test_overall_means_consistent_with_per_skill(self):
        """Paper self-consistency: mean of Table 5 w1 = Table 2 M1, etc."""
        w1_emph = np.mean([
            v for (s, c, w), v in TARGETS.skill_means.items()
            if c == "class_emphasis" and w == "first_half"
        ])
        assert w1_emph == pytest.approx(PAPER.table2.mean1, abs=0.01)
        w1_growth = np.mean([
            v for (s, c, w), v in TARGETS.skill_means.items()
            if c == "personal_growth" and w == "first_half"
        ])
        assert w1_growth == pytest.approx(PAPER.table3.mean1, abs=0.01)

    def test_rejects_incomplete_targets(self):
        from repro.simulation.model import SimulationTargets
        with pytest.raises(ValueError):
            SimulationTargets(
                skills=("a",), n_students=10,
                skill_means={}, overall_sd={}, pearson_r={},
            )


class TestCalibration:
    def test_converges_on_default_seed(self, calibrated_model):
        _model, _targets, result = calibrated_model
        assert result.converged
        assert result.max_mean_error <= 0.005
        assert result.max_sd_error <= 0.005
        assert result.max_r_error <= 0.02

    def test_observed_statistics_match_paper(self, calibrated_model):
        model, targets, result = calibrated_model
        obs = model.observed(result.knobs)
        for ci, cat in enumerate(CATEGORIES):
            for wi, wave in enumerate(WAVES):
                assert obs["overall_sd"][ci, wi] == pytest.approx(
                    targets.overall_sd[(cat, wave)], abs=0.006
                )
        for ki, skill in enumerate(targets.skills):
            for wi, wave in enumerate(WAVES):
                assert obs["pearson_r"][ki, wi] == pytest.approx(
                    targets.pearson_r[(skill, wave)], abs=0.025
                )

    def test_mismatched_skills_rejected(self):
        model = ResponseModel(("only",), n_students=124)
        with pytest.raises(ValueError):
            calibrate(model, TARGETS)

    def test_mismatched_cohort_rejected(self):
        model = ResponseModel(ELEMENT_NAMES, n_students=50)
        with pytest.raises(ValueError):
            calibrate(model, TARGETS)

    def test_uncalibrated_model_misses_targets(self):
        """The ablation: naive knobs do NOT reproduce the paper — evidence
        the tables are regenerated, not hard-coded."""
        model = ResponseModel(ELEMENT_NAMES, n_students=124, seed=2018)
        naive = model.observed(ModelKnobs.initial(TARGETS))
        r_err = 0.0
        for ki, skill in enumerate(TARGETS.skills):
            for wi, wave in enumerate(WAVES):
                r_err = max(r_err, abs(
                    naive["pearson_r"][ki, wi] - TARGETS.pearson_r[(skill, wave)]
                ))
        assert r_err > 0.02  # outside the calibrated tolerance


def _knob_digest(knobs):
    h = hashlib.sha256()
    for array in (knobs.mu, knobs.alpha, knobs.c_q, np.float64(knobs.rho_p)):
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


#: Per seed: sha256 of the calibrated knob bytes (mu, alpha, c_q, rho_p),
#: rounds, converged, and the max |mean|, |sd| and |r| errors, recorded
#: with per-cell ``np.corrcoef`` and every statistic on every step.
#: Seeds 1, 2 and 3 hit MAX_ROUNDS without converging.
GOLDEN_CALIBRATION = {
    1: ("0cbdee4fcf792b47b44ca6e41d1b5e7668b5c836d9fb622f110a3de229553cb6",
        60, False, 0.012822580645161175, 0.0021098658553887206,
        0.01782597520593021),
    2: ("c63853f59bf8f8908d80505aed047445cfa97f4aa471ee899f7041156b78fde7",
        60, False, 0.016411290322580818, 0.002165582567043467,
        0.029342567348669246),
    3: ("5d1b2f6fdb4c16457be137e96557458bb679ff32f3b5677b7d70ad34c8253c75",
        60, False, 0.02548387096774185, 0.001843500457496261,
        0.04122181061333341),
    7: ("a31e45ec9ae188f2f2754b4c1efcc5cbdb972855bc523cbbc7fcd6b0c93ee3b3",
        52, True, 0.0046774193548388965, 0.0016338461728895304,
        0.010474319025539858),
    17: ("59ab9bb5e6e319d2331f1bf18d84906c4bb572ff8e81fb1b6dc76e320dda6c2f",
         16, True, 0.004153225806451388, 0.0034500032325193164,
         0.013914446695607041),
    2018: ("16e39774ccb69cdc0b17f7e75ad82e658db70cdc13fc08340437b3850d22250f",
           10, True, 0.004274193548386762, 0.0005760528049141012,
           0.015407437758471532),
}


def _calibrated(seed):
    model = ResponseModel(TARGETS.skills, TARGETS.n_students, seed=seed)
    return model, calibrate(model, TARGETS)


def _same_bits(a, b):
    """Equal bit for bit, NaN in the same cells."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


class TestCalibrationFastPath:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_CALIBRATION))
    def test_calibration_matches_the_golden_pin(self, seed):
        _model, result = _calibrated(seed)
        got = (_knob_digest(result.knobs), result.rounds, result.converged,
               result.max_mean_error, result.max_sd_error, result.max_r_error)
        assert got == GOLDEN_CALIBRATION[seed]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batched_pearson_is_the_corrcoef_loop_bit_for_bit(self, data):
        cells = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(2, 150))
        grid = data.draw(st.booleans())
        # Skill scores sit on a 1/5 grid in [1, 5]; also try raw floats.
        values = (st.integers(5, 25).map(lambda v: v / 5) if grid
                  else st.floats(-1e3, 1e3, allow_nan=False))
        x = np.array(data.draw(st.lists(values, min_size=cells * n,
                                        max_size=cells * n))).reshape(cells, n)
        y = np.array(data.draw(st.lists(values, min_size=cells * n,
                                        max_size=cells * n))).reshape(cells, n)
        for row in data.draw(st.lists(st.integers(0, 2 * cells - 1),
                                      max_size=2)):
            target = x if row < cells else y
            target[row % cells] = target[row % cells, 0]   # constant column
        with np.errstate(all="ignore"):
            expected = np.array([np.corrcoef(x[i], y[i])[0, 1]
                                 for i in range(cells)])
            got = pearson_r(x, y)
            # Strided views, as ``observed`` passes them, change nothing.
            strided = pearson_r(np.asfortranarray(x), np.asfortranarray(y))
        assert _same_bits(got, expected)
        assert _same_bits(strided, expected)

    def test_batched_pearson_gives_nan_for_a_constant_column(self):
        x = np.array([[3.0, 3.0, 3.0], [1.0, 2.0, 4.0]])
        y = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 8.0]])
        with np.errstate(all="ignore"):
            r = pearson_r(x, y)
        assert np.isnan(r[0]) and r[1] == 1.0

    @pytest.mark.parametrize("stat", STATISTICS)
    def test_observed_subset_equals_the_full_statistic(self, stat):
        model = ResponseModel(TARGETS.skills, TARGETS.n_students, seed=3)
        knobs = ModelKnobs.initial(TARGETS)
        subset = model.observed(knobs, stats=(stat,))
        assert set(subset) == {stat}
        assert _same_bits(subset[stat], model.observed(knobs)[stat])

    def test_observed_rejects_an_unknown_statistic(self):
        with pytest.raises(ValueError, match="unknown statistics"):
            small_model().observed(ModelKnobs.initial(_targets_n(30)),
                                   stats=("median",))

    def test_pearson_runs_at_most_twice_per_round(self, monkeypatch):
        calls = []

        def counted(x, y):
            calls.append(1)
            return pearson_r(x, y)

        monkeypatch.setattr(model_module, "pearson_r", counted)
        _model, result = _calibrated(3)
        assert result.rounds == 60
        assert 0 < len(calls) <= 2 * result.rounds

    def test_concurrent_calibrations_of_one_model_agree(self):
        model = ResponseModel(TARGETS.skills, TARGETS.n_students, seed=2018)
        results = [None] * 4

        def run(i):
            results[i] = calibrate(model, TARGETS)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        digests = {_knob_digest(r.knobs) for r in results}
        assert digests == {GOLDEN_CALIBRATION[2018][0]}


class TestAssemble:
    def test_round_trip_preserves_scores(self, calibrated_model):
        model, targets, result = calibrated_model
        raw = model.generate(result.knobs)
        ids = [f"s{i:03d}" for i in range(targets.n_students)]
        waves = assemble_waves(raw, team_design_skills_survey(), ids)
        assert set(waves) == {"first_half", "second_half"}
        wave = waves["first_half"]
        assert wave.n == targets.n_students
        wave.validate()
        # Spot-check one cell: student 0, skill 0, emphasis, wave 1.
        response = wave.by_student()["s000"]
        rating = response.rating(ELEMENT_NAMES[0], Category.CLASS_EMPHASIS)
        assert rating.definition == int(raw.scores[0, 0, 0, 0, 0])
        assert rating.components == tuple(int(x) for x in raw.scores[0, 0, 0, 0, 1:])

    def test_id_count_mismatch_rejected(self, calibrated_model):
        model, _targets, result = calibrated_model
        raw = model.generate(result.knobs)
        with pytest.raises(ValueError):
            assemble_waves(raw, team_design_skills_survey(), ["a", "b"])

    def test_wrong_instrument_rejected(self, calibrated_model):
        model, targets, result = calibrated_model
        raw = model.generate(result.knobs)
        from repro.survey.instrument import Element, Instrument, Item
        tiny = Instrument("t", (Element(
            "Solo", Item("S0", "d", is_definition=True), (Item("S1", "c"),),
        ),))
        ids = [f"s{i}" for i in range(targets.n_students)]
        with pytest.raises(ValueError):
            assemble_waves(raw, tiny, ids)
