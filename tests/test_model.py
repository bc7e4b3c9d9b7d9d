import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latentpath as lp
from latentpath.errors import ModelSpecificationError, ModelSyntaxError

from conftest import model_text


def free_mask(template) -> np.ndarray:
    """Where a compiled template's free cells lie, both halves of S's."""
    mask = np.zeros(template.values.shape, dtype=bool)
    mask[template.rows, template.cols] = True
    return mask | mask.T if template.symmetric else mask


def free_cell(template, slot: int) -> tuple[int, int]:
    """The (row, col) of the free cell that holds theta[slot]."""
    c = slot - template.first
    assert 0 <= c < len(template.rows), f"theta[{slot}] is not a parameter of this template"
    return int(template.rows[c]), int(template.cols[c])


def count_free_by_enumeration(spec: lp.ModelSpec, standardize_latents=False) -> int:
    """Independent free-parameter count straight from the statement lists.

    Walks the parsed statements and applies the fixing rules directly,
    without touching the matrix builder.
    """
    fixed = dict(spec.fixed_loadings)
    t = 0
    for lat in spec.latents:
        for i, ind in enumerate(lat.indicators):
            if ind in fixed:
                continue
            if i == 0 and not standardize_latents:
                continue  # marker
            t += 1
    explicit = {(c.a, c.b): c.fixed for c in spec.covariances}
    # error variances: free unless explicitly fixed
    for ind in spec.indicator_names:
        if explicit.get((ind, ind), "free") is None or (ind, ind) not in explicit:
            t += 1
    t += sum(1 for r in spec.regressions if r.fixed is None)
    exo = spec.exogenous
    for i, a in enumerate(exo):
        if (a, a) in explicit:
            if explicit[(a, a)] is None:
                t += 1
        elif not standardize_latents:
            t += 1
        for b in exo[i + 1:]:
            pair = tuple(sorted((a, b)))
            if pair in explicit:
                if explicit[pair] is None:
                    t += 1
            else:
                t += 1
    for e in spec.endogenous:
        if (e, e) in explicit:
            if explicit[(e, e)] is None:
                t += 1
        elif not standardize_latents:
            t += 1
    # declared covariances beyond the defaults handled above
    for (a, b), fixed_val in explicit.items():
        if a == b:
            continue
        both_exo = a in exo and b in exo
        if not both_exo and fixed_val is None:
            t += 1
    return t


class TestParsing:
    def test_minimal_measurement_statement(self):
        spec = lp.parse_model("PB =~ PB1 + PB2")
        assert spec.latent_names == ["PB"]
        assert spec.latents[spec.latent_names.index("PB")].indicators == ("PB1", "PB2")

    def test_bundled_survey_model_shape(self, survey_spec):
        assert len(survey_spec.latents) == 5
        assert len(survey_spec.indicator_names) == 21
        sizes = {lat.name: len(lat.indicators) for lat in survey_spec.latents}
        assert sizes == {"ConsEth": 6, "EnvSt": 3, "PBC": 3, "PerVa": 4, "PB": 5}
        # six exogenous->endogenous paths plus one endogenous->endogenous
        endo = set(survey_spec.endogenous)
        gamma_paths = [r for r in survey_spec.regressions if r.predictor not in endo]
        beta_paths = [r for r in survey_spec.regressions if r.predictor in endo]
        assert len(gamma_paths) == 6
        assert len(beta_paths) == 1
        assert survey_spec.labels == {
            "H1": ("PB", "ConsEth"), "H2": ("PB", "EnvSt"), "H3": ("PB", "PBC"),
        }

    def test_cycle_rejected(self):
        with pytest.raises(ModelSpecificationError, match="cycle: L2 -> L1 -> L2$"):
            lp.parse_model("L1 =~ a1 + a2\nL2 =~ b1 + b2\nL1 ~ L2\nL2 ~ L1")

    def test_long_chain_within_the_recursion_limit(self):
        # the acyclicity walk keeps its own stack: 1200 latents in a row is
        # deeper than the interpreter's default recursion limit of 1000
        assert len(lp.parse_model(chain_text(1200)).regressions) == 1199
        ring = " -> ".join(f"L{i}" for i in [*range(1200), 0])
        with pytest.raises(ModelSpecificationError, match=f"cycle: {ring}$"):
            lp.parse_model(chain_text(1200) + "\nL0 ~ L1199")

    def test_cycle_report_does_not_depend_on_the_hash_seed(self):
        # X has three successors; the cycle named is the first one met
        # walking from the predictors in statement order, under every
        # string-hash seed
        text = ("A =~ a1 + a2\nB =~ b1 + b2\nC =~ c1 + c2\nX =~ x1 + x2\n"
                "A ~ X\nB ~ X\nC ~ X\nX ~ A\nX ~ B\nX ~ C")
        script = ("import sys, latentpath\n"
                  "try:\n    latentpath.parse_model(sys.argv[1])\n"
                  "except latentpath.errors.ModelSpecificationError as err:\n    print(err)\n")
        src_dir = str(Path(lp.__file__).resolve().parents[1])
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", script, text], capture_output=True,
                                  text=True, env=env, timeout=60, check=True)
            assert proc.stdout.endswith("cycle: X -> A -> X\n"), (seed, proc.stdout)

    def test_self_loop_rejected(self):
        with pytest.raises(ModelSpecificationError, match="cycle"):
            lp.parse_model("L1 =~ a1 + a2\nL1 ~ L1")

    def test_duplicate_indicator_rejected(self):
        with pytest.raises(ModelSpecificationError, match="appears under both"):
            lp.parse_model("A =~ x1 + x2\nB =~ x1 + x3")

    def test_indicator_listed_twice_under_one_latent(self):
        with pytest.raises(ModelSpecificationError) as err:
            lp.parse_model("F =~ CE1 + CE1 + CE3")
        assert str(err.value) == "indicator 'CE1' is listed twice under 'F'"

    def test_label_on_two_paths_rejected(self):
        # a label names one hypothesis; at two paths, one of them lost it
        with pytest.raises(ModelSpecificationError,
                           match=r"^label 'H1' is on both M ~ X and Y ~ M$"):
            lp.parse_model("X =~ x1 + x2 + x3\nM =~ m1 + m2 + m3\nY =~ y1 + y2 + y3\n"
                           "M ~ H1*X\nY ~ H1*M + X")

    def test_undeclared_latent_rejected(self):
        with pytest.raises(ModelSpecificationError, match="undeclared"):
            lp.parse_model("A =~ x1 + x2\nA ~ Ghost")

    def test_syntax_error_carries_line(self):
        with pytest.raises(ModelSyntaxError) as err:
            lp.parse_model("A =~ x1 + x2\n???")
        assert err.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    @pytest.mark.parametrize("line, column", [
        ("C =~ z1 + {}*z2 + z3", 11),
        ("B ~  {}*A", 6),
        ("A ~~ {}*B", 6),
    ], ids=["loading", "path", "covariance"])
    def test_non_finite_fixed_value_rejected_at_its_term(self, value, line, column):
        with pytest.raises(ModelSyntaxError) as err:
            lp.parse_model("A =~ x1 + x2 + x3\nB =~ y1 + y2 + y3\n" + line.format(value))
        assert str(err.value).startswith(f"fixed value {value!r} is not finite")
        assert (err.value.line, err.value.column) == (3, column)

    # each statement follows two good ones, so its line is 3
    @pytest.mark.parametrize("line, message, column", [
        ("C =~ z1 + + z3", "empty term", 11),
        ("C =~ z1 + 9z", "invalid name '9z'", 11),
        ("B ~ 9lab*A", "invalid label '9lab'", 5),
        ("C =~  # nothing", "empty right-hand side", 5),
        ("A ~~ B + x1", "covariance takes exactly one right-hand term", 1),
        ("A ~~ lab*B", "labels are only supported on regression terms", 6),
    ], ids=["empty-term", "name", "label", "empty-rhs", "covariance-terms", "covariance-label"])
    def test_syntax_error_names_line_and_column(self, line, message, column):
        with pytest.raises(ModelSyntaxError) as err:
            lp.parse_model("A =~ x1 + x2 + x3\nB =~ y1 + y2 + y3\n" + line)
        assert str(err.value) == f"{message} (line 3, column {column})"
        assert (err.value.line, err.value.column) == (3, column)

    @pytest.mark.parametrize("lines, message", [
        ("C =~ A + z1", "name(s) used as both latent and indicator: ['A']"),
        ("B ~ A\nB ~ A", "duplicate path B ~ A"),
        ("A ~~ ghost", "covariance names undeclared variable 'ghost'"),
        ("A ~~ B\nB ~~ A", "duplicate covariance A ~~ B"),
    ], ids=["latent-as-indicator", "duplicate-path", "covariance-undeclared",
            "duplicate-covariance"])
    def test_specification_error(self, lines, message):
        with pytest.raises(ModelSpecificationError) as err:
            lp.parse_model("A =~ x1 + x2 + x3\nB =~ y1 + y2 + y3\n" + lines)
        assert str(err.value) == message

    def test_comments_and_blank_lines_ignored(self):
        spec = lp.parse_model("# header\n\nA =~ x1 + x2  # tail comment\n")
        assert spec.latent_names == ["A"]

    def test_fixed_loading_prefix(self):
        spec = lp.parse_model("A =~ x1 + 0.5*x2")
        assert dict(spec.fixed_loadings) == {"x2": 0.5}

    def test_label_on_measurement_rejected(self):
        with pytest.raises(ModelSyntaxError, match="regression"):
            lp.parse_model("A =~ x1 + lab*x2\nB =~ y1 + y2")

    def test_redeclared_latent_rejected(self):
        with pytest.raises(ModelSpecificationError, match="declared more than once"):
            lp.parse_model("A =~ x1 + x2\nA =~ x3")

    def test_statement_order_irrelevant(self, survey_model_text):
        lines = [
            ln for ln in survey_model_text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")
        ]
        reordered = "\n".join(lines[::-1])
        assert lp.parse_model(reordered) == lp.parse_model(survey_model_text)

    def test_round_trip(self, survey_spec):
        assert lp.parse_model(model_text(survey_spec)) == survey_spec


def chain_text(n: int) -> str:
    """n one-indicator latents, each regressed on the one before it."""
    return "\n".join([f"L{i} =~ x{i}" for i in range(n)]
                     + [f"L{i} ~ L{i - 1}" for i in range(1, n)])


# fragments of the model language, so that drawn text reaches past the
# first syntax check: names, numbers, operators, comments, line breaks
MODEL_FRAGMENTS = ["A", "B", "x1", "x2", "_y.z", "1a", "0.5", "-2", "1e999", "nan",
                   "*", "+", "=~", "~~", "~", "=", " ", "\t", "\n", "#", "H1*"]


names_st = st.sampled_from(["Alpha", "Bravo", "Charly", "Delta", "Echo"])


@st.composite
def random_specs(draw):
    n_lat = draw(st.integers(2, 4))
    latents = ["Alpha", "Bravo", "Charly", "Delta"][:n_lat]
    lines = []
    counter = 0
    for lat in latents:
        k = draw(st.integers(2, 4))
        items = [f"{lat.lower()}{i}" for i in range(k)]
        counter += k
        lines.append(f"{lat} =~ " + " + ".join(items))
    # regressions along a random acyclic order (the listed order)
    for i in range(1, n_lat):
        preds = [latents[j] for j in range(i) if draw(st.booleans())]
        if preds:
            lines.append(f"{latents[i]} ~ " + " + ".join(preds))
    return "\n".join(lines)


@st.composite
def random_specs_with_covariance(draw):
    """random_specs plus one ``~~`` statement between two latents, a latent
    and an indicator, or two indicators (an error covariance), and one fixed
    value: either that statement's or a loading's."""
    text = draw(random_specs())
    spec = lp.parse_model(text)
    kind = draw(st.sampled_from(["latent", "latent_indicator", "error"]))
    if kind == "latent":
        a, b = draw(st.permutations(spec.latent_names))[:2]
    elif kind == "latent_indicator":
        a = draw(st.sampled_from(spec.latent_names))
        b = draw(st.sampled_from(spec.indicator_names))
    else:
        a, b = draw(st.permutations(spec.indicator_names))[:2]
    lines = text.splitlines()
    fix_statement = draw(st.booleans())
    if not fix_statement:
        k = draw(st.integers(0, len(spec.latents) - 1))  # the =~ lines come first
        lhs, _, rhs = lines[k].partition(" =~ ")
        items = rhs.split(" + ")
        j = draw(st.integers(0, len(items) - 1))
        items[j] = "0.8*" + items[j]
        lines[k] = f"{lhs} =~ " + " + ".join(items)
    lines.append(f"{a} ~~ {'0.1*' if fix_statement else ''}{b}")
    return "\n".join(lines)


class TestProperties:
    # Hypothesis lifts the recursion limit by some 2000 frames while it runs
    # a test, so the chain that stands for a deep model is longer than that
    @given(st.lists(st.sampled_from(MODEL_FRAGMENTS), max_size=40).map("".join))
    @example(chain_text(5000))
    @settings(max_examples=25, deadline=None)
    def test_parse_raises_only_typed_errors(self, text):
        try:
            lp.parse_model(text)
        except (ModelSyntaxError, ModelSpecificationError):
            pass

    @given(random_specs())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random_models(self, text):
        spec = lp.parse_model(text)
        assert lp.parse_model(model_text(spec)) == spec

    @given(random_specs(), st.randoms())
    @settings(max_examples=25, deadline=None)
    def test_permutation_never_changes_matrices(self, text, rnd):
        lines = text.splitlines()
        shuffled = lines[:]
        rnd.shuffle(shuffled)
        a = lp.parse_model(text)
        b = lp.parse_model("\n".join(shuffled))
        assert a == b
        order = sorted(a.indicator_names)
        ma = lp.build_matrices(a, order)
        mb = lp.build_matrices(b, order)
        assert ma.parameters == mb.parameters
        assert ma.variables == mb.variables
        # theta lists A's parameters, then S's
        assert (ma.A.run.start, ma.A.run.stop, ma.S.run.stop) == (0, ma.S.first, ma.n_free)
        for key in ("A", "S"):
            ta, tb = getattr(ma, key), getattr(mb, key)
            assert ta.symmetric == tb.symmetric
            for field in ("values", "rows", "cols", "first"):
                np.testing.assert_array_equal(getattr(ta, field), getattr(tb, field))

    @given(random_specs())
    @settings(max_examples=40, deadline=None)
    def test_marker_count_equals_latent_count(self, text):
        spec = lp.parse_model(text)
        m = lp.build_matrices(spec, spec.indicator_names)
        loadings = slice(0, m.n_observed)  # rows of A that hold loadings
        fixed = (m.A.values[loadings] == 1.0) & ~free_mask(m.A)[loadings]
        assert int(fixed.sum()) == len(spec.latents)
        # one per latent, on its first listed indicator
        rows, cols = np.nonzero(fixed)
        markers = {m.variables[c]: m.variables[r] for r, c in zip(rows, cols)}
        assert markers == {lat.name: lat.indicators[0] for lat in spec.latents}

    @given(random_specs())
    @settings(max_examples=40, deadline=None)
    def test_df_plus_t_is_moment_count(self, text):
        spec = lp.parse_model(text)
        m = lp.build_matrices(spec, spec.indicator_names)
        p = len(spec.indicator_names)
        assert lp.count_df(m) + m.n_free == p * (p + 1) // 2

    @given(random_specs())
    @settings(max_examples=40, deadline=None)
    def test_free_count_matches_enumeration(self, text):
        spec = lp.parse_model(text)
        m = lp.build_matrices(spec, spec.indicator_names)
        assert m.n_free == count_free_by_enumeration(spec)


class TestBuildMatrices:
    def test_single_latent_three_indicators(self):
        spec = lp.parse_model("F =~ f1 + f2 + f3")
        m = lp.build_matrices(spec, ["f1", "f2", "f3"])
        assert m.variables == ["f1", "f2", "f3", "F"]
        assert m.A.values[0, 3] == 1.0 and not free_mask(m.A)[0, 3]
        assert free_mask(m.A)[1:3, 3].all()
        assert m.n_free == 6  # 2 loadings + 3 errors + 1 variance

    def test_survey_model_counts(self, survey_spec):
        m = lp.build_matrices(survey_spec, survey_spec.indicator_names)
        assert m.n_free == 52
        assert m.n_free == count_free_by_enumeration(survey_spec)
        assert lp.count_df(m) == 179

    def test_standardized_latents_same_count(self, survey_spec):
        m = lp.build_matrices(survey_spec, survey_spec.indicator_names,
                              standardize_latents=True)
        assert m.n_free == 52
        # markers freed, variances fixed at one
        p = m.n_observed
        assert free_mask(m.A)[:p].sum() == p
        latent_diag = np.diag(m.S.values)[p:]
        assert np.allclose(latent_diag, 1.0)
        assert not np.diag(free_mask(m.S))[p:].any()

    def test_theta_index_is_bijection(self, survey_spec):
        m = lp.build_matrices(survey_spec, survey_spec.indicator_names)
        positions = sorted(m.labels.index(label) for label in m.labels)
        assert positions == list(range(m.n_free))

    def test_variable_order_mismatch(self, survey_spec):
        with pytest.raises(ModelSpecificationError, match="variable_order"):
            lp.build_matrices(survey_spec, ["CE1", "CE3"])

    def test_saturated_df_zero(self):
        lines = ["Lx =~ 1*x\nLy =~ 1*y", "x ~~ 0*x", "y ~~ 0*y", "Lx ~~ Ly"]
        spec = lp.parse_model("\n".join(lines))
        m = lp.build_matrices(spec, ["x", "y"])
        assert lp.count_df(m) == 0

    def test_overparameterized_flagged(self):
        # two latents on two variables: 2 errors + 2 variances + 1 cov = 5 > 3
        spec = lp.parse_model("Lx =~ 1*x\nLy =~ 1*y\nLx ~~ Ly")
        m = lp.build_matrices(spec, ["x", "y"])
        assert lp.count_df(m) == 3 - 5

    def test_error_covariance_within_block(self):
        spec = lp.parse_model("A =~ a1 + a2 + a3\na1 ~~ a2")
        m = lp.build_matrices(spec, spec.indicator_names)
        assert "a1~~a2" in m.labels
        i, j = m.variables.index("a1"), m.variables.index("a2")
        assert free_cell(m.S, m.labels.index("a1~~a2")) == (j, i)
