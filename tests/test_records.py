"""The frozen records: construction, equality, hash, repr and immutability.

Every parameter and result record keeps the behaviour callers rely on: arguments
bind by position, keyword and default, equality holds only within one class,
hash and repr follow the fields (the bit pins hash reprs), and no field can be
assigned or deleted.
"""

import copy
import pickle

import pytest

from errstat import (
    RNG_ALGORITHM,
    AlternativeSpec,
    CostParams,
    CostSimEstimate,
    GaussianTestModel,
    LagFit,
    ObservedResult,
    PriorOdds,
    PValueSimSummary,
    ScreeningParams,
    Series,
    SeverityClaim,
    SimConfig,
    SimOutcome,
    SummaryStats,
    Tail,
)
from errstat.errors import Record

_UPPER = "<Tail.ONE_SIDED_UPPER: 'one_sided_upper'>"

_REPRS = [
    (lambda: GaussianTestModel(0.5, 3), f"GaussianTestModel(effect_size=0.5, n=3, tail={_UPPER})"),
    (lambda: AlternativeSpec(0.5, 3), f"AlternativeSpec(effect_size=0.5, n=3, tail={_UPPER})"),
    (lambda: SimConfig(10, 1), "SimConfig(num_trials=10, seed=1, prior_null=0.5, alpha=0.05, "
                               f"effect_size=0.5, n_per_study=1, tail={_UPPER})"),
    (lambda: ScreeningParams(0.05, 0.8, 0.5),
     "ScreeningParams(alpha=0.05, power=0.8, prior_null=0.5)"),
    (lambda: PriorOdds(0.25), "PriorOdds(ratio=0.25)"),
    (lambda: CostParams(1, 2, 0.5),
     "CostParams(cost_type1=1.0, cost_type2=2.0, prior_good=0.5, mu0=0.0, mu1=1.0, sigma=1.0)"),
    (lambda: ObservedResult(2), "ObservedResult(d_observed=2.0)"),
    (lambda: SummaryStats(1.0, 0.5, n=12), "SummaryStats(estimate=1.0, stderr=0.5, n=12, df=None)"),
    (lambda: SeverityClaim("less_than", 1),
     "SeverityClaim(direction=<ClaimDirection.LESS_THAN: 'less_than'>, bound=1.0)"),
    (lambda: Series([1, 2, 3.5], 1990), "Series(values=(1.0, 2.0, 3.5), start_label=1990)"),
    (lambda: LagFit(0.5, 0.25, 0.125, 0.75, 9, 2.0, 0.0625),
     "LagFit(beta0=0.5, beta1=0.25, stderr_beta1=0.125, r=0.75, n_pairs=9, t_stat=2.0, "
     "p_two_sided_t=0.0625)"),
    (lambda: SimOutcome.from_counts(1, 2, 3, 4),
     "SimOutcome(true_pos=1, false_pos=2, true_neg=3, false_neg=4, "
     "empirical_fpr=0.6666666666666666, empirical_power=0.2, mc_stderr_fpr=0.2721655269759087, "
     f"rng={RNG_ALGORITHM!r})"),
    (lambda: PValueSimSummary(1, (0.5,) * 2, (1.0,), 0.5, 0.0, 1),
     "PValueSimSummary(num_trials=1, deciles=(0.5, 0.5), cdf_at_reference_deciles=(1.0,), "
     f"supnorm_vs_reference=0.5, delta=0.0, n_per_study=1, rng={RNG_ALGORITHM!r})"),
    (lambda: CostSimEstimate(1.5, None, 1),
     f"CostSimEstimate(mean_cost=1.5, stderr=None, num_trials=1, rng={RNG_ALGORITHM!r})"),
]

# Each record with every argument by keyword, a non-default value in each optional field,
# and the number of leading arguments that have no default.
_ARGUMENTS = [
    (GaussianTestModel, {"effect_size": 0.5, "n": 3, "tail": Tail.TWO_SIDED}, 1),
    (AlternativeSpec, {"delta": 0.5, "n": 3, "tail": Tail.TWO_SIDED}, 1),
    (SimConfig, {"num_trials": 10, "seed": 1, "prior_null": 0.25, "alpha": 0.01,
                 "effect_size": 1.5, "n_per_study": 4, "tail": Tail.TWO_SIDED}, 2),
    (ScreeningParams, {"alpha": 0.05, "power": 0.8, "prior_null": 0.5}, 3),
    (PriorOdds, {"ratio": 0.25}, 1),
    (CostParams, {"cost_type1": 1.0, "cost_type2": 2.0, "prior_good": 0.5, "mu0": -1.0,
                  "mu1": 2.0, "sigma": 3.0}, 3),
    (ObservedResult, {"d_observed": 2.0}, 1),
    (SummaryStats, {"estimate": 1.0, "stderr": 0.5, "n": 12, "df": 7}, 2),
    (SeverityClaim, {"direction": "less_than", "bound": 1.0}, 2),
    (Series, {"values": (1.0, 2.0, 3.5), "start_label": 1990}, 1),
    (LagFit, {"beta0": 0.5, "beta1": 0.25, "stderr_beta1": 0.125, "r": 0.75, "n_pairs": 9,
              "t_stat": 2.0, "p_two_sided_t": 0.0625}, 7),
    (SimOutcome, {"true_pos": 1, "false_pos": 2, "true_neg": 3, "false_neg": 4,
                  "empirical_fpr": 0.5, "empirical_power": 0.25, "mc_stderr_fpr": None,
                  "rng": "other"}, 7),
    (PValueSimSummary, {"num_trials": 1, "deciles": (0.5,), "cdf_at_reference_deciles": (1.0,),
                        "supnorm_vs_reference": 0.5, "delta": 0.0, "n_per_study": 1,
                        "rng": "other"}, 6),
    (CostSimEstimate, {"mean_cost": 1.5, "stderr": None, "num_trials": 1, "rng": "other"}, 3),
]
_IDS = [cls.__name__ for cls, *_ in _ARGUMENTS]


def _subclasses(cls) -> set:
    return {sub for direct in cls.__subclasses__() for sub in {direct, *_subclasses(direct)}}


def test_every_record_is_covered():
    # the 13 records and AlternativeSpec, a GaussianTestModel
    assert [make().__class__ for make, _ in _REPRS] == [cls for cls, *_ in _ARGUMENTS]
    assert _subclasses(Record) == {cls for cls, *_ in _ARGUMENTS} and len(_ARGUMENTS) == 14


@pytest.mark.parametrize("make, text", _REPRS, ids=_IDS)
def test_repr_is_pinned(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("cls, kwargs, required", _ARGUMENTS, ids=_IDS)
def test_arguments_bind_by_position_keyword_and_default(cls, kwargs, required):
    values = list(kwargs.values())
    _, *rest = kwargs
    record = cls(*values)
    assert cls(**kwargs) == record
    assert cls(values[0], **{name: kwargs[name] for name in rest}) == record
    # the omitted fields take the class defaults, through __post_init__ like any other
    defaulted = cls(*values[:required])
    assert all(getattr(defaulted, name) == getattr(cls, name) for name in list(kwargs)[required:])
    assert defaulted == cls(**{name: kwargs[name] for name in list(kwargs)[:required]})


@pytest.mark.parametrize("cls, kwargs, required", _ARGUMENTS, ids=_IDS)
def test_a_missing_unknown_repeated_or_extra_argument_is_a_type_error(cls, kwargs, required):
    values = list(kwargs.values())
    first = next(iter(kwargs))
    with pytest.raises(TypeError):
        cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError):  # CostParams(1.0, 2.0, 0.5, cost_type1=1.0)
        cls(*values[:required], **{first: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[-1])


def _examples():
    # two records of each class that differ in one field
    return [make() for make, _ in _REPRS] + [
        GaussianTestModel(0.5, 4), AlternativeSpec(0.5, 4), SimConfig(10, 2),
        ScreeningParams(0.05, 0.8, 0.25), PriorOdds(0.5), CostParams(1, 2, 0.5, sigma=2),
        ObservedResult(-2), SummaryStats(1.0, 0.5), SeverityClaim("greater_than", 1),
        Series([1, 2, 3.5]), LagFit(0.5, 0.25, 0.125, 0.75, 8, 2.0, 0.0625),
        SimOutcome.from_counts(1, 2, 4, 3), PValueSimSummary(2, (0.5,) * 2, (1.0,), 0.5, 0.0, 1),
        CostSimEstimate(1.5, 0.5, 2)]


def test_records_equal_and_hash_by_their_fields_within_one_class():
    first, second = _examples(), _examples()
    for i, a in enumerate(first):
        assert [a == b for b in second] == [i == j for j in range(len(second))], a
        assert [a != b for b in second] == [i != j for j in range(len(second))], a
        assert hash(a) == hash(second[i])
        assert pickle.loads(pickle.dumps(a)) == copy.deepcopy(a) == a
    assert GaussianTestModel(0.5, 3) != AlternativeSpec(0.5, 3)
    assert AlternativeSpec(0.5, 3) != GaussianTestModel(0.5, 3)
    assert len({GaussianTestModel(0.5, 3), GaussianTestModel(0.5, 3), AlternativeSpec(0.5, 3)}) == 2


@pytest.mark.parametrize("cls, kwargs, required", _ARGUMENTS, ids=_IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, kwargs, required):
    record = cls(*kwargs.values())
    text = repr(record)
    for name in {*cls._fields, *kwargs, "extra"}:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text and not hasattr(record, "extra")


@pytest.mark.parametrize("cls, kwargs, required", _ARGUMENTS, ids=_IDS)
def test_fields_are_the_annotated_names_in_order(cls, kwargs, required):
    # the field walk that analyze --csv writes its fit with; AlternativeSpec keeps its base's
    fields = ("effect_size", "n", "tail") if cls is AlternativeSpec else tuple(kwargs)
    assert cls._fields == fields
