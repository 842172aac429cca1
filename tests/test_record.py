"""lambkit.record against the standard library's dataclasses, its oracle here."""

import dataclasses

import pytest

from lambkit import record

BOTH = pytest.mark.parametrize("module", [dataclasses, record], ids=["dataclasses", "record"])


def declare(module):
    """One frozen record with a required field carrying metadata, a plain
    default, a default_factory and a __post_init__ that checks and normalises."""

    @module.dataclass(frozen=True)
    class Sample:
        width_m: float = module.field(metadata={"type": "number", "minimum": 0})
        label: str = "x"
        tags: list = module.field(default_factory=list)

        def __post_init__(self):
            if self.width_m < 0:
                raise ValueError("width_m must be non-negative")
            object.__setattr__(self, "label", self.label.strip())

    return Sample


CALLS = [((1.0,), {}), ((2.5, " a "), {}), ((2.5, "a", (1, 2)), {}),
         ((), {"width_m": 2.5, "label": "a", "tags": (1, 2)}),
         ((), {"tags": (1, 2), "width_m": 2.5, "label": "a"}),
         ((2.5,), {"tags": (3,)}), ((), {"width_m": 0.0})]


def test_record_matches_its_dataclass_twin():
    twin, ours = declare(dataclasses), declare(record)
    built = [(twin(*args, **kwargs), ours(*args, **kwargs)) for args, kwargs in CALLS]
    for expected, got in built:
        assert repr(got) == repr(expected)
        assert record.astuple(got) == dataclasses.astuple(expected)
        assert record.asdict(got) == dataclasses.asdict(expected)
        if isinstance(got.tags, tuple):
            assert hash(got) == hash(expected)
        else:
            with pytest.raises(TypeError):
                hash(got)
    for i, (twin_a, ours_a) in enumerate(built):
        for twin_b, ours_b in built[i:]:
            assert (ours_a == ours_b) == (twin_a == twin_b)
    assert ([(f.name, f.type, dict(f.metadata)) for f in record.fields(ours)]
            == [(f.name, f.type, dict(f.metadata)) for f in dataclasses.fields(twin)])
    assert record.fields(ours(1.0)) == record.fields(ours)


@BOTH
def test_equality_needs_the_same_class(module):
    a, b = declare(module), declare(module)
    assert a(1.0) == a(1.0) and a(1.0) != a(2.0)
    assert a(1.0) != b(1.0)


@BOTH
def test_frozen_record_refuses_assignment_and_deletion(module):
    sample = declare(module)(1.0)
    with pytest.raises(AttributeError):
        sample.width_m = 2.0
    with pytest.raises(AttributeError):
        sample.other = 2.0
    with pytest.raises(AttributeError):
        del sample.label
    assert sample.width_m == 1.0


@BOTH
def test_plain_record_is_unhashable_and_assignable(module):
    @module.dataclass
    class Plain:
        name: str
        items: list = module.field(default_factory=list)

    plain = Plain("a")
    plain.name = "b"
    assert plain == Plain("b") and repr(plain) == f"{Plain.__qualname__}(name='b', items=[])"
    with pytest.raises(TypeError):
        hash(plain)


@BOTH
def test_each_instance_gets_a_fresh_default_factory_object(module):
    sample = declare(module)
    assert sample(1.0).tags == [] and sample(1.0).tags is not sample(1.0).tags


@BOTH
def test_replace_runs_post_init_again(module):
    sample = declare(module)(1.0, "a")
    changed = module.replace(sample, label=" b ")
    assert (changed.width_m, changed.label) == (1.0, "b") and sample.label == "a"
    with pytest.raises(ValueError, match="non-negative"):
        module.replace(sample, width_m=-1.0)
    with pytest.raises(TypeError):
        module.replace(sample, depth_m=1.0)


@BOTH
@pytest.mark.parametrize("args, kwargs, why", [
    ((), {}, "missing"), ((), {"label": "a"}, "missing"),
    ((1.0,), {"depth_m": 2.0}, "unexpected"), ((), {"width_m": 1.0, "depth_m": 2.0}, "unexpected"),
    ((), {"label": "a", "tags": [], "depth_m": 2.0}, "unexpected"),
    ((1.0,), {"width_m": 2.0}, "multiple"), ((1.0, "a", [], 4), {}, "positional"),
])
def test_bad_arguments_raise_type_error(module, args, kwargs, why):
    with pytest.raises(TypeError, match=why):
        declare(module)(*args, **kwargs)


def declare_defaults(module):
    """A plain record whose every field has a default, one of them a default_factory."""

    @module.dataclass
    class Defaults:
        label: str = "x"
        tags: list = module.field(default_factory=list)

    return Defaults


@pytest.mark.parametrize("declared, args, kwargs", [
    (declare, (), {"label": " a ", "tags": (1,), "width_m": 2.5}),
    (declare_defaults, (), {}),
    (declare, (2.5,), {}),
    (declare_defaults, (), {"tags": [3]}),
], ids=["keywords-only", "defaults-only", "default-factory", "factory-field-given"])
def test_first_instance_matches_its_dataclass_twin(declared, args, kwargs):
    # a record compiles its __init__ at its first instance: each case builds
    # the first instance of a fresh class, then a second through that __init__
    twin, ours = declared(dataclasses), declared(record)
    for _ in range(2):
        expected, got = twin(*args, **kwargs), ours(*args, **kwargs)
        assert repr(got) == repr(expected)
        assert record.astuple(got) == dataclasses.astuple(expected)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}), ((1.0,), {"depth_m": 2.0}), ((1.0,), {"width_m": 2.0}), ((1.0, "a", [], 4), {}),
])
def test_bad_arguments_raise_the_dataclass_message(args, kwargs):
    messages = []
    for module in (dataclasses, record):
        with pytest.raises(TypeError) as exc:
            declare(module)(*args, **kwargs)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@BOTH
def test_a_field_without_a_default_may_not_follow_one_with_a_default(module):
    with pytest.raises(TypeError, match="non-default argument 'width_m' follows default argument"):
        @module.dataclass
        class Sample:
            label: str = "x"
            width_m: float = module.field(metadata={})
