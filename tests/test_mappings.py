"""Mapping registration, evaluation, composition, and commuting checks."""
import math

import numpy as np
import pytest

from fixedlab import (
    ContractViolation,
    Domain,
    DomainError,
    GALLERY_BALL,
    GALLERY_BOX,
    InvalidInputError,
    MappingFamily,
    SamplePlan,
    affine_map,
    build_mapping,
    builtin_gallery,
    check_commuting,
    common_fixed_points,
    compose,
    constant_map,
    dist,
    evaluate,
    identity_map,
    make_family,
    piecewise_map,
    register_mapping,
    rotation_scaling_map,
    scaling_map,
    translation_map,
)
from fixedlab.mappings import _registration_sample
from fixedlab.vecspace import sample


def test_register_rejects_wrong_fixed_point():
    d = Domain.box([0.0], [1.0])
    with pytest.raises(ContractViolation):
        register_mapping(lambda p: 0.5 * p, d, "halve",
                         known_fixed_points=[[1.0]])


def test_register_rejects_a_claimed_fixed_point_whose_image_has_another_shape():
    """T(0, 0) is the 1-vector [0.0]: no distance to (0, 0), so no fixed point."""
    d = Domain.box([0.0, 0.0], [4.0, 4.0])
    with pytest.raises(ContractViolation,
                       match=r"^mapping 'f': claimed fixed point \[0\.0, 0\.0\]: "
                             r"no distance between points of shapes \(1,\) and \(2,\)$"):
        register_mapping(lambda p: 0.0 * p[0], d, "f", known_fixed_points=[[0.0, 0.0]],
                         self_map=False)


def test_a_composite_whose_image_has_another_shape_is_refused_as_no_self_map():
    """The factor's fixed point is no candidate for a composite whose image
    has another shape, so registration refuses the composite itself."""
    d = Domain.box([0.0, 0.0], [4.0, 4.0])
    flat = register_mapping(lambda p: 0.0 * p[0], d, "flat", self_map=False)
    with pytest.raises(ContractViolation,
                       match=r"^mapping 'flat∘scaling\(0\.5\)' is not a self-map: "
                             r"\[0\.0, 0\.0\] -> \[0\.0\]$"):
        compose(flat, scaling_map(d, 0.5))


def test_register_rejects_non_self_map():
    d = Domain.box([0.0], [1.0])
    with pytest.raises(ContractViolation):
        register_mapping(lambda p: p + 2.0, d, "escape")


@pytest.mark.parametrize("d", [1, 3, 5])
def test_default_registration_sample_is_the_5_grid_up_to_5_dimensions(d):
    dom = Domain.ball([0.1] * d, 1.0)
    want = sample(dom, SamplePlan.grid(5))
    got = _registration_sample(dom)
    assert [p.tobytes() for p in got] == [p.tobytes() for p in want]


@pytest.mark.parametrize("shape", ["box", "ball"])
@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
@pytest.mark.parametrize("d", [6, 10, 40])
def test_default_registration_sample_is_bounded_above_5_dimensions(d, kind, shape):
    """5**d grid points would need GBs at d = 10 and break numpy's 32-axis
    limit at d = 33; the sample is at most 3 125 fixed lattice points."""
    dom = (Domain.box([-1.0] * d, [2.0] * d, kind) if shape == "box"
           else Domain.ball([0.0] * d, 1.5, kind))
    pts = _registration_sample(dom)
    assert 4 * d <= len(pts) <= 5 ** 5
    assert [p.tobytes() for p in pts] == [p.tobytes() for p in _registration_sample(dom)]
    assert all(dom.contains(p) and not p.flags.writeable for p in pts)
    lo, up = dom.bounding_box()
    assert {float(p[d - 1]) for p in pts} >= {lo[d - 1], up[d - 1]}   # each axis spanned
    scaling_map(dom, 0.5)   # registers
    with pytest.raises(ContractViolation, match="is not a self-map"):
        register_mapping(lambda p: 1.5 * p, dom, "stretch")


def test_register_allows_non_self_map_when_flagged():
    d = Domain.box([0.0], [1.0])
    m = translation_map(d, [2.0])
    assert m.self_map is False


def test_evaluate_validates_domain_and_dimension(example1):
    with pytest.raises(DomainError):
        evaluate(example1, [5.0])
    with pytest.raises(DomainError):
        evaluate(example1, [1.0, 2.0])


def test_example1_map_values(example1):
    assert evaluate(example1, [4.0])[0] == 2.0
    assert evaluate(example1, [0.0])[0] == 0.0
    assert evaluate(example1, [3.9999999])[0] == 0.0
    assert [z[0] for z in example1.known_fixed_points] == [0.0]


def test_piecewise_case_matching_is_exact_float_equality():
    d = Domain.box([0.0], [4.0])
    m = piecewise_map(d, 1.0, cases=[(2.0, 3.0)], known_fixed_points=[[1.0]])
    assert evaluate(m, [2.0])[0] == 3.0
    # one ulp off the case coordinate falls back to the default
    assert evaluate(m, [np.nextafter(2.0, 3.0)])[0] == 1.0


def test_compose_is_bitwise_pointwise(affine):
    c = compose(affine, affine)
    x = np.array([0.37, -0.21])
    want = evaluate(affine, evaluate(affine, x))
    assert np.array_equal(evaluate(c, x), want)
    assert c.label == "affine_contraction∘affine_contraction"


def test_compose_inherits_surviving_fixed_points(affine):
    c = compose(affine, affine)
    assert [z.tolist() for z in c.known_fixed_points] \
        == [z.tolist() for z in affine.known_fixed_points]


def test_compose_requires_shared_domain(affine):
    other = scaling_map(GALLERY_BALL, 0.5)
    with pytest.raises(ContractViolation):
        compose(affine, other)


def test_commuting_scalings_pass():
    a = scaling_map(GALLERY_BALL, 0.9)
    b = scaling_map(GALLERY_BALL, 0.7)
    v = check_commuting(a, b, SamplePlan.grid(8))
    assert v.passed
    assert v.checked_pairs == 32
    assert v.observed_max <= 1e-15


def test_rotation_commutes_with_scaling():
    r = rotation_scaling_map(GALLERY_BALL, math.pi / 6, 0.8)
    s = scaling_map(GALLERY_BALL, 0.5)
    assert check_commuting(r, s, SamplePlan.grid(8)).passed


def test_translation_is_a_commuting_counterexample():
    """Scaling and translation disagree at the very first grid sample, so the
    scan early-exits before either composite can leave the box."""
    t = translation_map(GALLERY_BOX, [0.3, 0.0])
    s = scaling_map(GALLERY_BOX, 0.5)
    v = check_commuting(s, t, SamplePlan.grid(5))
    assert not v.passed
    assert v.checked_pairs == 1
    assert tuple(v.witness.x) == (-1.0, -1.0)
    assert v.witness.lhs == 0.14999999999999997
    assert v.witness.left_value is not None
    assert v.witness.right_value is not None


def test_commuting_requires_shared_domain():
    s = scaling_map(GALLERY_BALL, 0.5)
    t = scaling_map(GALLERY_BOX, 0.5)
    with pytest.raises(ContractViolation):
        check_commuting(s, t, SamplePlan.grid(4))


def test_family_requires_shared_domain(affine):
    with pytest.raises(ContractViolation):
        make_family([affine, scaling_map(GALLERY_BALL, 0.5)],
                    SamplePlan.grid(4))


def test_family_certificate_merges_all_pairs():
    maps = [scaling_map(GALLERY_BALL, a) for a in (0.9, 0.7, 0.5)]
    fam = make_family(maps, SamplePlan.grid(6))
    cert = fam.commuting_certificate
    assert cert.passed
    assert cert.condition_label == "commuting(family)"


def test_family_certificate_fails_on_non_commuting_member():
    t = translation_map(GALLERY_BOX, [0.3, 0.0])
    s = scaling_map(GALLERY_BOX, 0.5)
    fam = make_family([s, t], SamplePlan.grid(5))
    assert not fam.commuting_certificate.passed


def test_common_fixed_points_of_scalings_is_origin():
    maps = [scaling_map(GALLERY_BALL, a) for a in (0.9, 0.7)]
    fam = make_family(maps, SamplePlan.grid(4))
    zs = common_fixed_points(fam)
    assert len(zs) == 1
    assert zs[0].tolist() == [0.0, 0.0]


def test_common_fixed_points_empty_when_none_shared():
    s = scaling_map(GALLERY_BOX, 0.5)
    c = constant_map(GALLERY_BOX, [0.3, -0.2])
    fam = make_family([s, c], SamplePlan.grid(4))
    assert common_fixed_points(fam) == ()


def test_identity_records_center_fixed_point():
    m = identity_map(GALLERY_BOX)
    assert [z.tolist() for z in m.known_fixed_points] == [[0.0, 0.0]]


def test_gallery_contents(gallery):
    assert len(gallery) == 8
    labels = [m.label for m in gallery]
    assert len(set(labels)) == 8
    for m in gallery:
        for z in m.known_fixed_points:
            assert dist(evaluate(m, z), z, m.domain.norm_kind) <= 1e-10, m.label


@pytest.mark.parametrize("build,error,message", [
    (lambda: piecewise_map(GALLERY_BOX, 0.0, []), ContractViolation, "1-dimensional"),
    (lambda: constant_map(GALLERY_BOX, [2.0, 0.0]), ContractViolation, "outside the domain"),
    (lambda: affine_map(GALLERY_BOX, [[0.5]], [0.0, 0.0]), ContractViolation,
     "do not fit dimension 2"),
    (lambda: affine_map(GALLERY_BOX, [[math.inf, 0.0], [0.0, 0.5]], [0.0, 0.0]),
     InvalidInputError, "non-finite entry"),
    (lambda: rotation_scaling_map(Domain.box([0.0], [1.0]), 0.5), ContractViolation,
     "needs a 2-d domain"),
    (lambda: MappingFamily(()), ContractViolation, "at least one member"),
], ids=["piecewise-2d", "constant-outside", "affine-wrong-shape", "affine-non-finite",
        "rotation-1d", "empty-family"])
def test_builder_refuses_what_its_contract_excludes(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_affine_map_with_singular_i_minus_a_records_no_fixed_point():
    """x -> (x, y/2) fixes the whole first axis, but I - A has no inverse to
    name one point, so none is recorded."""
    T = affine_map(GALLERY_BOX, [[1.0, 0.0], [0.0, 0.5]], [0.0, 0.0])
    assert T.known_fixed_points == ()
    assert evaluate(T, [0.5, 0.5]).tolist() == [0.5, 0.25]


def test_build_mapping_unknown_name():
    with pytest.raises(ContractViolation, match="nosuch"):
        build_mapping({"name": "nosuch"}, GALLERY_BOX)


def test_build_mapping_scaling_round_trip():
    m = build_mapping({"name": "scaling", "factor": 0.5}, GALLERY_BALL)
    assert evaluate(m, [0.4, -0.2]).tolist() == [0.2, -0.1]


def test_build_mapping_missing_key():
    with pytest.raises((ContractViolation, KeyError), match="factor"):
        build_mapping({"name": "scaling"}, GALLERY_BALL)


def test_build_mapping_declared_fixed_points_are_verified():
    box = Domain.box([-1.0], [4.0])
    m = build_mapping({"name": "scaling", "factor": 1.0,
                       "fixed_points": [[0.0], [2.5], [2.5]]}, box)
    # the builtin origin comes first; re-declared points are kept once
    assert [z.tolist() for z in m.known_fixed_points] == [[0.0], [2.5]]
    with pytest.raises(ContractViolation, match="outside the domain"):
        build_mapping({"name": "scaling", "factor": 1.0,
                       "fixed_points": [[10.0]]}, Domain.box([1.0], [4.0]))
    with pytest.raises(ContractViolation, match="moves by"):
        build_mapping({"name": "scaling", "factor": 0.5,
                       "fixed_points": [[2.0]]}, box)
