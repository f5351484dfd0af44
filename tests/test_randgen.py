import hashlib

import pytest

from hmf.factorization import signature, validate_hmf
from hmf.io_json import dumps, hmf_to_json
from hmf.randgen import UnreachableProfile, gen_random_hmf


def test_codim1_square_identity():
    F = gen_random_hmf(1, c=1)
    ring = F.ring
    from hmf.complexes import MatrixMap

    fid0 = MatrixMap.poly_times_identity(ring, ring.regseq[0], F.A0(1), 0)
    fid1 = MatrixMap.poly_times_identity(ring, ring.regseq[0], F.A1(1), 0)
    assert (F.d_p(1).compose(F.h[1]) - fid0).is_zero()
    assert (F.h[1].compose(F.d_p(1)) - fid1).is_zero()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("c", [1, 2, 3])
def test_generated_validate(seed, c):
    F = gen_random_hmf(seed, c=c)
    rep = validate_hmf(F)
    assert rep.ok, rep.failures
    assert "minimal: True" in rep.items


def test_deterministic():
    a = gen_random_hmf(11, c=2)
    b = gen_random_hmf(11, c=2)
    assert dumps(hmf_to_json(a)) == dumps(hmf_to_json(b))


# sha256 over seeds 0..39 at each c of gen_random_hmf, and of strengthen and
# truncate_hmf(., c - 1) of every fourth instance, as hmf_to_json dumps;
# perfbench's inputs are drawn from this generator, so its output must not
# drift between commits
RANDGEN_DIGESTS = {
    1: "041004c2fa0d166180860b42080a0f5a7cd4eea5034fcb75dbe7a9a03da64cc9",
    2: "73831d96ed1bbae3c26845858e8145c9609f3d62a7d3020bfd8c5884c578a601",
    3: "cd9d537289ae0b6a008acebd092674da97d777e065813e7db4c1fb7ee8dccbc5",
    4: "cca8fdd327ee9138125c7ab2c10a06cd65536620356186ab1c1d66ff670ba507",
}


@pytest.mark.parametrize("c", sorted(RANDGEN_DIGESTS))
def test_randgen_digest(c):
    from hmf.extract import strengthen
    from hmf.factorization import truncate_hmf

    h = hashlib.sha256()
    for seed in range(40):
        F = gen_random_hmf(seed, c=c)
        h.update(dumps(hmf_to_json(F)).encode())
        if seed % 4 == 0:
            h.update(dumps(hmf_to_json(strengthen(F))).encode())
            h.update(dumps(hmf_to_json(truncate_hmf(F, c - 1))).encode())
    assert h.hexdigest() == RANDGEN_DIGESTS[c]


def test_gamma_control():
    F = gen_random_hmf(3, c=2, gamma=1)
    assert signature(F).gamma == 1
    F = gen_random_hmf(3, c=2, gamma=2)
    assert signature(F).gamma == 2


def test_impossible_profiles():
    with pytest.raises(UnreachableProfile):
        gen_random_hmf(0, c=3, gamma=1)
    with pytest.raises(UnreachableProfile):
        gen_random_hmf(0, c=2, gamma=1, max_rank=1)
    with pytest.raises(UnreachableProfile):
        gen_random_hmf(0, c=0)


def test_ranks_bounded():
    for seed in range(10):
        F = gen_random_hmf(seed, c=2, max_rank=3)
        for p in range(1, 3):
            assert F.rank1(p) <= 3 and F.rank0(p) <= 3


def test_truncation_closure():
    # every truncation of a valid factorization is valid
    from hmf.factorization import truncate_hmf

    for seed in range(5):
        for c in (2, 3):
            F = gen_random_hmf(seed, c=c)
            for p in range(1, c + 1):
                assert validate_hmf(truncate_hmf(F, p)).ok, (seed, c, p)


def test_formula_suite_pure():
    from hmf.oracle import formula_suite

    F = gen_random_hmf(4, c=2)
    rows1 = [r.row() for r in formula_suite(F, steps=6, D=6)]
    rows2 = [r.row() for r in formula_suite(F, steps=6, D=6)]
    assert rows1 == rows2
